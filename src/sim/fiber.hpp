#pragma once
// Stackful fibers for the simulation engine.
//
// A Fiber is a suspended flow of control with its own stack, switched to and
// from with a plain userspace register swap (POSIX ucontext).  The engine
// uses one fiber per simulated Process plus one implicit fiber for the
// scheduler itself; a switch costs a few hundred nanoseconds instead of the
// two kernel context switches of the previous thread/condvar hand-shake.
//
// Stacks are owned by a FiberStackPool: mmap'd blocks with a PROT_NONE guard
// page at the low end, recycled on a free list when a fiber terminates so
// spawn-heavy simulations (10k+ processes) do not churn the allocator.  A
// destroyed pool hands its stacks to a process-wide cache (one list per
// stack size) that later pools draw from before mapping, so back-to-back
// simulations in one process pay mmap, mprotect and first-touch page faults
// once.  The cache never unmaps: it holds the high-water mark of stacks
// live at once.
//
// AddressSanitizer support: every switch is annotated with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so ASan
// tracks the active stack; recycled stacks are unpoisoned before reuse.
// Build with -fsanitize=address (e.g. the `asan` CMake preset) to use it.

#include <csetjmp>
#include <cstddef>
#include <cstdint>
#include <ucontext.h>

#include <vector>

namespace deep::sim {

#if defined(__SANITIZE_ADDRESS__)
#define DEEPSIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DEEPSIM_ASAN_FIBERS 1
#endif
#endif

/// A stack block handed out by FiberStackPool.  `base` is the lowest usable
/// address (just above the guard page); the stack grows down from
/// `base + size`.
struct FiberStack {
  void* base = nullptr;
  std::size_t size = 0;

  explicit operator bool() const { return base != nullptr; }
};

/// Allocates and recycles fiber stacks of one fixed size.  Not thread-safe
/// (the engine serialises its calls); the process-wide cache behind it is.
class FiberStackPool {
 public:
  /// Default stack size for process fibers.  Pages are committed lazily, so
  /// this costs virtual address space only until a fiber actually recurses.
  static constexpr std::size_t kDefaultStackSize = 256 * 1024;

  explicit FiberStackPool(std::size_t stack_size = kDefaultStackSize);
  ~FiberStackPool();
  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  /// Changes the stack size for subsequently acquired stacks.  Must be called
  /// before the first acquire() (enforced by the caller: the engine rejects
  /// set_fiber_stack_size() after the first spawn).
  void set_stack_size(std::size_t bytes);
  std::size_t stack_size() const { return stack_size_; }

  /// Pops a recycled stack (this pool's, else one of the same size from the
  /// process-wide cache) or maps a fresh one (guard page included).
  FiberStack acquire();
  /// Returns a stack to the free list for reuse by a future fiber.
  void release(FiberStack stack);

  /// Stacks ever mapped by any pool in this process.
  static std::size_t mapped_total();

 private:
  std::size_t stack_size_;
  std::vector<FiberStack> free_;
};

/// One suspended (or running) flow of control.  A default-constructed Fiber
/// represents the caller's own context ("the scheduler") and becomes valid
/// the first time another fiber switches back to it; a Fiber created with
/// create() runs `entry(arg)` on its own stack on first switch-in.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Prepares this fiber to run `entry(arg)` on `stack`.  The fiber does not
  /// start until someone switches to it.  `entry` must never return: it must
  /// end with a terminating switch (switch_to with `terminating = true`).
  void create(FiberStack stack, Entry entry, void* arg);

  bool created() const { return stack_.base != nullptr; }

  /// Detaches the stack (after the fiber has terminated) so the caller can
  /// recycle it through the pool.
  FiberStack take_stack();

  /// Switches execution from `from` (the currently running fiber) to `to`.
  /// Returns when someone switches back to `from`.  With `terminating` set,
  /// `from` never resumes: its stack may be recycled by the target and, under
  /// ASan, its fake stack is released.
  static void switch_to(Fiber& from, Fiber& to, bool terminating = false);

 private:
  // Hybrid switching (the QEMU coroutine technique): ucontext only builds
  // the initial stack frame; the first switch-in runs through swapcontext
  // (one sigprocmask syscall, once per fiber), after which every suspend and
  // resume is a pure userspace sigsetjmp/siglongjmp with no mask save.
  ucontext_t ctx_{};
  sigjmp_buf jmp_{};
  // A default-constructed Fiber is the caller's own live context: it is
  // resumed through the sigsetjmp it takes when switching away, never
  // through swapcontext.  create() resets this so the first switch-in runs
  // the ucontext entry path.
  bool entered_ = true;
  FiberStack stack_{};  // empty for the scheduler's own context
#if DEEPSIM_ASAN_FIBERS
  friend struct FiberAsan;
  void* fake_stack_ = nullptr;
  // Stack bounds as reported to ASan; for the scheduler fiber these are
  // learned from __sanitizer_finish_switch_fiber on the first switch away.
  const void* asan_stack_bottom_ = nullptr;
  std::size_t asan_stack_size_ = 0;
#endif
};

}  // namespace deep::sim
