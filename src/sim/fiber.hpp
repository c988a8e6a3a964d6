#pragma once
// Stackful fibers for the simulation engine.
//
// A Fiber is a suspended flow of control with its own stack, switched to and
// from with a plain userspace register swap (POSIX ucontext).  The engine
// uses one fiber per simulated Process plus one implicit fiber for the
// scheduler itself; a switch costs a few hundred nanoseconds instead of the
// two kernel context switches of the previous thread/condvar hand-shake.
//
// Stacks come from FiberStackPool, one process-wide free list behind one
// mutex: mmap'd blocks with a PROT_NONE guard page at the low end, handed
// back to the list when a fiber terminates.  Every engine in the process
// draws from the same list, so spawn-heavy simulations (10k+ processes) and
// back-to-back simulations in one process pay mmap, mprotect and
// first-touch page faults once per stack.  Every stack has the same size,
// so any free stack fits any fiber.  The list never unmaps: it holds the
// high-water mark of stacks live at once.
//
// AddressSanitizer support: every switch is annotated with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so ASan
// tracks the active stack; recycled stacks are unpoisoned before reuse.
// Build with -fsanitize=address (e.g. the `asan` CMake preset) to use it.

#include <csetjmp>
#include <cstddef>
#include <cstdint>
#include <ucontext.h>

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

/// The process-wide pool of fiber stacks of kStackSize bytes.  Thread-safe:
/// engines on any thread acquire and release through its one mutex.
class FiberStackPool {
 public:
  /// Stack size of every process fiber, a whole number of pages.  Pages are
  /// committed lazily, so this costs virtual address space only until a
  /// fiber actually recurses.
  static constexpr std::size_t kStackSize = 256 * 1024;

  FiberStackPool() = delete;

  /// Pops a free stack or maps a fresh one (guard page included).
  static FiberStack acquire();
  /// Returns a stack to the free list for reuse by any later fiber.
  static void release(FiberStack stack);

  /// Stacks ever mapped in this process.
  static std::size_t mapped_total();
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
