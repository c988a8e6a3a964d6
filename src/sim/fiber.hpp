#pragma once
// Stackful fibers for the simulation engine.
//
// A Fiber is a suspended flow of control with its own stack.  Every switch,
// the first entry into a new fiber included, runs one hand-written x86-64
// routine (deep_fiber_switch in fiber.cpp): push the six callee-saved
// registers, store the stack pointer, load the target's, pop its registers
// and return into it.  That is the stack swap of Boost.Context's
// jump_fcontext, which SimGrid/SMPI also uses for its "raw" contexts
// (Degomme et al., IEEE TPDS 2017).  No signal mask is saved and no system
// call is made.  The engine uses one fiber per simulated Process plus one
// implicit fiber per scheduler anchor.  Only x86-64 (System V ABI) is
// supported.
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
// Sanitizer support, detected from the compiler's own macros:
//   * AddressSanitizer (the `asan` CMake preset): every switch is annotated
//     with __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber
//     so ASan tracks the active stack; recycled stacks are unpoisoned before
//     reuse.
//   * ThreadSanitizer (the `tsan` preset): every created fiber is a TSan
//     fiber (__tsan_create_fiber / __tsan_switch_to_fiber /
//     __tsan_destroy_fiber), so a fiber that migrates between worker
//     threads keeps one race-detection context.

#include <cstddef>

namespace deep::sim {

#if defined(__SANITIZE_ADDRESS__)
#define DEEPSIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DEEPSIM_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define DEEPSIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DEEPSIM_TSAN_FIBERS 1
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
/// represents the caller's own context ("the scheduler anchor") and becomes
/// valid when it first switches away; a Fiber created with create() runs
/// `entry(arg)` on its own stack on first switch-in.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  Fiber() = default;
  ~Fiber();
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
  /// Returns when someone switches back to `from`, possibly on another OS
  /// thread.  With `terminating` set, `from` never resumes: its stack may be
  /// recycled by the target and, under ASan, its fake stack is released.
  static void switch_to(Fiber& from, Fiber& to, bool terminating = false);

 private:
  friend struct FiberSanitizers;
  // Stack pointer saved by deep_fiber_switch while this fiber is suspended;
  // it points at the saved callee-saved registers and the resume address.
  void* sp_ = nullptr;
  FiberStack stack_{};  // empty for a scheduler anchor
#if DEEPSIM_ASAN_FIBERS
  void* fake_stack_ = nullptr;
  // Stack bounds as reported to ASan.  A scheduler anchor's are re-learned
  // on every switch into another fiber: its partition may run on a
  // different OS thread (and stack) in every window.
  const void* asan_stack_bottom_ = nullptr;
  std::size_t asan_stack_size_ = 0;
  // The fiber whose switch last resumed this one; it is told its bounds.
  Fiber* asan_source_ = nullptr;
#endif
#if DEEPSIM_TSAN_FIBERS
  // Owned (__tsan_create_fiber) for a created fiber; for a scheduler anchor,
  // the running thread's current fiber, re-read on every switch away.
  void* tsan_fiber_ = nullptr;
#endif
};

}  // namespace deep::sim
