#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/error.hpp"

#if DEEPSIM_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace deep::sim {

namespace {

std::size_t page_size() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// The free stacks of FiberStackPool.  Leaked on purpose: an engine
// destroyed during static destruction can still return its stacks, and the
// list stays reachable for leak checkers.
struct FreeStacks {
  std::mutex mu;
  std::vector<FiberStack> stacks;
};

FreeStacks& free_stacks() {
  static auto* list = new FreeStacks;
  return *list;
}

std::atomic<std::size_t> g_stacks_mapped{0};

#if DEEPSIM_ASAN_FIBERS
// The fiber being suspended by the in-flight switch; the entry trampoline
// uses it to report the scheduler's stack bounds back to that fiber.
thread_local Fiber* t_switch_source = nullptr;
#endif

}  // namespace

#if DEEPSIM_ASAN_FIBERS
struct FiberAsan {
  static void start_switch(Fiber& from, Fiber& to, bool terminating) {
    t_switch_source = &from;
    __sanitizer_start_switch_fiber(terminating ? nullptr : &from.fake_stack_,
                                   to.asan_stack_bottom_, to.asan_stack_size_);
  }
  static void finish_switch(Fiber& resumed) {
    __sanitizer_finish_switch_fiber(resumed.fake_stack_, nullptr, nullptr);
  }
  static void finish_first_entry() {
    // First time on this fiber's stack: tell ASan the switch completed and
    // learn the bounds of the stack we came from (the scheduler's, which has
    // no other way to discover them).
    Fiber* source = t_switch_source;
    __sanitizer_finish_switch_fiber(nullptr, &source->asan_stack_bottom_,
                                    &source->asan_stack_size_);
  }
  static void on_create(Fiber& f) {
    f.asan_stack_bottom_ = f.stack_.base;
    f.asan_stack_size_ = f.stack_.size;
  }
};
#endif

// ---------------------------------------------------------------------------
// FiberStackPool
// ---------------------------------------------------------------------------

std::size_t FiberStackPool::mapped_total() {
  return g_stacks_mapped.load(std::memory_order_relaxed);
}

FiberStack FiberStackPool::acquire() {
  FiberStack s;
  {
    FreeStacks& list = free_stacks();
    std::lock_guard<std::mutex> lock(list.mu);
    if (!list.stacks.empty()) {
      s = list.stacks.back();
      list.stacks.pop_back();
    }
  }
  if (s) {
#if DEEPSIM_ASAN_FIBERS
    // Stale redzones from the previous occupant would trip false positives.
    __asan_unpoison_memory_region(s.base, s.size);
#endif
    return s;
  }
  const std::size_t page = page_size();
  void* mem = ::mmap(nullptr, kStackSize + page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mem == MAP_FAILED)
    throw util::SimError("FiberStackPool: mmap failed (out of address space?)");
  // Guard page at the low end: stack overflow faults instead of corrupting
  // a neighbouring fiber's stack.
  ::mprotect(mem, page, PROT_NONE);
  g_stacks_mapped.fetch_add(1, std::memory_order_relaxed);
  return FiberStack{static_cast<char*>(mem) + page, kStackSize};
}

void FiberStackPool::release(FiberStack stack) {
  FreeStacks& list = free_stacks();
  std::lock_guard<std::mutex> lock(list.mu);
  list.stacks.push_back(stack);
}

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

namespace {

// makecontext passes only `int` arguments; split the 64-bit entry and arg
// pointers into halves and reassemble them here.
void fiber_trampoline(unsigned entry_hi, unsigned entry_lo, unsigned arg_hi,
                      unsigned arg_lo) {
#if DEEPSIM_ASAN_FIBERS
  FiberAsan::finish_first_entry();
#endif
  auto entry = reinterpret_cast<Fiber::Entry>(
      (static_cast<std::uintptr_t>(entry_hi) << 32) |
      static_cast<std::uintptr_t>(entry_lo));
  void* arg = reinterpret_cast<void*>(
      (static_cast<std::uintptr_t>(arg_hi) << 32) |
      static_cast<std::uintptr_t>(arg_lo));
  entry(arg);
  // `entry` must end with a terminating switch and never return.
  std::abort();
}

}  // namespace

void Fiber::create(FiberStack stack, Entry entry, void* arg) {
  DEEP_ASSERT(stack.base != nullptr, "Fiber::create: null stack");
  stack_ = stack;
  entered_ = false;
  ::getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack.base;
  ctx_.uc_stack.ss_size = stack.size;
  ctx_.uc_link = nullptr;
  const auto ep = reinterpret_cast<std::uintptr_t>(entry);
  const auto ap = reinterpret_cast<std::uintptr_t>(arg);
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wcast-function-type"
  ::makecontext(&ctx_, reinterpret_cast<void (*)()>(&fiber_trampoline), 4,
                static_cast<unsigned>(ep >> 32), static_cast<unsigned>(ep),
                static_cast<unsigned>(ap >> 32), static_cast<unsigned>(ap));
#pragma GCC diagnostic pop
#if DEEPSIM_ASAN_FIBERS
  FiberAsan::on_create(*this);
#endif
}

FiberStack Fiber::take_stack() {
  FiberStack s = stack_;
  stack_ = FiberStack{};
  return s;
}

void Fiber::switch_to(Fiber& from, Fiber& to, [[maybe_unused]] bool terminating) {
#if DEEPSIM_ASAN_FIBERS
  FiberAsan::start_switch(from, to, terminating);
#endif
  if (sigsetjmp(from.jmp_, 0) == 0) {
    if (to.entered_) {
      siglongjmp(to.jmp_, 1);
    } else {
      // First activation: swapcontext gets us onto the new stack (the only
      // sigprocmask syscall this fiber ever costs).  The fiber resumes
      // `from` via siglongjmp to the sigsetjmp above, never through
      // `scratch`, so control cannot fall out of the swapcontext call.
      to.entered_ = true;
      ucontext_t scratch;
      ::swapcontext(&scratch, &to.ctx_);
      std::abort();
    }
  }
#if DEEPSIM_ASAN_FIBERS
  // Runs when someone eventually switches back to `from`.
  FiberAsan::finish_switch(from);
#endif
}

}  // namespace deep::sim
