#include "sim/fiber.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "util/error.hpp"

#if DEEPSIM_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if DEEPSIM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "sim/fiber.cpp: deep_fiber_switch is written for x86-64 (System V ABI) only"
#endif

// ---------------------------------------------------------------------------
// The one fiber switch
// ---------------------------------------------------------------------------
//
// deep_fiber_switch(save_sp, next_sp): push the callee-saved registers,
// store rsp in *save_sp, load next_sp, pop the target's registers and `ret`
// to where the target last called deep_fiber_switch.  Caller-saved
// registers need no saving: to the compiler this is an ordinary call.  A new
// fiber's first switch-in pops the frame Fiber::create prepared, whose
// resume address is deep_fiber_entry: it hands the popped rbx, r12 and r13
// (fiber, entry, arg) to deep_fiber_start.  rbp pops as 0 and the return
// address is marked undefined, so frame-pointer walks and unwinders stop at
// the fiber's bottom.  Top-level asm, not a .S file, so that builds which
// enable only the CXX language assemble it.

extern "C" {
__attribute__((visibility("hidden"))) void deep_fiber_switch(void** save_sp,
                                                             void* next_sp);
__attribute__((visibility("hidden"))) void deep_fiber_entry();
__attribute__((visibility("hidden"), used, noreturn)) void deep_fiber_start(
    deep::sim::Fiber* self, void (*entry)(void*), void* arg);
}

asm(R"(
        .pushsection .text
        .globl  deep_fiber_switch
        .hidden deep_fiber_switch
        .type   deep_fiber_switch, @function
        .p2align 4
deep_fiber_switch:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        ret
        .size   deep_fiber_switch, .-deep_fiber_switch

        .globl  deep_fiber_entry
        .hidden deep_fiber_entry
        .type   deep_fiber_entry, @function
        .p2align 4
deep_fiber_entry:
        .cfi_startproc
        .cfi_undefined %rip
        movq    %rbx, %rdi
        movq    %r12, %rsi
        movq    %r13, %rdx
        call    deep_fiber_start
        ud2
        .cfi_endproc
        .size   deep_fiber_entry, .-deep_fiber_entry
        .popsection
)");

namespace deep::sim {

namespace {

std::size_t page_size() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// The free stacks of FiberStackPool.  Leaked on purpose: an engine
// destroyed during static destruction can still return its stacks, and the
// list stays reachable for leak checkers.
struct FreeStacks;
FreeStacks& free_stacks();

struct FreeStacks {
  // Held across fork(): a service may fork a job while another thread's
  // engine takes or returns a stack, and the child must not inherit the
  // lock held.
  FreeStacks() {
    pthread_atfork([] { free_stacks().mu.lock(); },
                   [] { free_stacks().mu.unlock(); },
                   [] { free_stacks().mu.unlock(); });
  }
  std::mutex mu;
  std::vector<FiberStack> stacks;
};

FreeStacks& free_stacks() {
  static auto* list = new FreeStacks;
  return *list;
}

std::atomic<std::size_t> g_stacks_mapped{0};

}  // namespace

// The sanitizer side of a switch; every hook is empty in a plain build.
struct FiberSanitizers {
  static void on_create([[maybe_unused]] Fiber& f) {
#if DEEPSIM_ASAN_FIBERS
    f.asan_stack_bottom_ = f.stack_.base;
    f.asan_stack_size_ = f.stack_.size;
#endif
#if DEEPSIM_TSAN_FIBERS
    f.tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  // Releases what a created fiber holds; a scheduler anchor holds nothing.
  static void on_destroy([[maybe_unused]] Fiber& f) {
#if DEEPSIM_TSAN_FIBERS
    if (f.created()) __tsan_destroy_fiber(f.tsan_fiber_);
#endif
  }

  static void before_switch([[maybe_unused]] Fiber& from,
                            [[maybe_unused]] Fiber& to,
                            [[maybe_unused]] bool terminating) {
#if DEEPSIM_ASAN_FIBERS
    to.asan_source_ = &from;
    __sanitizer_start_switch_fiber(terminating ? nullptr : &from.fake_stack_,
                                   to.asan_stack_bottom_, to.asan_stack_size_);
#endif
#if DEEPSIM_TSAN_FIBERS
    // An anchor stands for whichever thread runs its partition right now.
    if (!from.created()) from.tsan_fiber_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
  }

  // Runs on `resumed`'s stack right after the switch into it, on a first
  // entry as on every resume.  It tells the switch source its stack bounds:
  // for a scheduler anchor those are the stack of the thread that ran it.
  static void after_switch([[maybe_unused]] Fiber& resumed) {
#if DEEPSIM_ASAN_FIBERS
    Fiber* source = resumed.asan_source_;
    __sanitizer_finish_switch_fiber(resumed.fake_stack_,
                                    &source->asan_stack_bottom_,
                                    &source->asan_stack_size_);
#endif
  }
};

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
  // a neighbouring fiber's stack.  A stack without one is not handed out.
  if (::mprotect(mem, page, PROT_NONE) != 0) {
    ::munmap(mem, kStackSize + page);
    throw util::SimError("FiberStackPool: mprotect of the guard page failed");
  }
  g_stacks_mapped.fetch_add(1, std::memory_order_relaxed);
  return FiberStack{static_cast<char*>(mem) + page, kStackSize};
}

void FiberStackPool::release(FiberStack stack) {
  FreeStacks& list = free_stacks();
  std::lock_guard<std::mutex> lock(list.mu);
  list.stacks.push_back(stack);
}

}  // namespace deep::sim

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

// The first code a new fiber runs, called by deep_fiber_entry.
void deep_fiber_start(deep::sim::Fiber* self, void (*entry)(void*), void* arg) {
  deep::sim::FiberSanitizers::after_switch(*self);
  entry(arg);
  // `entry` must end with a terminating switch and never return.
  std::abort();
}

namespace deep::sim {

namespace {

// What deep_fiber_switch pops on a fiber's first switch-in, lowest address
// first.
struct EntryFrame {
  void* r15 = nullptr;
  void* r14 = nullptr;
  void* r13 = nullptr;         // arg
  Fiber::Entry r12 = nullptr;  // entry
  Fiber* rbx = nullptr;        // the fiber
  void* rbp = nullptr;         // stays 0: ends the frame-pointer chain
  void (*ret)() = nullptr;     // resume address: deep_fiber_entry
};

}  // namespace

Fiber::~Fiber() { FiberSanitizers::on_destroy(*this); }

void Fiber::create(FiberStack stack, Entry entry, void* arg) {
  DEEP_ASSERT(stack.base != nullptr, "Fiber::create: null stack");
  stack_ = stack;
  // With the stack top 16-byte aligned, the resume address sits in its top
  // word, so deep_fiber_entry calls deep_fiber_start with the ABI's
  // alignment (rsp = 8 mod 16 on entry).
  const auto top = (reinterpret_cast<std::uintptr_t>(stack.base) + stack.size) &
                   ~std::uintptr_t{15};
  auto* frame = new (reinterpret_cast<void*>(top - sizeof(EntryFrame))) EntryFrame;
  frame->r13 = arg;
  frame->r12 = entry;
  frame->rbx = this;
  frame->ret = &deep_fiber_entry;
  sp_ = frame;
  FiberSanitizers::on_create(*this);
}

FiberStack Fiber::take_stack() {
  FiberSanitizers::on_destroy(*this);
  FiberStack s = stack_;
  stack_ = FiberStack{};
  return s;
}

void Fiber::switch_to(Fiber& from, Fiber& to, bool terminating) {
  FiberSanitizers::before_switch(from, to, terminating);
  deep_fiber_switch(&from.sp_, to.sp_);
  // Runs when someone eventually switches back to `from`.
  FiberSanitizers::after_switch(from);
}

}  // namespace deep::sim
