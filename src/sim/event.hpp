#pragma once
// Pooled event queue for the simulation engine.
//
// Two de-fattening measures versus the old std::priority_queue<Event> of
// std::function callbacks, which dominated engine wall-clock:
//
//  * EventFn — a move-only callable with a 48-byte inline buffer.  Engine
//    callbacks overwhelmingly capture a pointer or two, so they are stored
//    in place with no heap allocation; larger captures fall back to the
//    heap transparently.  Process bookkeeping events (spawn slices, wake
//    resumes, sleep expiries) skip the callable entirely: they are a tagged
//    (EventKind, Process*) pair, costing nothing to create or destroy.
//
//  * EventQueue — a 4-ary implicit min-heap of 24-byte (time, seq, slot)
//    entries over a free-list slot pool holding the payloads.  Sift
//    operations move only the small entries (4-ary halves the tree depth
//    versus binary and keeps children on one cache line); payloads never
//    move after insertion, and dispatched slots are recycled through the
//    free list so a steady-state simulation performs no queue allocations
//    at all.
//
// Ordering is (time, key) — strictly FIFO among simultaneous events — which
// the engine relies on for determinism.  The key is an opaque 64-bit value
// chosen by the engine: a plain sequence number in serial runs, and a
// partition-tagged sequence ((partition << 40) | seq) in partitioned runs so
// every event in the system has a globally unique, reproducible rank that
// does not depend on worker interleaving (see docs/parallel_engine.md).

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace deep::sim {

class Process;

/// Move-only callable with small-buffer optimization, used for scheduled
/// event callbacks.  Constructible from any nullary callable.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs into dst from src, then destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* dst, void* src) { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void move_from(EventFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

/// What a queued event does when dispatched.  Process events carry only the
/// target pointer; the engine interprets the kind against the process's
/// *current* state, so an event that went stale (the process was killed, or
/// already resumed through another path) is ignored instead of misfiring.
enum class EventKind : std::uint8_t {
  Callback,     // run EventFn
  StartSlice,   // give the process a slice unconditionally (spawn)
  Resume,       // resume iff the process is still Waiting (wake delivery)
  SleepExpiry,  // resume iff the process is still Sleeping (delay expiry)
};

/// 4-ary implicit min-heap over a pooled slot array; see file comment.
class EventQueue {
 public:
  /// A dispatched event, with the payload moved out of its (recycled) slot.
  struct Dispatched {
    TimePoint t;
    std::uint64_t key;  // the ordering key it was pushed with
    EventKind kind;
    Process* proc;
    EventFn fn;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  TimePoint next_time() const { return heap_.front().t; }

  void push(TimePoint t, std::uint64_t seq, EventKind kind, Process* proc,
            EventFn fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Record& r = pool_[slot];
    r.kind = kind;
    r.proc = proc;
    r.fn = std::move(fn);
    heap_.push_back(Entry{t, seq, slot});
    sift_up(heap_.size() - 1);
  }

  Dispatched pop() {
    const Entry top = heap_.front();
    Record& r = pool_[top.slot];
    Dispatched d{top.t, top.seq, r.kind, r.proc, std::move(r.fn)};
    free_.push_back(top.slot);
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return d;
  }

 private:
  struct Entry {
    TimePoint t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Record {
    EventKind kind = EventKind::Callback;
    Process* proc = nullptr;
    EventFn fn;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;   // 4-ary implicit min-heap of (t, seq, slot)
  std::vector<Record> pool_;  // slot payloads; stable while queued
  std::vector<std::uint32_t> free_;  // recycled slot indices
};

}  // namespace deep::sim
