#pragma once
// Engine-internal state for conservative parallel (windowed) execution.
//
// This header is private to the sim layer: it defines Engine::ParallelState,
// which engine.cpp (scheduling entry points, teardown) and parallel.cpp (the
// windowed executor) share.  User code includes sim/engine.hpp only; the
// design is described in docs/parallel_engine.md.
//
// Pieces:
//
//  * CrossRing — a bounded SPSC ring per (src, dst) partition pair carrying
//    cross-partition events.  The producer is the single worker thread
//    executing the source partition during a window; the consumer is the
//    main thread draining at the window barrier (while all producers are
//    parked), so push is wait-free and drain needs no synchronisation beyond
//    the barrier itself.  A full ring falls back to a mutex-guarded overflow
//    vector — correctness never depends on the capacity, only throughput.
//
//  * BufferTracer — the per-partition Tracer interposed while a window runs.
//    Records are tagged with (event time, event key, emit index); at commit
//    the main thread merges all partitions' records in that canonical order
//    into the user's tracer, so trace output is byte-identical for every
//    worker count.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace deep::sim {

struct Engine::ParallelState {
  struct CrossEvent {
    TimePoint t;
    std::uint64_t key;  // assigned from the *source* partition's stream at
                        // push time, so heap order never depends on which
                        // window delivered the event
    EventFn fn;
  };

  class CrossRing {
   public:
    static constexpr std::size_t kCapacity = 256;

    CrossRing() : slots_(kCapacity) {}
    CrossRing(const CrossRing&) = delete;
    CrossRing& operator=(const CrossRing&) = delete;

    /// Producer side (the source partition's worker, inside a window).
    void push(CrossEvent&& ev) {
      const std::size_t h = head_.load(std::memory_order_relaxed);
      const std::size_t t = tail_.load(std::memory_order_acquire);
      if (h - t < slots_.size()) {
        slots_[h % slots_.size()] = std::move(ev);
        head_.store(h + 1, std::memory_order_release);
        return;
      }
      std::lock_guard<std::mutex> lock(overflow_mu_);
      overflow_.push_back(std::move(ev));
    }

    /// Consumer side (main thread at a window barrier, producers parked).
    /// Invokes `sink(CrossEvent&&)` in push order.
    template <typename Sink>
    void drain(Sink&& sink) {
      std::size_t t = tail_.load(std::memory_order_relaxed);
      const std::size_t h = head_.load(std::memory_order_acquire);
      while (t != h) {
        sink(std::move(slots_[t % slots_.size()]));
        ++t;
      }
      tail_.store(t, std::memory_order_release);
      // The barrier orders overflow_ writes before this read; the mutex only
      // serialises producers' own push-vs-push (there is one producer, so it
      // is contention-free) and keeps TSan happy about the rare path.
      std::lock_guard<std::mutex> lock(overflow_mu_);
      for (CrossEvent& ev : overflow_) sink(std::move(ev));
      overflow_.clear();
    }

   private:
    std::vector<CrossEvent> slots_;
    std::atomic<std::size_t> head_{0};
    std::atomic<std::size_t> tail_{0};
    std::mutex overflow_mu_;
    std::vector<CrossEvent> overflow_;
  };

  /// Buffers trace records during a partition's window, tagged for the
  /// canonical-order merge at commit.
  class BufferTracer final : public Tracer {
   public:
    struct Rec {
      std::int64_t t_ps;    // virtual time of the emitting event
      std::uint64_t key;    // ...and its queue key (unique, reproducible)
      std::uint64_t emit;   // per-partition tie-break within one event
      bool is_span;
      std::string track;
      std::string name;
      std::string category;
      TimePoint begin;
      TimePoint end;
    };

    explicit BufferTracer(Engine::Partition& part) : part_(&part) {}

    void span(const std::string& track, const std::string& name,
              TimePoint begin, TimePoint end,
              const std::string& category) override {
      recs_.push_back(Rec{part_->now.ps, part_->cur_key, part_->trace_emit++,
                          true, track, name, category, begin, end});
    }

    void instant(const std::string& track, const std::string& name,
                 TimePoint t, const std::string& category) override {
      recs_.push_back(Rec{part_->now.ps, part_->cur_key, part_->trace_emit++,
                          false, track, name, category, t, t});
    }

    std::vector<Rec>& records() { return recs_; }

   private:
    Engine::Partition* part_;
    std::vector<Rec> recs_;
  };

  explicit ParallelState(Engine& engine) : nparts(engine.partitions()) {
    rings.resize(static_cast<std::size_t>(nparts) * nparts);
    for (std::uint32_t p = 0; p < nparts; ++p)
      tracers.emplace_back(engine.partition(p));
  }

  CrossRing& ring(std::uint32_t src, std::uint32_t dst) {
    return rings[static_cast<std::size_t>(src) * nparts + dst];
  }

  std::uint32_t nparts;
  // CrossRing holds atomics (immovable), so the flat (src, dst) matrix lives
  // in a deque resized once at construction.
  std::deque<CrossRing> rings;
  std::deque<BufferTracer> tracers;  // one per partition, stable addresses
  std::vector<BufferTracer::Rec> merge_scratch;

  // Plan-step scratch (main thread only): the effective (src, dst) pair
  // lookahead matrix resolved at run start, and the per-partition arrays of
  // the min-plus horizon computation (INT64_MAX = unconstrained/none).
  std::vector<std::int64_t> eff_la;
  std::vector<std::int64_t> plan_next;  // next event time per partition
  std::vector<std::int64_t> plan_lb;    // emission lower bound per partition
  std::vector<char> plan_done;          // lower bound finalised
};

}  // namespace deep::sim
