// Conservative parallel (windowed) execution for sim::Engine.
//
// Protocol per window, driven by the main thread with W-1 helper threads:
//
//   plan    (main only)  drain cross-partition rings into destination
//                        queues in canonical (src, dst) order, then derive
//                        a per-partition safe horizon from the per-pair
//                        lookahead matrix (min-plus fixed point, below)
//   barrier
//   execute (all)        each worker runs its partitions' events with
//                        t < partition.limit; partition p is executed by
//                        worker p % W
//   barrier
//   commit  (main only)  merge buffered trace records in (time, key, emit)
//                        order, sample commit-point gauges
//
// Horizon computation.  Let next(p) be partition p's earliest queued event
// and la(s, d) the (s, d) pair lookahead (the minimum virtual latency of
// any channel from s into d; INT64_MAX when they share none).  The earliest
// time partition p could possibly execute *any* event — queued now or
// received later through any chain of peers — is the least fixed point of
//
//   LB(p) = min( next(p),  min over s != p of LB(s) + la(s, p) )
//
// solved exactly by a Dijkstra-style relaxation (all la > 0, so finalising
// the global minimum first is sound).  Partition p may then safely execute
// everything strictly below
//
//   limit(p) = min over s != p of ( LB(s) + la(s, p) )
//
// because any event a peer could still send into p arrives at or beyond
// that bound.  The naive per-pair window `peer_next + la(peer, self)`
// without the fixed point is transitively unsound (a two-hop chain
// s -> m -> p can beat it); the LB relaxation is what makes per-pair
// windows safe.  Progress is guaranteed: the partition holding the global
// minimum event time always has limit > its next event.  With a uniform
// lookahead this degenerates to (at least) the historical global window
// [T, T + la).
//
// Window batching.  When only one partition has executable work below its
// horizon, the main thread runs it inline without releasing the barrier —
// the workers stay parked — which amortises barrier cost across the long
// single-partition stretches that per-pair horizons create.  The batching
// decision is a pure function of queue state, so it cannot depend on the
// worker count.  (A fiber may therefore run on the main thread in one
// window and on its pinned worker in the next; fibers carry no thread
// affinity, the same property the teardown path has always relied on.)
//
// Every side effect that could depend on thread interleaving is confined to
// a partition (queues, fibers, metric lanes, trace buffers) or serialised at
// the barriers (ring drain, trace merge), which is what makes the result
// bit-identical for every worker count.  See docs/parallel_engine.md.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <iterator>
#include <thread>
#include <tuple>

#include "sim/parallel.hpp"

namespace deep::sim {

void Engine::exec_partition_window(Partition& part) {
  ExecScope scope(this, &part);
  try {
    while (!part.queue.empty() && part.queue.next_time() < part.limit)
      dispatch_one(part);
  } catch (...) {
    // Deterministically propagated by the main thread after the barrier
    // (lowest partition id wins); the partition's remaining events stay
    // queued, exactly like a serial run stopping at a throwing event.
    part.error = std::current_exception();
  }
}

bool Engine::run_windowed(TimePoint limit, bool bounded) {
  const std::uint32_t P = partitions();
  if (!par_) par_ = std::make_unique<ParallelState>(*this);
  if (metrics_) metrics_->ensure_lanes(P);
  const std::uint32_t W = std::min(workers_, P);

  // Resolve the effective pair lookahead matrix once per run: explicit pair
  // entries win, the global lookahead fills the rest, and every ordered
  // pair must end up positive (kUnconstrainedLookahead for pairs that share
  // no channel).
  auto& la = par_->eff_la;
  la.assign(static_cast<std::size_t>(P) * P, INT64_MAX);
  for (std::uint32_t s = 0; s < P; ++s) {
    for (std::uint32_t d = 0; d < P; ++d) {
      if (s == d) continue;
      const std::int64_t v = lookahead(s, d).ps;
      DEEP_EXPECT(v > 0,
                  "Engine: multi-partition runs require set_lookahead(> 0) — "
                  "the minimum cross-partition link latency, global or "
                  "per-pair");
      la[static_cast<std::size_t>(s) * P + d] = v;
    }
  }

  // Wall-clock barrier instruments are opt-in: their values depend on the
  // host, so they would break deterministic metric snapshots if always on.
  const bool time_barriers = wallclock_metrics_ && metrics_ != nullptr;
  if (time_barriers && m_barrier_wait_.size() < W) {
    m_barrier_wait_.clear();
    for (std::uint32_t w = 0; w < W; ++w)
      m_barrier_wait_.push_back(
          metrics_->histogram("sim.barrier_wait_ns.w" + std::to_string(w)));
  }

  for (std::uint32_t p = 0; p < P; ++p)
    partition(p).active_tracer = tracer_ ? &par_->tracers[p] : nullptr;
  parallel_run_ = true;

  std::barrier<> sync(static_cast<std::ptrdiff_t>(W));
  std::atomic<bool> stop{false};

  auto barrier_wait = [&](std::uint32_t w) {
    if (!time_barriers) {
      sync.arrive_and_wait();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    sync.arrive_and_wait();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    // Each worker records on its own lane; merged by the registry on read.
    util::LaneGuard lane(w);
    m_barrier_wait_[w].record(ns);
  };

  auto worker_loop = [&](std::uint32_t w) {
    for (;;) {
      barrier_wait(w);  // window published (or stop)
      if (stop.load(std::memory_order_acquire)) return;
      for (std::uint32_t p = w; p < P; p += W)
        exec_partition_window(partition(p));
      barrier_wait(w);  // window complete
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(W > 0 ? W - 1 : 0);
  // Workers inherit the launching thread's session so every pool operation
  // inside the run resolves to this engine's session shard (util/lane.hpp).
  const std::uint32_t session = util::exec_session();
  for (std::uint32_t w = 1; w < W; ++w)
    threads.emplace_back([&worker_loop, session, w] {
      util::SessionGuard in_session(session);
      worker_loop(w);
    });

  auto sat_add = [](std::int64_t a, std::int64_t b) {
    return a > INT64_MAX - b ? INT64_MAX : a + b;
  };

  // Watermark trace flush: each partition's buffered record stream is
  // non-decreasing in t_ps, so every record strictly below the global
  // next-event floor is final.  Emitting those prefixes merged in
  // (t, key, emit) order yields a byte stream that is independent of the
  // worker count AND of the window structure, because the concatenation of
  // the flushed batches is simply the globally sorted record sequence.
  auto flush_traces = [&](std::int64_t floor_ps) {
    if (!tracer_) return;
    auto& scratch = par_->merge_scratch;
    scratch.clear();
    for (std::uint32_t p = 0; p < P; ++p) {
      auto& recs = par_->tracers[p].records();
      std::size_t cut = 0;
      while (cut < recs.size() && recs[cut].t_ps < floor_ps) ++cut;
      if (cut == 0) continue;
      scratch.insert(scratch.end(), std::make_move_iterator(recs.begin()),
                     std::make_move_iterator(recs.begin() +
                                             static_cast<std::ptrdiff_t>(cut)));
      recs.erase(recs.begin(),
                 recs.begin() + static_cast<std::ptrdiff_t>(cut));
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const ParallelState::BufferTracer::Rec& a,
                 const ParallelState::BufferTracer::Rec& b) {
                return std::tie(a.t_ps, a.key, a.emit) <
                       std::tie(b.t_ps, b.key, b.emit);
              });
    for (const auto& rec : scratch) {
      if (rec.is_span)
        tracer_->span(rec.track, rec.name, rec.begin, rec.end, rec.category);
      else
        tracer_->instant(rec.track, rec.name, rec.begin, rec.category);
    }
    scratch.clear();
  };

  auto sample_queue_depth = [&] {
    std::size_t queued = 0;
    for (std::uint32_t p = 0; p < P; ++p) queued += partition(p).queue.size();
    m_queue_depth_.set(static_cast<std::int64_t>(queued));
  };

  auto& next = par_->plan_next;
  auto& lb = par_->plan_lb;
  auto& done = par_->plan_done;

  bool events_remain = false;
  std::exception_ptr proc_error;
  std::exception_ptr fatal;
  bool stopped = false;
  try {
    for (;;) {
      // ---- plan: main thread only, workers parked at the barrier ----
      // Drain the rings in canonical (dst, src) order.  Events carry keys
      // assigned from their *source* partition's stream at push time, so the
      // committed order among simultaneous events is a pure function of the
      // simulation — independent of worker interleaving and of which window
      // carried an event across.
      std::int64_t crossed = 0;
      for (std::uint32_t dst = 0; dst < P; ++dst) {
        Partition& d = partition(dst);
        for (std::uint32_t src = 0; src < P; ++src) {
          if (src == dst) continue;
          par_->ring(src, dst).drain([&](ParallelState::CrossEvent&& ev) {
            DEEP_ASSERT(ev.t >= d.now,
                        "parallel engine: cross-partition event in the past");
            d.queue.push(ev.t, ev.key, EventKind::Callback, nullptr,
                         std::move(ev.fn));
            ++crossed;
          });
        }
      }
      if (crossed != 0) m_cross_events_.add(crossed);

      // First escaped process exception wins, by partition id — a
      // deterministic choice because window contents are deterministic.
      for (std::uint32_t p = 0; p < P; ++p) {
        Partition& part = partition(p);
        if (part.error && !proc_error) proc_error = part.error;
        part.error = nullptr;
      }

      next.assign(P, INT64_MAX);
      std::int64_t t_min = INT64_MAX;
      for (std::uint32_t p = 0; p < P; ++p) {
        Partition& part = partition(p);
        if (part.queue.empty()) continue;
        next[p] = part.queue.next_time().ps;
        t_min = std::min(t_min, next[p]);
      }
      bool have_window = t_min != INT64_MAX && !proc_error;
      if (have_window && bounded && t_min > limit.ps) {
        have_window = false;
        events_remain = true;
      }
      if (!have_window) {
        // Drain the trace buffers: every buffered record is committed, so
        // the flush completes the globally sorted stream.  An erroring run
        // drops its buffered records, like a serial run stopping at a
        // throwing event.
        if (!proc_error) flush_traces(INT64_MAX);
        stop.store(true, std::memory_order_release);
        sync.arrive_and_wait();
        stopped = true;
        break;
      }
      flush_traces(t_min);

      // Min-plus fixed point for the per-partition emission lower bounds,
      // then the safe horizons (see the file comment for the argument).
      lb = next;
      done.assign(P, 0);
      for (std::uint32_t round = 0; round < P; ++round) {
        std::uint32_t u = P;
        std::int64_t best = INT64_MAX;
        for (std::uint32_t p = 0; p < P; ++p)
          if (!done[p] && lb[p] < best) {
            best = lb[p];
            u = p;
          }
        if (u == P) break;  // the rest are unreachable
        done[u] = 1;
        const std::int64_t* row = &la[static_cast<std::size_t>(u) * P];
        for (std::uint32_t q = 0; q < P; ++q) {
          if (done[q] || row[q] == INT64_MAX) continue;
          lb[q] = std::min(lb[q], sat_add(best, row[q]));
        }
      }

      std::uint32_t active = 0;
      std::uint32_t solo = 0;
      for (std::uint32_t p = 0; p < P; ++p) {
        std::int64_t lim = INT64_MAX;
        for (std::uint32_t s = 0; s < P; ++s) {
          const std::int64_t l = la[static_cast<std::size_t>(s) * P + p];
          if (s == p || l == INT64_MAX || lb[s] == INT64_MAX) continue;
          lim = std::min(lim, sat_add(lb[s], l));
        }
        // Bounded runs additionally include events at exactly `limit`
        // (hence the +1 ps exclusive cap).
        if (bounded && lim > limit.ps) lim = sat_add(limit.ps, 1);
        partition(p).limit = TimePoint{lim};
        if (next[p] < lim) {
          ++active;
          solo = p;
        }
      }
      DEEP_ASSERT(active > 0, "parallel engine: no executable partition");
      m_windows_.add(1);
      const std::size_t before = events_executed();

      if (active == 1) {
        // ---- batched window: a single runnable partition; execute it on
        // the main thread with the workers still parked, skipping both
        // barriers.  Pure function of queue state => worker-independent.
        m_solo_windows_.add(1);
        exec_partition_window(partition(solo));
        m_window_events_.record(
            static_cast<std::int64_t>(events_executed() - before));
        sample_queue_depth();
        continue;
      }

      // ---- execute: all workers, partitions pinned p -> worker p % W ----
      barrier_wait(0);
      for (std::uint32_t p = 0; p < P; p += W)
        exec_partition_window(partition(p));
      barrier_wait(0);

      // ---- commit: main thread only ----
      m_window_events_.record(
          static_cast<std::int64_t>(events_executed() - before));
      // Commit-point queue-depth sample (the serial engine decimates by
      // event count instead; both are deterministic).
      sample_queue_depth();
    }
  } catch (...) {
    fatal = std::current_exception();
    if (!stopped) {
      // Workers are parked at the top-of-window barrier; release them into
      // the stop path so join() below cannot deadlock.
      stop.store(true, std::memory_order_release);
      sync.arrive_and_wait();
      stopped = true;
    }
  }
  for (auto& thread : threads) thread.join();

  parallel_run_ = false;
  for (std::uint32_t p = 0; p < P; ++p) partition(p).active_tracer = nullptr;

  if (fatal) std::rethrow_exception(fatal);
  if (proc_error) std::rethrow_exception(proc_error);

  // Align every partition clock to the committed end of the run so post-run
  // now() and scheduling read one consistent time.
  TimePoint final_now = bounded ? limit : TimePoint{};
  for (std::uint32_t p = 0; p < P; ++p)
    if (partition(p).now > final_now) final_now = partition(p).now;
  for (std::uint32_t p = 0; p < P; ++p) {
    Partition& part = partition(p);
    if (part.now < final_now) part.now = final_now;
  }
  return events_remain;
}

}  // namespace deep::sim
