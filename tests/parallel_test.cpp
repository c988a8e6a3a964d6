// Parallel (multi-partition) engine tests: conservative-window execution,
// cross-partition event exchange, bit-exact determinism across worker
// counts, and the teardown / deadlock / daemon edge cases that only exist
// once fibers can live on non-main worker threads.
//
// Labelled `parallel` in ctest; scripts/run_chaos.sh runs the label under
// AddressSanitizer alongside the chaos suite.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/stencil.hpp"
#include "net/bridge.hpp"
#include "net/fault.hpp"
#include "net/partition.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/partition.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sys/system.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

#include "chaos_rig.hpp"

namespace ds = deep::sim;
namespace dn = deep::net;
namespace dobs = deep::obs;
namespace du = deep::util;

namespace {

constexpr ds::Duration kUs = ds::from_micros(1);

// ---------------------------------------------------------------------------
// Core windowed execution
// ---------------------------------------------------------------------------

TEST(ParallelEngine, TwoPartitionPingPong) {
  for (const std::uint32_t workers : {1u, 2u}) {
    ds::Engine engine;
    engine.set_partitions(2);
    engine.set_workers(workers);
    engine.set_lookahead(kUs);

    auto counts = std::make_shared<std::array<int, 2>>();
    // Each hop schedules the next one onto the other partition exactly one
    // lookahead ahead — the earliest a conservative exchange can land.
    std::function<void(std::uint32_t, int)> hop = [&](std::uint32_t p,
                                                      int remaining) {
      (*counts)[p] += 1;
      if (remaining == 0) return;
      engine.schedule_on(1 - p, engine.now() + kUs,
                         [&hop, p, remaining] { hop(1 - p, remaining - 1); });
    };
    engine.schedule_on(0, ds::TimePoint{0}, [&hop] { hop(0, 10); });
    engine.run();

    EXPECT_EQ((*counts)[0], 6) << "workers=" << workers;
    EXPECT_EQ((*counts)[1], 5) << "workers=" << workers;
    EXPECT_EQ(engine.now().ps, 10 * kUs.ps) << "workers=" << workers;
  }
}

// A cross-partition event that lands just past the destination's local
// chain, one tick above the lookahead: partition 0 runs a chain at t = 10,
// 20, 30 ps while partition 1, busy at t = 10, sends it an event at t = 16
// from t = 15.  The arrival must slot in between 10 and 20, never be
// rejected as "in the past".
TEST(ParallelEngine, CrossEventJustPastLocalChain) {
  for (const std::uint32_t workers : {1u, 2u}) {
    ds::Engine engine;
    engine.set_partitions(2);
    engine.set_workers(workers);
    engine.set_lookahead(ds::Duration{1});

    int a_events = 0;
    int b_events = 0;
    for (const std::int64_t t : {10, 20, 30})
      engine.schedule_on(0, ds::TimePoint{t}, [&a_events] { ++a_events; });
    engine.schedule_on(1, ds::TimePoint{10}, [&b_events] { ++b_events; });
    engine.schedule_on(1, ds::TimePoint{15}, [&] {
      ++b_events;
      engine.schedule_on(0, ds::TimePoint{16}, [&a_events] { ++a_events; });
    });
    engine.run();

    EXPECT_EQ(a_events, 4) << "workers=" << workers;
    EXPECT_EQ(b_events, 2) << "workers=" << workers;
    EXPECT_EQ(engine.now().ps, 30) << "workers=" << workers;
  }
}

TEST(ParallelEngine, RequiresLookahead) {
  ds::Engine engine;
  engine.set_partitions(2);
  engine.schedule_on(1, ds::TimePoint{0}, [] {});
  EXPECT_THROW(engine.run(), du::UsageError);
}

TEST(ParallelEngine, ProcessesRunOnTheirPartitions) {
  ds::Engine engine;
  engine.set_partitions(3);
  engine.set_workers(3);
  engine.set_lookahead(kUs);

  auto seen = std::make_shared<std::vector<std::uint32_t>>(3, 99u);
  for (std::uint32_t p = 0; p < 3; ++p) {
    engine.spawn_on(p, "proc" + std::to_string(p),
                    [seen, p, &engine](ds::Context& ctx) {
                      ctx.delay(kUs * (p + 1));
                      (*seen)[p] = engine.current_partition();
                    });
  }
  engine.run();
  for (std::uint32_t p = 0; p < 3; ++p) EXPECT_EQ((*seen)[p], p);
}

// A partitioned run with globally unique event times must commit the exact
// trace a serial engine produces for the same schedule.
TEST(ParallelEngine, TraceMatchesSerialByteForByte) {
  const auto build = [](ds::Engine& engine, bool partitioned) {
    for (int i = 0; i < 30; ++i) {
      const ds::TimePoint t{(i + 1) * kUs.ps};
      const std::string name = "ev" + std::to_string(i);
      auto fn = [&engine, t, name] {
        engine.tracer()->instant("test", name, t);
      };
      if (partitioned)
        engine.schedule_on(static_cast<std::uint32_t>(i % 3), t, std::move(fn));
      else
        engine.schedule_at(t, std::move(fn));
    }
  };

  ds::Tracer serial_tracer;
  ds::Engine serial;
  serial.set_tracer(&serial_tracer);
  build(serial, false);
  serial.run();

  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    ds::Tracer tracer;
    ds::Engine engine;
    engine.set_partitions(3);
    engine.set_workers(workers);
    engine.set_lookahead(kUs);
    engine.set_tracer(&tracer);
    build(engine, true);
    engine.run();
    EXPECT_EQ(tracer.to_chrome_json(), serial_tracer.to_chrome_json())
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Edge cases: daemons, wake across a window boundary, teardown, deadlock
// ---------------------------------------------------------------------------

TEST(ParallelEngine, DaemonsAliveAtDrainAreKilledCleanly) {
  auto unwound = std::make_shared<int>(0);
  {
    ds::Engine engine;
    engine.set_partitions(2);
    engine.set_workers(2);
    engine.set_lookahead(kUs);

    for (std::uint32_t p = 0; p < 2; ++p) {
      auto& daemon = engine.spawn_on(p, "daemon" + std::to_string(p),
                                     [unwound](ds::Context& ctx) {
                                       struct Guard {
                                         int* flag;
                                         ~Guard() { ++*flag; }
                                       } guard{unwound.get()};
                                       while (!ctx.killed()) ctx.suspend();
                                     });
      daemon.set_daemon(true);
    }
    engine.spawn_on(1, "worker",
                    [](ds::Context& ctx) { ctx.delay(kUs * 5); });
    engine.run();  // daemons must not count as deadlock
    EXPECT_EQ(engine.now().ps, 5 * kUs.ps);
  }
  // Engine destruction unwinds both daemon fibers — including the one whose
  // fiber last ran on a non-main worker thread.
  EXPECT_EQ(*unwound, 2);
}

// A wake that crosses partitions must travel as a cross-partition event; a
// wake arriving while the target sleeps is remembered, so the following
// suspend() collapses (returns immediately).
TEST(ParallelEngine, CrossBoundaryWakeDuringSleepCollapses) {
  ds::Engine engine;
  engine.set_partitions(2);
  engine.set_workers(2);
  engine.set_lookahead(kUs);

  auto done_ps = std::make_shared<std::int64_t>(-1);
  auto& sleeper = engine.spawn_on(1, "sleeper",
                                  [done_ps](ds::Context& ctx) {
                                    ctx.delay(kUs * 10);
                                    ctx.suspend();  // wake already pending
                                    *done_ps = ctx.now().ps;
                                  });
  // Partition 0 pokes the sleeper mid-sleep through a bridged event that
  // runs on the sleeper's own partition (wake() is partition-local).
  engine.schedule_on(0, ds::TimePoint{kUs.ps}, [&engine, &sleeper] {
    engine.schedule_on(1, engine.now() + kUs, [&sleeper] { sleeper.wake(); });
  });
  engine.run();
  EXPECT_EQ(*done_ps, 10 * kUs.ps);
}

TEST(ParallelEngine, TeardownWithLiveFibersOnNonMainWorkers) {
  auto unwound = std::make_shared<int>(0);
  {
    ds::Engine engine;
    engine.set_partitions(4);
    engine.set_workers(4);
    engine.set_lookahead(kUs);
    for (std::uint32_t p = 0; p < 4; ++p) {
      auto& proc = engine.spawn_on(p, "stuck" + std::to_string(p),
                                   [unwound](ds::Context& ctx) {
                                     struct Guard {
                                       int* flag;
                                       ~Guard() { ++*flag; }
                                     } guard{unwound.get()};
                                     ctx.delay(kUs);
                                     while (!ctx.killed()) ctx.suspend();
                                   });
      proc.set_daemon(true);
    }
    // Bounded run: every fiber has started (and parked) on its worker.
    engine.run_until(ds::TimePoint{5 * kUs.ps});
    EXPECT_EQ(*unwound, 0);
  }
  EXPECT_EQ(*unwound, 4);
}

TEST(ParallelEngine, DeadlockReportNamesPartitionedProcess) {
  ds::Engine engine;
  engine.set_partitions(2);
  engine.set_workers(2);
  engine.set_lookahead(kUs);
  engine.spawn_on(1, "stuck-consumer", [](ds::Context& ctx) {
    ctx.delay(kUs);
    ctx.suspend();  // nobody ever wakes us
  });
  try {
    engine.run();
    FAIL() << "expected a deadlock report";
  } catch (const du::SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-consumer"), std::string::npos) << what;
    EXPECT_NE(what.find("p1:"), std::string::npos) << what;
  }
}

TEST(ParallelEngine, ProcessExceptionPropagatesDeterministically) {
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    ds::Engine engine;
    engine.set_partitions(4);
    engine.set_workers(workers);
    engine.set_lookahead(kUs);
    // Two partitions throw in the same window; the lowest partition id must
    // win regardless of worker interleaving.
    for (const std::uint32_t p : {3u, 1u}) {
      engine.schedule_on(p, ds::TimePoint{kUs.ps}, [p] {
        throw std::runtime_error("boom from p" + std::to_string(p));
      });
    }
    try {
      engine.run();
      FAIL() << "expected the process exception to escape";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom from p1") << "workers=" << workers;
    }
  }
}

// ---------------------------------------------------------------------------
// Bridge fabric: partition-aware delivery
// ---------------------------------------------------------------------------

struct IslandRig {
  explicit IslandRig(std::uint32_t partitions, std::uint32_t workers,
                     dobs::Registry* registry = nullptr) {
    engine.set_partitions(partitions);
    engine.set_workers(workers);
    if (registry != nullptr) engine.set_metrics(registry);
    bridge = std::make_unique<dn::BridgeFabric>(engine, "cb-bridge",
                                                dn::BridgeParams{});
    engine.set_lookahead(bridge->lookahead());
    for (std::uint32_t p = 0; p < partitions; ++p)
      bridge->attach_in(p, p);  // node id == partition id
  }

  ds::Engine engine;
  std::unique_ptr<dn::BridgeFabric> bridge;
};

TEST(BridgeFabric, DeliversAcrossPartitions) {
  IslandRig rig(2, 2);
  auto delivered = std::make_shared<std::vector<std::int64_t>>();
  rig.bridge->nic(1).bind(dn::Port::Raw, [&rig, delivered](dn::Message&&) {
    delivered->push_back(rig.engine.now().ps);
  });
  rig.engine.schedule_on(0, ds::TimePoint{0}, [&rig] {
    dn::Message msg;
    msg.src = 0;
    msg.dst = 1;
    msg.size_bytes = 4096;
    rig.bridge->send(std::move(msg), dn::Service::Bulk);
  });
  rig.engine.run();

  ASSERT_EQ(delivered->size(), 1u);
  const auto expected =
      (rig.bridge->serialisation(4096) + rig.bridge->params().latency).ps;
  EXPECT_EQ((*delivered)[0], expected);
  EXPECT_EQ(rig.bridge->stats().messages, 1);
  EXPECT_EQ(rig.bridge->stats().bytes, 4096);
}

TEST(BridgeFabric, LookaheadIsPositiveAndMatchesLatency) {
  ds::Engine engine;
  dn::BridgeFabric bridge(engine, "b", dn::BridgeParams{});
  EXPECT_GT(bridge.lookahead().ps, 0);
  EXPECT_EQ(bridge.lookahead().ps, bridge.params().latency.ps);
}

/// Runs a 4-island all-to-neighbour exchange and returns its fingerprint
/// (trace bytes + metrics JSON + final scalars).
std::string run_island_exchange(std::uint32_t workers) {
  dobs::Registry registry;
  ds::Tracer tracer;
  IslandRig rig(4, workers, &registry);
  rig.engine.set_tracer(&tracer);

  auto received = std::make_shared<std::array<int, 4>>();
  constexpr int kRounds = 8;
  for (std::uint32_t n = 0; n < 4; ++n) {
    rig.bridge->nic(n).bind(
        dn::Port::Raw, [&rig, received, n](dn::Message&& msg) {
          (*received)[n] += 1;
          // Bounce smaller replies until the budget runs out; replies run on
          // the receiving island's partition and re-enter the bridge there.
          if (msg.size_bytes <= 256) return;
          dn::Message reply;
          reply.src = n;
          reply.dst = msg.src;
          reply.size_bytes = msg.size_bytes / 2;
          rig.bridge->send(std::move(reply), dn::Service::Bulk);
        });
  }
  for (std::uint32_t n = 0; n < 4; ++n) {
    for (int r = 0; r < kRounds; ++r) {
      rig.engine.schedule_on(n, ds::TimePoint{(r + 1) * kUs.ps}, [&rig, n, r] {
        dn::Message msg;
        msg.src = n;
        msg.dst = (n + 1 + static_cast<std::uint32_t>(r) % 3) % 4;
        msg.size_bytes = 1024 << (r % 3);
        rig.bridge->send(std::move(msg), dn::Service::Bulk);
      });
    }
  }
  rig.engine.run();

  std::string fp = tracer.to_chrome_json();
  fp += "|" + registry.to_json();
  fp += "|" + std::to_string(rig.engine.now().ps);
  fp += "|" + std::to_string(rig.engine.events_executed());
  const dn::FabricStats stats = rig.bridge->stats();
  fp += "|" + std::to_string(stats.messages) + "," +
        std::to_string(stats.bytes) + "," +
        std::to_string(stats.delivery_us.count()) + "," +
        std::to_string(stats.delivery_us.mean());
  for (int n = 0; n < 4; ++n) fp += "," + std::to_string((*received)[n]);
  return fp;
}

// The tentpole acceptance check: traces, metrics snapshots and every scalar
// outcome are byte-identical for every worker count.
TEST(ParallelDeterminism, IslandExchangeIdenticalAcrossWorkerCounts) {
  const std::string baseline = run_island_exchange(1);
  EXPECT_NE(baseline.find("cb-bridge"), std::string::npos);
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    EXPECT_EQ(run_island_exchange(workers), baseline)
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Chaos rig sweep: the full bridged MPI system must be insensitive to the
// workers knob (it is single-partition, so this guards the serial path too).
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, ChaosRigInsensitiveToWorkers) {
  namespace dt = deep::testing;
  for (const std::uint64_t seed : {3ull, 17ull}) {
    dt::ChaosConfig cfg;
    cfg.seed = seed;
    cfg.workload = dt::ChaosWorkload::Stencil;
    const auto spec = dt::make_chaos_spec(seed, cfg);

    cfg.workers = 1;
    const std::string baseline =
        dt::run_chaos(cfg, spec, /*with_metrics=*/true).fingerprint();
    for (const int workers : {2, 4, 8}) {
      cfg.workers = workers;
      EXPECT_EQ(dt::run_chaos(cfg, spec, true).fingerprint(), baseline)
          << "seed=" << seed << " workers=" << workers;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-pair lookahead: engine API, window widening, horizon clamps
// ---------------------------------------------------------------------------

TEST(PairLookahead, FallsBackToGlobalUntilSet) {
  ds::Engine engine;
  engine.set_partitions(3);
  engine.set_lookahead(kUs);
  EXPECT_EQ(engine.lookahead(0, 1).ps, kUs.ps);
  engine.set_lookahead(0, 1, kUs * 7);
  EXPECT_EQ(engine.lookahead(0, 1).ps, 7 * kUs.ps);
  EXPECT_EQ(engine.lookahead(1, 0).ps, kUs.ps) << "other direction untouched";
  EXPECT_EQ(engine.lookahead(2, 1).ps, kUs.ps) << "unset pair untouched";
  engine.set_lookahead(2, 1, ds::kUnconstrainedLookahead);
  EXPECT_EQ(engine.lookahead(2, 1).ps, ds::kUnconstrainedLookahead.ps);
}

/// Runs a 3-partition chain (0 -> 1 -> 2, messages at +10 us) and returns
/// the number of safe windows the engine needed.  With the global 1 us
/// lookahead every partition advances in 1 us hops; with the true per-pair
/// matrix (10 us along the chain, unconstrained elsewhere) the same
/// simulation needs far fewer windows.
std::int64_t run_chain_windows(bool per_pair, std::uint32_t workers) {
  dobs::Registry registry;
  ds::Engine engine;
  engine.set_metrics(&registry);
  engine.set_partitions(3);
  engine.set_workers(workers);
  engine.set_lookahead(kUs);
  const ds::Duration hop = kUs * 10;
  if (per_pair) {
    engine.set_lookahead(0, 1, hop);
    engine.set_lookahead(1, 2, hop);
    const std::pair<std::uint32_t, std::uint32_t> unconstrained[] = {
        {0, 2}, {1, 0}, {2, 0}, {2, 1}};
    for (const auto& [s, d] : unconstrained)
      engine.set_lookahead(s, d, ds::kUnconstrainedLookahead);
  }
  auto count = std::make_shared<int>(0);
  for (int i = 0; i < 40; ++i) {
    engine.schedule_on(0, ds::TimePoint{(i + 1) * hop.ps}, [&engine, hop,
                                                            count] {
      engine.schedule_on(1, engine.now() + hop, [&engine, hop, count] {
        engine.schedule_on(2, engine.now() + hop, [count] { ++*count; });
      });
    });
  }
  engine.run();
  EXPECT_EQ(*count, 40);
  return registry.value("sim.windows") + registry.value("sim.solo_windows");
}

TEST(PairLookahead, UnconstrainedPairsWidenWindows) {
  const std::int64_t tight = run_chain_windows(false, 2);
  const std::int64_t wide = run_chain_windows(true, 2);
  EXPECT_LT(wide, tight / 2)
      << "per-pair matrix should need far fewer windows than the global "
         "1 us lookahead (got " << wide << " vs " << tight << ")";
  // The window count is part of the deterministic outcome: worker count
  // must not change it.
  EXPECT_EQ(run_chain_windows(true, 1), wide);
  EXPECT_EQ(run_chain_windows(true, 4), wide);
}

TEST(PairLookahead, ScheduleOnAfterClampsToHorizon) {
  for (const std::uint32_t workers : {1u, 2u}) {
    ds::Engine engine;
    engine.set_partitions(2);
    engine.set_workers(workers);
    engine.set_lookahead(kUs);
    auto ran_ps = std::make_shared<std::int64_t>(-1);
    engine.schedule_on(0, ds::TimePoint{kUs.ps}, [&engine, ran_ps] {
      // "now" is below partition 1's horizon; the engine must move the
      // event up to the horizon instead of violating the window invariant.
      engine.schedule_on_after(1, engine.now(), [&engine, ran_ps] {
        *ran_ps = engine.now().ps;
      });
    });
    engine.run();
    EXPECT_GE(*ran_ps, kUs.ps) << "workers=" << workers;
  }
}

TEST(PairLookahead, SoloActivePartitionBatchesWithoutBarriers) {
  dobs::Registry registry;
  ds::Engine engine;
  engine.set_metrics(&registry);
  engine.set_partitions(2);
  engine.set_workers(2);
  engine.set_lookahead(kUs);
  // Only partition 0 ever has events: every window is a solo window and the
  // engine batches them on the calling thread.
  auto count = std::make_shared<int>(0);
  std::function<void(int)> chain = [&](int remaining) {
    ++*count;
    if (remaining > 0)
      engine.schedule_at(engine.now() + kUs, [&chain, remaining] {
        chain(remaining - 1);
      });
  };
  engine.schedule_on(0, ds::TimePoint{0}, [&chain] { chain(50); });
  engine.run();
  EXPECT_EQ(*count, 51);
  EXPECT_GT(registry.value("sim.solo_windows"), 0);
  EXPECT_GT(registry.value("sim.window_events"), 0);
}

// ---------------------------------------------------------------------------
// Topology-driven partitioning: partition_graph, auto_partition, fabric
// lookahead matrices
// ---------------------------------------------------------------------------

TEST(PartitionGraph, BalancedContiguousAndDeterministic) {
  // 6x6 grid graph.
  ds::PartitionGraph g;
  g.vertices = 36;
  for (std::size_t y = 0; y < 6; ++y) {
    for (std::size_t x = 0; x < 6; ++x) {
      if (x + 1 < 6) g.edges.push_back({y * 6 + x, y * 6 + x + 1});
      if (y + 1 < 6) g.edges.push_back({y * 6 + x, (y + 1) * 6 + x});
    }
  }
  const auto block = ds::partition_graph(g, 4);
  ASSERT_EQ(block.size(), 36u);
  std::array<int, 4> sizes{};
  for (const std::uint32_t b : block) {
    ASSERT_LT(b, 4u);
    sizes[b] += 1;
  }
  for (const int s : sizes) EXPECT_EQ(s, 9) << "balanced blocks";
  EXPECT_EQ(ds::partition_graph(g, 4), block) << "deterministic";
  // parts == 1 assigns everything to block 0.
  for (const std::uint32_t b : ds::partition_graph(g, 1)) EXPECT_EQ(b, 0u);
  EXPECT_THROW(ds::partition_graph(g, 37), du::UsageError);
}

TEST(PartitionGraph, DisconnectedGraphStillCovered) {
  ds::PartitionGraph g;
  g.vertices = 10;  // no edges at all
  const auto block = ds::partition_graph(g, 3);
  std::array<int, 3> sizes{};
  for (const std::uint32_t b : block) sizes[b] += 1;
  EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 10);
  for (const int s : sizes) EXPECT_GE(s, 3);
}

TEST(AutoPartition, TorusBlocksBalancedAndLookaheadTracksDistance) {
  ds::Engine engine;
  engine.set_partitions(5);
  dn::TorusParams tp;
  tp.dims = {6, 6, 6};
  dn::TorusFabric torus(engine, "t", tp);
  for (int n = 0; n < 200; ++n) torus.attach(n);

  dn::AutoPartitionOptions opts;
  opts.first_partition = 1;
  const auto assignment = dn::auto_partition(torus, 4, opts);
  ASSERT_EQ(assignment.size(), 200u);
  std::array<int, 5> sizes{};
  for (const auto& [node, part] : assignment) {
    EXPECT_EQ(torus.partition_of(node), part);
    ASSERT_GE(part, 1u);
    ASSERT_LE(part, 4u);
    sizes[part] += 1;
  }
  for (int p = 1; p <= 4; ++p) EXPECT_EQ(sizes[p], 50) << "p=" << p;

  // Pair lookaheads: never below the uniform bound, and unconstrained on
  // the diagonal.  The uniform lookahead() equals the 0-distance pair form.
  const ds::Duration base = torus.lookahead();
  for (std::uint32_t p = 1; p <= 4; ++p) {
    EXPECT_EQ(torus.lookahead(p, p).ps, ds::kUnconstrainedLookahead.ps);
    for (std::uint32_t q = 1; q <= 4; ++q) {
      if (p == q) continue;
      EXPECT_GE(torus.lookahead(p, q).ps, base.ps)
          << "pair (" << p << "," << q << ")";
      EXPECT_LT(torus.lookahead(p, q).ps, ds::kUnconstrainedLookahead.ps);
    }
  }
  // Partition 0 has no torus nodes: unconstrained in both directions.
  EXPECT_EQ(torus.lookahead(0, 1).ps, ds::kUnconstrainedLookahead.ps);
  EXPECT_EQ(torus.lookahead(1, 0).ps, ds::kUnconstrainedLookahead.ps);
}

/// Raw-traffic torus workload fingerprint: every node ticks and sends to a
/// rotating neighbour; returns (events, final time, receive count).
std::string run_torus_traffic(ds::Engine& engine, dn::TorusFabric& torus,
                              int nodes) {
  auto received = std::make_shared<std::atomic<std::int64_t>>(0);
  for (int n = 0; n < nodes; ++n) {
    torus.nic(n).bind(dn::Port::Raw, [received](dn::Message&&) {
      received->fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (int n = 0; n < nodes; ++n) {
    const std::uint32_t part = torus.partition_of(n);
    for (int r = 0; r < 6; ++r) {
      engine.schedule_on(part, ds::TimePoint{(r + 1) * kUs.ps},
                         [&torus, n, r, nodes] {
                           dn::Message msg;
                           msg.src = n;
                           msg.dst = (n + 1 + 7 * r) % nodes;
                           msg.size_bytes = 256 << (r % 3);
                           torus.send(std::move(msg), dn::Service::Bulk);
                         });
    }
  }
  engine.run();
  return std::to_string(engine.events_executed()) + "|" +
         std::to_string(engine.now().ps) + "|" +
         std::to_string(received->load()) + "|" +
         std::to_string(torus.stats().messages) + "," +
         std::to_string(torus.stats().bytes);
}

// The auto-partitioner must be pure topology analysis: applying its
// assignment manually (set_node_partition + install_pair_lookahead) yields
// the byte-identical simulation.
TEST(AutoPartition, MatchesManualAssignment) {
  constexpr int kNodes = 120;
  const auto build = [](ds::Engine& engine, dn::TorusFabric& torus) {
    engine.set_partitions(4);
    engine.set_workers(2);
    for (int n = 0; n < kNodes; ++n) torus.attach(n);
  };
  dn::TorusParams tp;
  tp.dims = {5, 5, 5};

  std::vector<std::pair<deep::hw::NodeId, std::uint32_t>> assignment;
  std::string auto_fp;
  {
    ds::Engine engine;
    dn::TorusFabric torus(engine, "t", tp);
    build(engine, torus);
    assignment = dn::auto_partition(torus, 4);
    dn::install_pair_lookahead(engine, {&torus});
    auto_fp = run_torus_traffic(engine, torus, kNodes);
  }
  {
    ds::Engine engine;
    dn::TorusFabric torus(engine, "t", tp);
    build(engine, torus);
    for (const auto& [node, part] : assignment)
      torus.set_node_partition(node, part);
    dn::install_pair_lookahead(engine, {&torus});
    EXPECT_EQ(run_torus_traffic(engine, torus, kNodes), auto_fp);
  }
}

TEST(AutoPartition, PinnedNodesStayPut) {
  ds::Engine engine;
  engine.set_partitions(3);
  dn::TorusParams tp;
  tp.dims = {4, 4, 4};
  dn::TorusFabric torus(engine, "t", tp);
  for (int n = 0; n < 40; ++n) torus.attach(n);
  dn::AutoPartitionOptions opts;
  opts.first_partition = 1;
  opts.pinned = {37, 38, 39};
  opts.pin_to = 0;
  dn::auto_partition(torus, 2, opts);
  for (const deep::hw::NodeId n : {37, 38, 39})
    EXPECT_EQ(torus.partition_of(n), 0u);
  for (int n = 0; n < 37; ++n) {
    EXPECT_GE(torus.partition_of(n), 1u);
    EXPECT_LE(torus.partition_of(n), 2u);
  }
}

TEST(FaultPlan, RequiresSinglePartitionEngine) {
  ds::Engine engine;
  engine.set_partitions(2);
  engine.set_lookahead(kUs);
  dn::TorusParams tp;
  dn::TorusFabric torus(engine, "t", tp);
  torus.attach(0);
  torus.attach(1);
  dn::FaultSpec spec;
  spec.drop_probability = 0.01;
  dn::FaultPlan plan(engine, spec);
  plan.attach(torus);
  EXPECT_THROW(plan.arm(), du::UsageError);
}

// ---------------------------------------------------------------------------
// DeepSystem partitioning: config guards and full-stack determinism
// ---------------------------------------------------------------------------

TEST(DeepSystemPartitions, ConfigGuards) {
  namespace dsy = deep::sys;
  {
    dsy::SystemConfig cfg;
    cfg.partitions = 3;
    cfg.faults.drop_probability = 0.01;
    EXPECT_THROW(dsy::DeepSystem{cfg}, du::UsageError);
  }
  {
    dsy::SystemConfig cfg;
    cfg.partitions = 3;
    cfg.bridge.policy = deep::cbp::GatewayPolicy::RoundRobin;
    EXPECT_THROW(dsy::DeepSystem{cfg}, du::UsageError);
  }
  {
    dsy::SystemConfig cfg;
    cfg.booster_nodes = 4;
    cfg.partitions = 6;  // more torus blocks than booster nodes
    EXPECT_THROW(dsy::DeepSystem{cfg}, du::UsageError);
  }
}

/// Full-stack spawn workload on a partitioned DeepSystem; returns the
/// outcome fingerprint (job completion time, virtual end time, energy).
std::string run_deep_system(int partitions, int workers) {
  namespace dsy = deep::sys;
  namespace dm = deep::mpi;
  dsy::SystemConfig cfg;
  cfg.cluster_nodes = 4;
  cfg.booster_nodes = 16;
  cfg.gateways = 2;
  cfg.partitions = partitions;
  cfg.workers = workers;
  dsy::DeepSystem system(cfg);

  constexpr dm::Tag kTag = 77;
  system.programs().add("hscp", [](dsy::ProgramEnv& env) {
    // One allreduce across the booster world plus a report to the parent.
    const double v[1] = {1.0 + env.mpi.rank()};
    double sum[1];
    env.mpi.allreduce<double>(env.mpi.world(), dm::Op::Sum,
                              std::span<const double>(v),
                              std::span<double>(sum));
    if (env.mpi.rank() == 0) {
      env.mpi.send<double>(*env.mpi.parent(), 0, kTag,
                           std::span<const double>(sum));
    }
  });
  auto result = std::make_shared<double>(0);
  system.programs().add("main", [result](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, 8);
    double res[1];
    env.mpi.recv<double>(inter, 0, kTag, std::span<double>(res));
    *result = res[0];
  });
  dsy::JobHandle job = system.launch("main", 1);
  system.run();
  EXPECT_TRUE(job.done());
  EXPECT_DOUBLE_EQ(*result, 8 * 9 / 2.0);  // sum over 8 ranks of (1 + rank)
  return std::to_string(system.engine().now().ps) + "|" +
         std::to_string(job.finished_at().ps) + "|" +
         std::to_string(system.engine().events_executed()) + "|" +
         std::to_string(system.energy().total_joules());
}

TEST(DeepSystemPartitions, SpawnedJobIdenticalAcrossWorkers) {
  const std::string baseline = run_deep_system(3, 1);
  for (const int workers : {2, 4}) {
    EXPECT_EQ(run_deep_system(3, workers), baseline) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Paper-scale sweeps: 128 CN + 384 BN Global-MPI machine, fingerprints
// identical over workers x {chaos on, chaos off}
// ---------------------------------------------------------------------------

/// One paper-scale bridged stencil run on a partitioned rig; fingerprint
/// covers the metrics registry, fabric stats and the final scalars.
std::string run_paper_scale(int partitions, std::uint32_t workers) {
  namespace dt = deep::testing;
  dobs::Registry registry;
  dt::BridgedMpiRig rig(128, 384, 4, deep::cbp::GatewayPolicy::ByPair, {}, {},
                        &registry, partitions);
  rig.engine().set_workers(workers);
  rig.launch([](deep::mpi::Mpi& mpi) {
    deep::apps::StencilConfig sc;
    sc.nx = 32;
    sc.rows = 8;
    sc.iterations = 1;
    deep::apps::run_jacobi(mpi, mpi.world(), sc);
  });
  rig.engine().run();
  const dn::FabricStats ib = rig.ib().stats();
  const dn::FabricStats ex = rig.extoll().stats();
  return registry.to_json() + "|" + std::to_string(rig.engine().now().ps) +
         "|" + std::to_string(rig.engine().events_executed()) + "|" +
         std::to_string(ib.messages) + "," + std::to_string(ib.bytes) + "|" +
         std::to_string(ex.messages) + "," + std::to_string(ex.bytes);
}

TEST(PaperScale, BridgedStencilIdenticalAcrossWorkers) {
  // Partitioned run (4 torus blocks + cluster side), chaos off.
  const std::string baseline = run_paper_scale(5, 1);
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    EXPECT_EQ(run_paper_scale(5, workers), baseline) << "workers=" << workers;
  }
}

TEST(PaperScale, ChaosSweepIdenticalAcrossWorkers) {
  namespace dt = deep::testing;
  // Chaos requires the single-partition engine (shared fault state); the
  // sweep still runs the full worker range over the paper-scale machine.
  dt::ChaosConfig cfg;
  cfg.seed = 29;
  cfg.cluster_ranks = 128;
  cfg.booster_ranks = 384;
  cfg.gateways = 4;
  cfg.workload = dt::ChaosWorkload::Stencil;
  cfg.iterations = 1;
  const auto spec = dt::make_chaos_spec(cfg.seed, cfg);

  cfg.workers = 1;
  const std::string baseline =
      dt::run_chaos(cfg, spec, /*with_metrics=*/true).fingerprint();
  for (const int workers : {2, 4, 8}) {
    cfg.workers = workers;
    EXPECT_EQ(dt::run_chaos(cfg, spec, true).fingerprint(), baseline)
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Low-lookahead cross traffic: declared bound far below the real latency
// ---------------------------------------------------------------------------

/// Dense cross-partition control traffic over `partitions` partitions with
/// the pair lookahead pinned at 1/100 of the tick, far below the actual
/// cross latency of `delay_ticks` ticks, so the conservative horizon
/// advances in small steps and most windows carry several partitions.
/// Returns the full fingerprint (trace bytes + metrics JSON + scalars).
std::string run_low_lookahead_traffic(std::uint32_t partitions,
                                      std::uint32_t workers, int delay_ticks) {
  constexpr int kChains = 2;
  constexpr std::int64_t kTickPs = kUs.ps;
  constexpr int kTicks = 120;

  dobs::Registry registry;
  ds::Tracer tracer;
  ds::Engine engine;
  engine.set_metrics(&registry);
  engine.set_tracer(&tracer);
  engine.set_partitions(partitions);
  engine.set_workers(workers);
  for (std::uint32_t s = 0; s < partitions; ++s)
    for (std::uint32_t d = 0; d < partitions; ++d)
      if (s != d) engine.set_lookahead(s, d, ds::Duration{kTickPs / 100});

  const dobs::Counter checksum = registry.counter("test.checksum");
  // Raw-pointer capture: a shared_ptr capture would form an ownership cycle
  // (vector -> function -> vector) and leak; the vector outlives engine.run.
  auto ticks = std::make_unique<std::vector<std::function<void()>>>(
      static_cast<std::size_t>(partitions) * kChains);
  auto* tickp = ticks.get();
  for (std::uint32_t p = 0; p < partitions; ++p) {
    for (int c = 0; c < kChains; ++c) {
      const std::size_t slot = static_cast<std::size_t>(p) * kChains + c;
      (*ticks)[slot] = [&engine, checksum, tickp, partitions, delay_ticks, p,
                        slot] {
        const std::int64_t now_ps = engine.now().ps;
        const std::int64_t tick = now_ps / kTickPs;
        checksum.add((now_ps / 1000 + static_cast<std::int64_t>(slot)) %
                     1009);
        if (tick % 10 == 0)
          engine.tracer()->instant("traffic", "tick" + std::to_string(slot),
                                   engine.now());
        const std::uint32_t dst =
            (p + 1 + static_cast<std::uint32_t>(tick) % (partitions - 1)) %
            partitions;
        const std::int64_t seed = now_ps + static_cast<std::int64_t>(p);
        engine.schedule_on(dst, ds::TimePoint{now_ps + delay_ticks * kTickPs},
                           [checksum, seed] { checksum.add(seed % 997); });
        if (tick < kTicks)
          engine.schedule_at(engine.now() + ds::Duration{kTickPs},
                             (*tickp)[slot]);
      };
      engine.schedule_on(p, ds::TimePoint{kTickPs}, (*ticks)[slot]);
    }
  }
  engine.run();
  return tracer.to_chrome_json() + "|" + registry.to_json() + "|" +
         std::to_string(engine.now().ps) + "|" +
         std::to_string(engine.events_executed());
}

// Trace bytes, the metrics registry and every scalar are identical at every
// worker count, both for a generous 8-tick latency and for a tight 2-tick
// one where arrivals land just past the receiver's local chain.
TEST(ParallelDeterminism, LowLookaheadCrossTrafficIdenticalAcrossWorkers) {
  for (const int delay_ticks : {8, 2}) {
    const std::string baseline = run_low_lookahead_traffic(4, 1, delay_ticks);
    for (const std::uint32_t workers : {2u, 4u}) {
      EXPECT_EQ(run_low_lookahead_traffic(4, workers, delay_ticks), baseline)
          << "workers=" << workers << " delay_ticks=" << delay_ticks;
    }
  }
}

// ---------------------------------------------------------------------------
// Building blocks: lane-sharded metrics and Summary::merge
// ---------------------------------------------------------------------------

TEST(ParallelObs, RegistryMergesLanes) {
  dobs::Registry registry;
  auto counter = registry.counter("test.counter");
  auto hist = registry.histogram("test.hist");
  registry.ensure_lanes(3);

  counter.add(1);  // lane 0
  hist.record(10);
  for (std::uint32_t lane = 1; lane < 3; ++lane) {
    du::LaneGuard guard(lane);
    counter.add(10 * lane);
    hist.record(100 * lane);
  }

  EXPECT_EQ(registry.value("test.counter"), 31);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
}

TEST(ParallelObs, SummaryMergeMatchesSequential) {
  ds::Summary all, a, b, empty;
  for (int i = 1; i <= 10; ++i) {
    all.add(i * 1.5);
    (i <= 4 ? a : b).add(i * 1.5);
  }
  ds::Summary merged;
  merged.merge(a);
  merged.merge(empty);
  merged.merge(b);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_DOUBLE_EQ(merged.mean(), all.mean());
  EXPECT_DOUBLE_EQ(merged.min(), all.min());
  EXPECT_DOUBLE_EQ(merged.max(), all.max());
  EXPECT_NEAR(merged.stddev(), all.stddev(), 1e-9);
}

}  // namespace
