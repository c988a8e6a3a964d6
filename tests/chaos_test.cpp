// Chaos tests: randomized, seeded fault plans against real workloads.
//
// Two properties are asserted:
//   1. Determinism — the same (workload, seed) pair replays bit-identically:
//      the Chrome trace JSON and every counter match across repeat runs.
//   2. Resilience — no silent hangs: every run either completes, surfaces
//      MpiErrors, or produces a deterministic deadlock report naming the
//      blocked ranks.  Crafted plans additionally pin down each fault
//      scenario (link drop, gateway timeout+retry, failover, surfaced MPI
//      error) individually.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos_rig.hpp"
#include "net/fattree.hpp"

namespace deep {
namespace {

using testing::ChaosConfig;
using testing::ChaosOutcome;
using testing::ChaosWorkload;
using testing::make_chaos_spec;
using testing::run_chaos;

constexpr std::int64_t kUs = 1'000'000;  // ps per us
constexpr int kSweepSeeds = 32;

// ---------------------------------------------------------------------------
// Seeded sweep: same seed => bit-identical outcome (run twice), and across
// the sweep every run ends in a well-defined state.
// ---------------------------------------------------------------------------

struct SweepTotals {
  std::int64_t drops = 0;
  std::int64_t retries = 0;
  std::int64_t failovers = 0;
  std::int64_t timeouts = 0;
  std::int64_t errors = 0;
  int completed = 0;
  int deadlocked = 0;
};

SweepTotals sweep(ChaosWorkload workload) {
  SweepTotals totals;
  for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    ChaosConfig cfg;
    cfg.seed = seed;
    cfg.workload = workload;
    const net::FaultSpec spec = make_chaos_spec(seed, cfg);

    const ChaosOutcome first = run_chaos(cfg, spec);
    const ChaosOutcome second = run_chaos(cfg, spec);
    EXPECT_EQ(first.fingerprint(), second.fingerprint())
        << "seed " << seed << " did not replay bit-identically";
    EXPECT_FALSE(first.trace.empty()) << "seed " << seed;

    // Well-defined end state: finished, erred, or a diagnosed deadlock.
    EXPECT_TRUE(first.completed || first.mpi_errors > 0 || first.deadlocked)
        << "seed " << seed << " ended in limbo";
    if (first.deadlocked) {
      EXPECT_NE(first.deadlock_report.find("still blocked"),
                std::string::npos)
          << first.deadlock_report;
    }

    totals.drops += first.fabric_drops;
    totals.retries += first.gateway_retries;
    totals.failovers += first.gateway_failovers;
    totals.timeouts += first.gateway_timeouts;
    totals.errors += first.mpi_errors;
    totals.completed += first.completed ? 1 : 0;
    totals.deadlocked += first.deadlocked ? 1 : 0;
  }
  return totals;
}

TEST(ChaosSweep, StencilDeterministicAcross32Seeds) {
  const SweepTotals t = sweep(ChaosWorkload::Stencil);
  // The sweep must actually exercise the fault machinery, not tiptoe around
  // it: drops and retries have to show up somewhere across 32 seeds.
  EXPECT_GT(t.drops, 0);
  EXPECT_GT(t.retries, 0);
  // And some runs must still finish: the sweep is not all destruction.
  EXPECT_GT(t.completed, 0);
}

TEST(ChaosSweep, SpmvDeterministicAcross32Seeds) {
  const SweepTotals t = sweep(ChaosWorkload::Spmv);
  EXPECT_GT(t.drops, 0);
  EXPECT_GT(t.retries, 0);
  EXPECT_GT(t.completed, 0);
}

TEST(ChaosSweep, NBodySmokeDeterministic) {
  // Smaller sweep: nbody is the heaviest workload.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ChaosConfig cfg;
    cfg.seed = seed;
    cfg.workload = ChaosWorkload::NBody;
    const net::FaultSpec spec = make_chaos_spec(seed, cfg);
    const ChaosOutcome first = run_chaos(cfg, spec);
    const ChaosOutcome second = run_chaos(cfg, spec);
    EXPECT_EQ(first.fingerprint(), second.fingerprint()) << "seed " << seed;
    EXPECT_TRUE(first.completed || first.mpi_errors > 0 || first.deadlocked);
  }
}

// ---------------------------------------------------------------------------
// Crafted plans: each required fault scenario, pinned down individually.
// ---------------------------------------------------------------------------

// Scenario 1: a dead torus link drops messages (and the run stays
// deterministic).  The link between the first two boosters dies early and
// never heals; stencil halo exchange crosses it every iteration.
TEST(ChaosScenario, LinkDropIsObservedAndDeterministic) {
  ChaosConfig cfg;
  cfg.workload = ChaosWorkload::Stencil;
  net::FaultSpec spec;
  spec.seed = 7;
  // Boosters are nodes 2..5 (cluster_ranks = 2): kill link bn0-bn1 early.
  spec.links.push_back({sim::TimePoint{30 * kUs}, 2, 3, false});

  const ChaosOutcome out = run_chaos(cfg, spec);
  const ChaosOutcome replay = run_chaos(cfg, spec);
  EXPECT_EQ(out.fingerprint(), replay.fingerprint());
  EXPECT_GT(out.fabric_drops, 0) << "dead link never dropped anything";
  // A permanently dead link inside the halo ring cannot complete silently.
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.mpi_errors > 0 || out.deadlocked);
}

// Scenario 2: a gateway that goes down mid-run forces frames to time out at
// the dead board and be retried; with a second healthy gateway the retry
// fails over and the workload still completes.
TEST(ChaosScenario, GatewayTimeoutRetriesAndFailsOver) {
  ChaosConfig cfg;
  cfg.workload = ChaosWorkload::Stencil;
  cfg.iterations = 20;  // keep cross traffic flowing across the flap window
  cfg.bridge.max_retries = 10;  // ample budget: the run must still complete
  net::FaultSpec spec;
  spec.seed = 11;
  // Anti-phase flapping: gateways 6 and 7 alternate being up every 4 us, so
  // every cross send finds exactly one healthy gateway -- and any frame
  // whose 1.5 us IB flight crosses the next edge arrives at a board that
  // just died: timeout, retry, fail-over to the one that just came up.
  for (std::int64_t t = 10 * kUs; t < 200 * kUs; t += 8 * kUs) {
    spec.gateways.push_back({sim::TimePoint{t}, 7, false});
    spec.gateways.push_back({sim::TimePoint{t}, 6, true});
    spec.gateways.push_back({sim::TimePoint{t + 4 * kUs}, 6, false});
    spec.gateways.push_back({sim::TimePoint{t + 4 * kUs}, 7, true});
  }
  spec.gateways.push_back({sim::TimePoint{200 * kUs}, 6, true});
  spec.gateways.push_back({sim::TimePoint{200 * kUs}, 7, true});

  const ChaosOutcome out = run_chaos(cfg, spec);
  const ChaosOutcome replay = run_chaos(cfg, spec);
  EXPECT_EQ(out.fingerprint(), replay.fingerprint());
  EXPECT_GT(out.gateway_timeouts, 0) << "no frame found the dead gateway";
  EXPECT_GT(out.gateway_retries, 0);
  EXPECT_GT(out.gateway_failovers, 0)
      << "retries never switched to the surviving gateway";
  EXPECT_TRUE(out.completed) << "failover should have saved this run";
}

// Scenario 3: with Pinned gateway selection there is no failover, so a pair
// whose pinned gateway dies exhausts its retries and the loss surfaces as
// an MPI error (never a hang).
TEST(ChaosScenario, ExhaustedRetriesSurfaceAsMpiError) {
  ChaosConfig cfg;
  cfg.workload = ChaosWorkload::Stencil;
  cfg.policy = cbp::GatewayPolicy::Pinned;
  cfg.gateways = 1;
  cfg.iterations = 20;  // guarantees cross traffic after the kill
  cfg.bridge.retry_timeout = sim::from_micros(5);
  cfg.bridge.max_retries = 3;
  net::FaultSpec spec;
  spec.seed = 13;
  // The single gateway is node 6; it dies mid-run and stays dead.
  spec.gateways.push_back({sim::TimePoint{20 * kUs}, 6, false});

  const ChaosOutcome out = run_chaos(cfg, spec);
  const ChaosOutcome replay = run_chaos(cfg, spec);
  EXPECT_EQ(out.fingerprint(), replay.fingerprint());
  EXPECT_FALSE(out.completed);
  EXPECT_GT(out.frames_lost, 0) << "retries never exhausted";
  EXPECT_GT(out.messages_lost, 0) << "losses never reached the MPI layer";
  // The run ends, one way or the other: ranks that saw the error bailed
  // out, ranks waiting on them are reported as a deadlock — no limbo.
  EXPECT_TRUE(out.mpi_errors > 0 || out.deadlocked);
  EXPECT_GT(out.final_ps, 0);
}

// Scenario 4: probabilistic drops on the wire exercise drop + retry + loss
// surfacing all at once, and stay bit-reproducible.
TEST(ChaosScenario, ProbabilisticDropsAreDeterministic) {
  ChaosConfig cfg;
  cfg.workload = ChaosWorkload::Spmv;
  net::FaultSpec spec;
  spec.seed = 17;
  spec.drop_probability = 0.02;

  const ChaosOutcome out = run_chaos(cfg, spec);
  const ChaosOutcome replay = run_chaos(cfg, spec);
  EXPECT_EQ(out.fingerprint(), replay.fingerprint());
  EXPECT_GT(out.injected_drops, 0);
  EXPECT_EQ(out.injected_drops, out.fabric_drops);
  EXPECT_TRUE(out.completed || out.mpi_errors > 0 || out.deadlocked);
}

// Different seeds must actually produce different fault plans (otherwise
// the sweep is 32 copies of one run).
TEST(ChaosScenario, DifferentSeedsDiffer) {
  ChaosConfig cfg;
  int distinct = 0;
  std::string previous;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const ChaosOutcome out = run_chaos(cfg, make_chaos_spec(seed, cfg));
    if (out.fingerprint() != previous) ++distinct;
    previous = out.fingerprint();
  }
  EXPECT_GT(distinct, 4);
}

// A FaultPlan drives a FatTreeFabric exactly like the flat fabrics: link
// events toggle NIC access on schedule, the probabilistic drop hook fires
// per traversal, and the combination replays bit-identically.
TEST(ChaosScenario, FaultPlanComposesWithFatTree) {
  auto run = []() {
    sim::Engine eng;
    net::FatTreeParams p;
    p.leaf_radix = 4;
    p.uplinks = 4;
    net::FatTreeFabric tree(eng, "ft", p);
    int arrived = 0;
    for (int n = 0; n < 8; ++n) {
      net::Nic& nic = tree.attach(n);
      nic.bind(net::Port::Raw, [&](net::Message&&) { ++arrived; });
    }

    net::FaultSpec spec;
    spec.seed = 4242;
    spec.drop_probability = 0.25;
    // Node 2's NIC flaps: down over [10 us, 30 us).
    spec.links.push_back({sim::TimePoint{10 * kUs}, 2, 2, false});
    spec.links.push_back({sim::TimePoint{30 * kUs}, 2, 2, true});
    net::FaultPlan plan(eng, spec);
    plan.attach(tree);
    plan.arm();

    // Steady traffic across the outage window: a same-leaf and a
    // cross-leaf flow from the flapping node plus an unaffected pair.
    for (int i = 0; i < 25; ++i) {
      eng.schedule_at(sim::TimePoint{i * 2 * kUs}, [&tree] {
        auto send = [&tree](int src, int dst) {
          net::Message m;
          m.src = src;
          m.dst = dst;
          m.size_bytes = 64;
          m.port = net::Port::Raw;
          tree.send(std::move(m), net::Service::Small);
        };
        send(2, 3);  // same leaf
        send(2, 6);  // via the spine
        send(1, 5);  // never faulted (probabilistic drops only)
      });
    }
    eng.run();
    return std::tuple<int, std::int64_t, std::int64_t>(
        arrived, tree.stats().messages_dropped, plan.injected_drops());
  };

  const auto [arrived, dropped, injected] = run();
  const auto [arrived2, dropped2, injected2] = run();
  // Bit-identical replay of the composed plan.
  EXPECT_EQ(arrived, arrived2);
  EXPECT_EQ(dropped, dropped2);
  EXPECT_EQ(injected, injected2);
  // Both fault mechanisms fired: the link outage drops more than the
  // probability hook alone accounts for, and some traffic still got
  // through.
  EXPECT_GT(injected, 0);
  EXPECT_GT(dropped, injected);
  EXPECT_GT(arrived, 0);
  EXPECT_EQ(arrived + static_cast<int>(dropped), 75);
}

// ---------------------------------------------------------------------------
// Flow sequencing: one rank with many peers, reordering and a lost number.
// ---------------------------------------------------------------------------

// Rank 0 (cluster) trades alternating tiny (eager) and large (rendezvous)
// messages with 12 booster ranks through 3 round-robin gateways, so its
// per-peer flow table grows entry by entry while messages overtake each
// other.  Ranks 5 and 9 each send one extra eager message that is dropped
// on its post-gateway leg: the MPI layer punches the hole with
// note_lost_seq.  Rank 5 then pauses, so the hole is reached with nothing
// parked behind it; rank 9's later messages may overtake it.  Every flow
// must stay FIFO, only the lost messages' receives fail, and nothing stays
// parked.
TEST(FlowSequencing, ManyPeersReorderedWithLostSeqStayFifo) {
  constexpr int kPeers = 12;
  constexpr int kMsgs = 8;
  constexpr int kQuietLossy = 5;  // pauses after its lost message
  constexpr int kBusyLossy = 9;   // sends straight on
  constexpr mpi::Tag kLostTag = 7;
  testing::BridgedMpiRig rig(1, kPeers, 3, cbp::GatewayPolicy::RoundRobin);
  int dropped = 0;
  rig.ib().set_drop_fn([&](const net::Message& m) {
    const auto* h = net::wire_header(m);
    if (m.port != net::Port::Mpi || h == nullptr || h->tag != kLostTag)
      return false;
    ++dropped;
    return true;
  });
  const auto message = [](int i) {
    return std::vector<int>(i % 2 == 0 ? 1 : 8192, i);
  };
  int lost_recv_errors = 0;
  std::vector<mpi::EpId> endpoints;
  rig.run([&](mpi::Mpi& mpi) {
    const auto& world = mpi.world();
    std::vector<int> in(8192);
    if (mpi.rank() == 0) {
      for (int r = 0; r < world.size(); ++r)
        endpoints.push_back(world.addr_of(r).ep);
      for (int i = 0; i < kMsgs; ++i)
        for (int p = 1; p <= kPeers; ++p)
          mpi.send<int>(world, p, 0, std::span<const int>(message(i)));
      for (int p = 1; p <= kPeers; ++p) {
        for (int i = 0; i < kMsgs; ++i) {
          mpi.recv<int>(world, p, 0, std::span<int>(in));
          ASSERT_EQ(in[0], i) << "flow " << p << " -> 0 out of order";
        }
      }
      for (const int p : {kQuietLossy, kBusyLossy}) {
        try {
          mpi.recv<int>(world, p, kLostTag, std::span<int>(in));
        } catch (const mpi::MpiError&) {
          ++lost_recv_errors;
        }
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        mpi.recv<int>(world, 0, 0, std::span<int>(in));
        ASSERT_EQ(in[0], i) << "flow 0 -> " << mpi.rank() << " out of order";
      }
      for (int i = 0; i < kMsgs; ++i) {
        const bool quiet = mpi.rank() == kQuietLossy;
        if ((quiet || mpi.rank() == kBusyLossy) && i == kMsgs / 2) {
          const int lost = -1;
          mpi.send<int>(world, 0, kLostTag, std::span<const int>(&lost, 1));
          // Let the messages before the hole land first.
          if (quiet) mpi.ctx().delay(sim::microseconds(200));
        }
        mpi.send<int>(world, 0, 0, std::span<const int>(message(i)));
      }
    }
  });
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(lost_recv_errors, 2);
  EXPECT_EQ(rig.system().messages_lost(), 2);
  ASSERT_EQ(endpoints.size(), static_cast<std::size_t>(kPeers + 1));
  EXPECT_GT(rig.system().endpoint(endpoints[0]).lifetime_parked(), 0u)
      << "the gateways never reordered rank 0's inbound traffic";
  for (const mpi::EpId ep : endpoints)
    EXPECT_EQ(rig.system().endpoint(ep).parked_count(), 0u);
}

}  // namespace
}  // namespace deep
