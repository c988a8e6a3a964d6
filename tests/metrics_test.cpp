// Metrics determinism property suite — the pin for the observability layer.
//
// Property: attaching an obs::Registry never perturbs a run, and the
// snapshot it produces is a pure function of (workload, seed, fault spec):
// running the same configuration twice yields byte-identical registry JSON,
// with chaos plans armed and without.  A registry-attached run must also
// replay bit-identically against itself (trace + metrics fingerprint).
//
// Cross-checks tie the instruments back to the layers' own counters so the
// metrics cannot silently drift from the quantities they claim to measure.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chaos_rig.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace deep {
namespace {

using testing::BridgedMpiRig;
using testing::ChaosConfig;
using testing::ChaosOutcome;
using testing::ChaosWorkload;
using testing::make_chaos_spec;
using testing::run_chaos;

constexpr int kSeeds = 8;

const char* workload_name(ChaosWorkload w) {
  switch (w) {
    case ChaosWorkload::Stencil:
      return "stencil";
    case ChaosWorkload::Spmv:
      return "spmv";
    case ChaosWorkload::NBody:
      return "nbody";
  }
  return "?";
}

// Runs `workload` twice per seed with a registry attached and asserts the
// two snapshots are byte-identical.  `chaos` arms the seed-derived fault
// plan; otherwise the spec is the inert all-defaults one.
void assert_snapshot_determinism(ChaosWorkload workload, bool chaos) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ChaosConfig cfg;
    cfg.seed = seed;
    cfg.workload = workload;
    const net::FaultSpec spec =
        chaos ? make_chaos_spec(seed, cfg) : net::FaultSpec{};

    const ChaosOutcome first = run_chaos(cfg, spec, /*with_metrics=*/true);
    const ChaosOutcome second = run_chaos(cfg, spec, /*with_metrics=*/true);

    ASSERT_FALSE(first.metrics.empty())
        << workload_name(workload) << " seed " << seed;
    EXPECT_EQ(first.metrics, second.metrics)
        << workload_name(workload) << " seed " << seed << (chaos ? " (chaos)" : "")
        << ": metric snapshots diverged between identical runs";
    // The full fingerprint (trace + metrics + scalars) must also replay.
    EXPECT_EQ(first.fingerprint(), second.fingerprint())
        << workload_name(workload) << " seed " << seed;

    // Every run instruments the core layers: the snapshot must mention them.
    for (const char* name :
         {"sim.events", "net.ib.messages", "net.extoll.messages",
          "cbp.forwarded", "mpi.eager_sends", "mpi.wait_ns"}) {
      EXPECT_NE(first.metrics.find(name), std::string::npos)
          << "snapshot lost instrument " << name;
    }
  }
}

TEST(MetricsDeterminism, StencilCleanRuns) {
  assert_snapshot_determinism(ChaosWorkload::Stencil, /*chaos=*/false);
}

TEST(MetricsDeterminism, StencilUnderChaos) {
  assert_snapshot_determinism(ChaosWorkload::Stencil, /*chaos=*/true);
}

TEST(MetricsDeterminism, SpmvCleanRuns) {
  assert_snapshot_determinism(ChaosWorkload::Spmv, /*chaos=*/false);
}

TEST(MetricsDeterminism, SpmvUnderChaos) {
  assert_snapshot_determinism(ChaosWorkload::Spmv, /*chaos=*/true);
}

// Attaching the registry must not change the simulation itself: the trace
// and scalar outcome of a metrics-on run equal those of a metrics-off run.
TEST(MetricsDeterminism, RegistryAttachmentDoesNotPerturbTheRun) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ChaosConfig cfg;
    cfg.seed = seed;
    cfg.workload = ChaosWorkload::Stencil;
    const net::FaultSpec spec = make_chaos_spec(seed, cfg);

    ChaosOutcome with = run_chaos(cfg, spec, /*with_metrics=*/true);
    const ChaosOutcome without = run_chaos(cfg, spec, /*with_metrics=*/false);
    with.metrics.clear();  // only the metrics field may differ
    EXPECT_EQ(with.fingerprint(), without.fingerprint())
        << "seed " << seed << ": metrics collection changed the simulation";
  }
}

// ---------------------------------------------------------------------------
// Cross-checks: instruments agree with the layers' own statistics.
// ---------------------------------------------------------------------------

TEST(MetricsCrossCheck, FabricInstrumentsMirrorFabricStats) {
  obs::Registry reg;
  BridgedMpiRig rig(2, 4, 2, cbp::GatewayPolicy::ByPair, {}, {}, &reg);
  rig.run([](mpi::Mpi& mpi) {
    apps::StencilConfig sc;
    sc.nx = 32;
    sc.rows = 8;
    sc.iterations = 4;
    apps::run_jacobi(mpi, mpi.world(), sc);
  });

  EXPECT_GT(reg.value("sim.events"), 0);
  EXPECT_EQ(reg.value("net.ib.messages"), rig.ib().stats().messages);
  EXPECT_EQ(reg.value("net.ib.bytes"), rig.ib().stats().bytes);
  EXPECT_EQ(reg.value("net.extoll.messages"), rig.extoll().stats().messages);
  EXPECT_EQ(reg.value("net.extoll.bytes"), rig.extoll().stats().bytes);
  EXPECT_EQ(reg.value("net.ib.dropped"), rig.ib().stats().messages_dropped);
  // Gateways are the nodes after the 2 cluster + 4 booster ranks.
  std::int64_t forwarded = 0;
  for (hw::NodeId gw = 6; gw < 8; ++gw)
    forwarded += rig.bridge().gateway_stats(gw).forwarded_messages;
  EXPECT_EQ(reg.value("cbp.forwarded"), forwarded);

  const auto& m = rig.system().metrics();
  ASSERT_TRUE(m.eager_sends.attached());
  ASSERT_TRUE(m.msg_bytes.attached());
  EXPECT_EQ(reg.value("mpi.msg_bytes"),
            reg.value("mpi.eager_sends") + reg.value("mpi.rendezvous_sends"));
  EXPECT_GT(reg.value("mpi.msg_bytes"), 0);
  // Per-endpoint wait histograms fold into the system-wide aggregate: the
  // aggregate count is the sum over endpoints.
  std::int64_t per_ep = 0;
  for (int ep = 0; ep < 8; ++ep)
    per_ep += reg.value("mpi.wait_ns.ep" + std::to_string(ep));
  EXPECT_EQ(reg.value("mpi.wait_ns"), per_ep);
}

TEST(MetricsCrossCheck, DetachedSystemRecordsNothing) {
  BridgedMpiRig rig(2, 2, 1);  // no registry attached
  rig.run([](mpi::Mpi& mpi) {
    apps::SpmvConfig sc;
    sc.rows_per_rank = 16;
    sc.band = 4;
    sc.nnz_per_row = 2;
    sc.iterations = 2;
    apps::run_spmv_power(mpi, mpi.world(), sc);
  });
  EXPECT_FALSE(rig.system().metrics().eager_sends.attached());
  EXPECT_FALSE(rig.system().metrics().wait_ns.attached());
  EXPECT_GT(rig.ib().stats().messages + rig.extoll().stats().messages, 0)
      << "the run itself must still have exchanged messages";
}

}  // namespace
}  // namespace deep
