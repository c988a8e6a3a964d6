// Metrics determinism property suite — the pin for the observability layer.
//
// Property: the engine's obs::Registry snapshot is a pure function of
// (workload, seed, fault spec): running the same configuration twice yields
// byte-identical registry JSON, with chaos plans armed and without, and a
// run replays bit-identically against itself (trace + metrics fingerprint).
//
// Cross-checks tie the layer accessors to the registry cells they read, so
// an accessor cannot silently drift from the instrument of the same name.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cbp/transport.hpp"
#include "chaos_rig.hpp"
#include "io/ionet.hpp"
#include "net/crossbar.hpp"
#include "net/dragonfly.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sys/system.hpp"

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

// Runs `workload` twice per seed, snapshots its registry and asserts the
// two snapshots are byte-identical.  `chaos` arms the seed-derived fault
// plan; otherwise the spec is the inert all-defaults one.
void assert_snapshot_determinism(ChaosWorkload workload, bool chaos) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ChaosConfig cfg;
    cfg.seed = seed;
    cfg.workload = workload;
    const net::FaultSpec spec =
        chaos ? make_chaos_spec(seed, cfg) : net::FaultSpec{};

    const ChaosOutcome first = run_chaos(cfg, spec);
    const ChaosOutcome second = run_chaos(cfg, spec);

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

// ---------------------------------------------------------------------------
// Cross-checks: instruments agree with the layers' own statistics.
// ---------------------------------------------------------------------------

TEST(MetricsCrossCheck, FabricInstrumentsMirrorFabricStats) {
  BridgedMpiRig rig(2, 4, 2, cbp::GatewayPolicy::ByPair);
  rig.run([](mpi::Mpi& mpi) {
    apps::StencilConfig sc;
    sc.nx = 32;
    sc.rows = 8;
    sc.iterations = 4;
    apps::run_jacobi(mpi, mpi.world(), sc);
  });

  const obs::Registry& reg = rig.engine().metrics();
  EXPECT_GT(reg.value("sim.events"), 0);
  EXPECT_GT(rig.ib().stats().messages, 0);
  EXPECT_GT(rig.extoll().stats().messages, 0);
  EXPECT_EQ(reg.value("net.ib.messages"), rig.ib().stats().messages);
  EXPECT_EQ(reg.value("net.ib.bytes"), rig.ib().stats().bytes);
  EXPECT_EQ(reg.value("net.extoll.messages"), rig.extoll().stats().messages);
  EXPECT_EQ(reg.value("net.extoll.bytes"), rig.extoll().stats().bytes);
  EXPECT_EQ(reg.value("net.ib.dropped"), rig.ib().stats().messages_dropped);
  EXPECT_EQ(reg.value("net.extoll.dropped"),
            rig.extoll().stats().messages_dropped);
  // Gateways are the nodes after the 2 cluster + 4 booster ranks; each
  // keeps its own count, the registry only the cbp.* total.
  std::int64_t forwarded = 0;
  for (hw::NodeId gw = 6; gw < 8; ++gw)
    forwarded += rig.bridge().gateway_stats(gw).forwarded_messages;
  EXPECT_EQ(reg.value("cbp.forwarded"), forwarded);

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

net::Message raw(hw::NodeId src, hw::NodeId dst, std::int64_t bytes) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  return m;
}

// The counts outside Fabric::stats() that live only in the registry: each
// accessor equals the cell of the same name, on a run where it is nonzero.
TEST(MetricsCrossCheck, LayerAccessorsReadTheirRegistryCells) {
  {  // torus link-level retransmissions
    sim::Engine eng;
    net::TorusParams p;
    p.dims = {2, 2, 2};
    p.packet_error_rate = 0.2;
    net::TorusFabric torus(eng, "t", p);
    for (hw::NodeId n = 0; n < 8; ++n)
      torus.attach(n).bind(net::Port::Raw, [](net::Message&&) {});
    for (hw::NodeId n = 0; n < 8; ++n)
      torus.send(raw(n, 7 - n, 64 << 10), net::Service::Bulk);
    eng.run();
    EXPECT_GT(torus.retransmissions(), 0);
    EXPECT_EQ(torus.retransmissions(),
              eng.metrics().value("net.t.retransmissions"));
  }
  {  // dragonfly Valiant detours (UGAL under an adversarial pattern)
    sim::Engine eng;
    net::DragonflyParams p;
    p.routing = net::DragonflyRouting::Adaptive;
    net::DragonflyFabric df(eng, "df", p);
    const int group = p.routers_per_group * p.nodes_per_router;
    for (hw::NodeId n = 0; n < p.groups * group; ++n)
      df.attach(n).bind(net::Port::Raw, [](net::Message&&) {});
    for (hw::NodeId n = 0; n < group; ++n)
      df.send(raw(n, n + group, 64 << 10), net::Service::Bulk);
    eng.run();
    EXPECT_GT(df.valiant_detours(), 0);
    EXPECT_EQ(df.valiant_detours(),
              eng.metrics().value("net.df.valiant_detours"));
  }
  {  // I/O requests, retries and failures: every request is dropped
    sim::Engine eng;
    net::CrossbarFabric ib(eng, "ib", {});
    cbp::DirectTransport transport(ib);
    io::IoParams p;
    p.max_attempts = 3;
    io::IoNet ionet(eng, transport, p);
    for (hw::NodeId n = 0; n < 2; ++n) ionet.attach(ib.attach(n));
    ib.set_drop_fn([](const net::Message&) { return true; });
    eng.spawn("writer", [&](sim::Context& ctx) {
      EXPECT_FALSE(ionet.transfer(ctx, 0, 1, io::OpKind::BuddyWrite, 64, 0));
    });
    eng.run();
    EXPECT_EQ(ionet.requests(), 3);
    EXPECT_EQ(ionet.retries(), 2);
    EXPECT_EQ(ionet.failures(), 1);
    EXPECT_EQ(ionet.requests(), eng.metrics().value("io.requests"));
    EXPECT_EQ(ionet.retries(), eng.metrics().value("io.retries"));
    EXPECT_EQ(ionet.failures(), eng.metrics().value("io.failures"));
  }
  {  // CBP and MPI losses: the only gateway is down, the frame is abandoned
    BridgedMpiRig rig(1, 1, 1);
    rig.run([&](mpi::Mpi& mpi) {
      if (mpi.rank() != 0) return;
      rig.bridge().set_gateway_up(2, false);
      mpi.send_bytes(mpi.world(), 1, 0, std::vector<std::byte>(8));
    });
    const obs::Registry& reg = rig.engine().metrics();
    EXPECT_EQ(rig.bridge().frames_lost(), 1);
    EXPECT_EQ(rig.bridge().frames_lost(), reg.value("cbp.frames_lost"));
    EXPECT_EQ(rig.system().messages_lost(), 1);
    EXPECT_EQ(rig.system().messages_lost(), reg.value("mpi.messages_lost"));
  }
}

// With metrics off the system publishes no registry, yet every layer still
// counts into the engine's: the report reads the same cells either way.
TEST(MetricsCrossCheck, UnpublishedRegistryStillCounts) {
  sys::SystemConfig cfg;
  cfg.cluster_nodes = 2;
  cfg.booster_nodes = 2;
  cfg.gateways = 1;
  sys::DeepSystem system(cfg);
  ASSERT_EQ(system.metrics(), nullptr);
  system.programs().add("spmv", [](sys::ProgramEnv& env) {
    apps::SpmvConfig sc;
    sc.rows_per_rank = 16;
    sc.band = 4;
    sc.nnz_per_row = 2;
    sc.iterations = 2;
    apps::run_spmv_power(env.mpi, env.mpi.world(), sc);
  });
  system.launch("spmv", 2);
  system.run();
  EXPECT_GT(system.ib().stats().messages, 0);
  EXPECT_EQ(system.ib().stats().messages,
            system.engine().metrics().value("net.infiniband.messages"));
  EXPECT_GT(system.engine().metrics().value("sim.events"), 0);
}

}  // namespace
}  // namespace deep
