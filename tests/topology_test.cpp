// Topology suite (label: topology): the dragonfly booster fabric, adaptive
// routing determinism on both the dragonfly and the fat-tree, fault
// composition (global-link kills reroute, full cuts drop), topology
// selection through SystemConfig / JobSpec, and pinned, worker-count
// invariant outcomes of partitioned runs on all three booster fabrics.
// docs/topologies.md is the narrative companion.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/dragonfly.hpp"
#include "net/fattree.hpp"
#include "net/fault.hpp"
#include "sim/engine.hpp"
#include "svc/json.hpp"
#include "svc/session.hpp"
#include "sys/config.hpp"
#include "sys/system.hpp"
#include "util/error.hpp"

namespace dn = deep::net;
namespace ds = deep::sim;
namespace dsv = deep::svc;
namespace dsy = deep::sys;

namespace {

constexpr std::int64_t sim_us(std::int64_t n) { return n * 1'000'000; }

dn::Message mk(deep::hw::NodeId src, deep::hw::NodeId dst, std::int64_t size) {
  dn::Message m;
  m.src = src;
  m.dst = dst;
  m.size_bytes = size;
  return m;
}

/// Default dragonfly (g=4, a=4, p=2 — 32 nodes), all attached and counting.
struct DragonflyRig {
  ds::Engine eng;
  dn::DragonflyParams params;
  dn::DragonflyFabric fabric;
  int delivered = 0;
  ds::TimePoint last{};

  explicit DragonflyRig(dn::DragonflyRouting routing = dn::DragonflyRouting::Minimal)
      : fabric(eng, "df",
               [&] {
                 dn::DragonflyParams p;
                 p.routing = routing;
                 return p;
               }()) {
    params = fabric.params();
    const int nodes =
        params.groups * params.routers_per_group * params.nodes_per_router;
    for (int n = 0; n < nodes; ++n)
      fabric.attach(n).bind(dn::Port::Raw, [this](dn::Message&&) {
        ++delivered;
        last = eng.now();
      });
  }

  int group_nodes() const {
    return params.routers_per_group * params.nodes_per_router;
  }
  /// Kills the global link between `g1` and `g2` (by router representatives).
  void kill_global(int g1, int g2) {
    const int r1 = g1 * params.routers_per_group + fabric.global_host(g1, g2);
    const int r2 = g2 * params.routers_per_group + fabric.global_host(g2, g1);
    fabric.set_link_up(fabric.representative(r1), fabric.representative(r2),
                       false);
  }
};

/// The adversarial pattern: every group-0 node sends 64 KiB to its peer in
/// group 1 (all flows want the same global link under minimal routing).
void send_adversarial(DragonflyRig& rig) {
  for (int n = 0; n < rig.group_nodes(); ++n)
    rig.fabric.send(mk(n, n + rig.group_nodes(), 64 * 1024),
                    dn::Service::Bulk);
}

}  // namespace

// ---------------------------------------------------------------------------
// Dragonfly structure
// ---------------------------------------------------------------------------

TEST(Dragonfly, StructureAndHops) {
  DragonflyRig rig;
  const int p = rig.params.nodes_per_router;
  const int a = rig.params.routers_per_group;
  // Nodes fill router 0, then router 1, ... (attach order).
  EXPECT_EQ(rig.fabric.router_of(0), 0);
  EXPECT_EQ(rig.fabric.router_of(p - 1), 0);
  EXPECT_EQ(rig.fabric.router_of(p), 1);
  EXPECT_EQ(rig.fabric.group_of(0), 0);
  EXPECT_EQ(rig.fabric.group_of(a * p), 1);
  // Minimal routers visited: 1 same router, 2 same group, up to 4 cross.
  EXPECT_EQ(rig.fabric.hops(0, 1), 1);        // same router
  EXPECT_EQ(rig.fabric.hops(0, p), 2);        // same group, next router
  EXPECT_GE(rig.fabric.hops(0, a * p), 2);    // cross group
  EXPECT_LE(rig.fabric.hops(0, a * p), 4);
  EXPECT_TRUE(rig.fabric.crosses_global(0, a * p));
  EXPECT_FALSE(rig.fabric.crosses_global(0, p));
  // The representative is the lowest node on the router.
  EXPECT_EQ(rig.fabric.representative(0), 0);
  EXPECT_EQ(rig.fabric.representative(1), p);
}

TEST(Dragonfly, DeliversWithMinimalTiming) {
  DragonflyRig rig;
  // Same-router: adapter + 1 router + wire + adapter.
  rig.fabric.send(mk(0, 1, 1024), dn::Service::Bulk);
  rig.eng.run();
  ASSERT_EQ(rig.delivered, 1);
  const auto expect = rig.params.adapter_latency * 2 +
                      rig.params.router_latency +
                      rig.fabric.serialisation(1024, false);
  EXPECT_EQ(rig.last.ps, expect.ps);
}

TEST(Dragonfly, LookaheadLowerBoundsDelivery) {
  DragonflyRig rig;
  const auto bound = rig.fabric.lookahead();
  EXPECT_EQ(bound.ps,
            (rig.params.adapter_latency + rig.params.router_latency).ps);
  // Every delivery (any pair, any size) arrives at or after the bound.
  rig.fabric.send(mk(0, 1, 0), dn::Service::Control);
  rig.fabric.send(mk(0, rig.group_nodes(), 0), dn::Service::Bulk);
  rig.eng.run();
  EXPECT_EQ(rig.delivered, 2);
  EXPECT_GE(rig.last.ps, bound.ps);
}

// ---------------------------------------------------------------------------
// Adaptive (UGAL) routing: determinism and behaviour
// ---------------------------------------------------------------------------

TEST(Dragonfly, AdaptiveMatchesMinimalWhenUncongested) {
  // A single message sees idle links everywhere: UGAL must stay minimal and
  // deliver at exactly the minimal-path time.
  std::int64_t at[2] = {0, 0};
  for (const auto routing :
       {dn::DragonflyRouting::Minimal, dn::DragonflyRouting::Adaptive}) {
    DragonflyRig rig(routing);
    rig.fabric.send(mk(0, rig.group_nodes(), 4096), dn::Service::Bulk);
    rig.eng.run();
    EXPECT_EQ(rig.delivered, 1);
    at[routing == dn::DragonflyRouting::Adaptive ? 1 : 0] = rig.last.ps;
    EXPECT_EQ(rig.fabric.valiant_detours(), 0);
  }
  EXPECT_EQ(at[0], at[1]);
}

TEST(Dragonfly, AdaptiveSpreadsAdversarialTraffic) {
  std::int64_t minimal_ps = 0, adaptive_ps = 0;
  {
    DragonflyRig rig(dn::DragonflyRouting::Minimal);
    send_adversarial(rig);
    rig.eng.run();
    EXPECT_EQ(rig.delivered, rig.group_nodes());
    minimal_ps = rig.last.ps;
    EXPECT_EQ(rig.fabric.valiant_detours(), 0);
  }
  {
    DragonflyRig rig(dn::DragonflyRouting::Adaptive);
    send_adversarial(rig);
    rig.eng.run();
    EXPECT_EQ(rig.delivered, rig.group_nodes());
    adaptive_ps = rig.last.ps;
    EXPECT_GT(rig.fabric.valiant_detours(), 0);
  }
  // UGAL detours spread the flows over the other groups' global links.
  EXPECT_LT(adaptive_ps, minimal_ps);
}

TEST(Dragonfly, AdaptiveReplaysBitIdentically) {
  // The UGAL decision keys only on the simulated link-busy table, so two
  // in-process runs of the same pattern are indistinguishable.
  std::int64_t last_ps = -1;
  std::int64_t detours = -1;
  std::size_t events = 0;
  for (int run = 0; run < 2; ++run) {
    DragonflyRig rig(dn::DragonflyRouting::Adaptive);
    send_adversarial(rig);
    rig.eng.run();
    if (run == 0) {
      last_ps = rig.last.ps;
      detours = rig.fabric.valiant_detours();
      events = rig.eng.events_executed();
    } else {
      EXPECT_EQ(rig.last.ps, last_ps);
      EXPECT_EQ(rig.fabric.valiant_detours(), detours);
      EXPECT_EQ(rig.eng.events_executed(), events);
    }
  }
}

// ---------------------------------------------------------------------------
// Faults: path diversity, full cuts, FaultPlan composition
// ---------------------------------------------------------------------------

TEST(Dragonfly, GlobalLinkKillReroutesWithoutDrops) {
  std::int64_t first_ps = -1;
  for (int run = 0; run < 2; ++run) {
    DragonflyRig rig;  // minimal routing: reroute is pure fault fallback
    rig.kill_global(0, 1);
    send_adversarial(rig);
    rig.eng.run();
    EXPECT_EQ(rig.delivered, rig.group_nodes());
    EXPECT_EQ(rig.fabric.stats().messages_dropped, 0);
    EXPECT_GT(rig.fabric.valiant_detours(), 0);
    if (run == 0)
      first_ps = rig.last.ps;
    else
      EXPECT_EQ(rig.last.ps, first_ps);  // reroutes replay bit-identically
  }
}

TEST(Dragonfly, FullGlobalCutDrops) {
  DragonflyRig rig;
  // Cut every global link out of group 0: no candidate path survives.
  for (int g = 1; g < rig.params.groups; ++g) rig.kill_global(0, g);
  rig.fabric.send(mk(0, rig.group_nodes(), 1024), dn::Service::Bulk);
  rig.eng.run();
  EXPECT_EQ(rig.delivered, 0);
  EXPECT_EQ(rig.fabric.stats().messages_dropped, 1);
  // Intra-group traffic is untouched.
  rig.fabric.send(mk(0, 1, 1024), dn::Service::Bulk);
  rig.eng.run();
  EXPECT_EQ(rig.delivered, 1);
}

TEST(Dragonfly, HealedLinkRestoresMinimalRouting) {
  DragonflyRig rig;
  rig.kill_global(0, 1);
  const int r1 = 0 * rig.params.routers_per_group + rig.fabric.global_host(0, 1);
  const int r2 = 1 * rig.params.routers_per_group + rig.fabric.global_host(1, 0);
  rig.fabric.set_link_up(rig.fabric.representative(r1),
                         rig.fabric.representative(r2), true);
  EXPECT_EQ(rig.fabric.links_down(), 0);
  rig.fabric.send(mk(0, rig.group_nodes(), 1024), dn::Service::Bulk);
  rig.eng.run();
  EXPECT_EQ(rig.delivered, 1);
  EXPECT_EQ(rig.fabric.valiant_detours(), 0);  // back on the minimal path
}

TEST(Dragonfly, FaultPlanKillHealWindowIsDeterministic) {
  // A FaultPlan link event against the dragonfly composes exactly like the
  // torus: traffic inside the kill window reroutes, traffic after the heal
  // goes minimal, and the whole schedule replays bit-identically.
  std::int64_t first_ps = -1;
  std::int64_t first_detours = -1;
  for (int run = 0; run < 2; ++run) {
    DragonflyRig rig;
    dn::FaultSpec spec;
    const int r1 =
        0 * rig.params.routers_per_group + rig.fabric.global_host(0, 1);
    const int r2 =
        1 * rig.params.routers_per_group + rig.fabric.global_host(1, 0);
    const deep::hw::NodeId a = rig.fabric.representative(r1);
    const deep::hw::NodeId b = rig.fabric.representative(r2);
    spec.links.push_back({ds::TimePoint{sim_us(10)}, a, b, false});
    spec.links.push_back({ds::TimePoint{sim_us(50)}, a, b, true});
    dn::FaultPlan plan(rig.eng, spec);
    plan.attach(rig.fabric);
    plan.arm();
    // One cross-group message before, one inside, one after the window.
    rig.fabric.send(mk(0, rig.group_nodes(), 1024), dn::Service::Bulk);
    rig.eng.schedule_at(ds::TimePoint{sim_us(20)}, [&rig] {
      rig.fabric.send(mk(1, 1 + rig.group_nodes(), 1024), dn::Service::Bulk);
    });
    rig.eng.schedule_at(ds::TimePoint{sim_us(60)}, [&rig] {
      rig.fabric.send(mk(2, 2 + rig.group_nodes(), 1024), dn::Service::Bulk);
    });
    rig.eng.run();
    EXPECT_EQ(rig.delivered, 3);  // the in-window message rerouted, not lost
    EXPECT_EQ(rig.fabric.stats().messages_dropped, 0);
    EXPECT_GT(rig.fabric.valiant_detours(), 0);
    if (run == 0) {
      first_ps = rig.last.ps;
      first_detours = rig.fabric.valiant_detours();
    } else {
      EXPECT_EQ(rig.last.ps, first_ps);
      EXPECT_EQ(rig.fabric.valiant_detours(), first_detours);
    }
  }
}

// ---------------------------------------------------------------------------
// Fat-tree adaptive routing
// ---------------------------------------------------------------------------

namespace {

/// 16 nodes over 2 leaves, all sending cross-leaf; returns completion ps.
std::int64_t fattree_collisions(dn::FatTreeRouting routing) {
  ds::Engine eng;
  dn::FatTreeParams p;
  p.leaf_radix = 8;
  p.uplinks = 8;
  p.routing = routing;
  dn::FatTreeFabric t(eng, "ft", p);
  ds::TimePoint last{};
  for (int n = 0; n < 16; ++n)
    t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) { last = eng.now(); });
  for (int n = 0; n < 16; ++n)
    t.send(mk(n, (n + 8) % 16, 256 * 1024), dn::Service::Bulk);
  eng.run();
  return last.ps;
}

}  // namespace

TEST(FatTree, AdaptiveBeatsEcmpUnderCollisions) {
  const std::int64_t ecmp = fattree_collisions(dn::FatTreeRouting::Ecmp);
  const std::int64_t adaptive = fattree_collisions(dn::FatTreeRouting::Adaptive);
  // Least-loaded plane selection round-robins the 8 flows per leaf over the
  // 8 planes (perfect balance); the static hash collides (birthday effect).
  EXPECT_LT(adaptive, ecmp);
  // And it replays bit-identically.
  EXPECT_EQ(adaptive, fattree_collisions(dn::FatTreeRouting::Adaptive));
}

TEST(FatTree, AdaptiveMatchesEcmpWhenUncongested) {
  for (const auto first : {dn::FatTreeRouting::Ecmp, dn::FatTreeRouting::Adaptive}) {
    ds::Engine eng;
    dn::FatTreeParams p;
    p.routing = first;
    dn::FatTreeFabric t(eng, "ft", p);
    ds::TimePoint last{};
    for (int n = 0; n < 16; ++n)
      t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) { last = eng.now(); });
    t.send(mk(0, 9, 4096), dn::Service::Bulk);  // one idle cross-leaf flow
    eng.run();
    // Same three-switch path time whatever the plane: the choice cannot
    // change an uncongested delivery.
    const auto expect = p.adapter_latency * 2 + p.switch_latency * 3 +
                        t.serialisation(4096);
    EXPECT_EQ(last.ps, expect.ps);
  }
}

// ---------------------------------------------------------------------------
// Topology selection: SystemConfig, JobSpec, sessions
// ---------------------------------------------------------------------------

TEST(TopologyConfig, ParseAndName) {
  dsy::Topology t = dsy::Topology::Deep;
  EXPECT_TRUE(dsy::parse_topology("fattree", t));
  EXPECT_EQ(t, dsy::Topology::FatTree);
  EXPECT_TRUE(dsy::parse_topology("dragonfly", t));
  EXPECT_EQ(t, dsy::Topology::Dragonfly);
  EXPECT_TRUE(dsy::parse_topology("deep", t));
  EXPECT_EQ(t, dsy::Topology::Deep);
  EXPECT_FALSE(dsy::parse_topology("torus", t));
  EXPECT_EQ(t, dsy::Topology::Deep);  // untouched on failure
  EXPECT_STREQ(dsy::topology_name(dsy::Topology::Dragonfly), "dragonfly");
}

TEST(TopologyConfig, DeriveDragonflyDimsCoversRequest) {
  for (const int n : {1, 8, 32, 33, 100, 500}) {
    const dn::DragonflyParams p =
        dsy::derive_dragonfly_dims(dn::DragonflyParams{}, n);
    EXPECT_GE(p.groups * p.routers_per_group * p.nodes_per_router, n) << n;
    EXPECT_GE(p.groups, 2) << n;  // a dragonfly needs a global link
  }
}

TEST(TopologyConfig, ExtollAccessorGuardsNonTorus) {
  dsy::SystemConfig config;
  config.cluster_nodes = 2;
  config.booster_nodes = 4;
  config.gateways = 1;
  config.topology = dsy::Topology::Dragonfly;
  dsy::DeepSystem system(config);
  EXPECT_THROW(system.extoll(), deep::util::UsageError);
  EXPECT_NO_THROW(system.dragonfly());
  EXPECT_EQ(&system.booster_fabric(),
            static_cast<dn::Fabric*>(&system.dragonfly()));
}

TEST(JobSpec, TopologyParseAndReject) {
  dsv::Reject reject;
  auto spec = dsv::JobSpec::from_text(
      R"({"workload": "stencil", "topology": "dragonfly", "adaptive": true})",
      reject);
  ASSERT_TRUE(spec.has_value()) << reject.message;
  EXPECT_EQ(spec->topology, "dragonfly");
  EXPECT_TRUE(spec->adaptive);
  const dsy::SystemConfig config = spec->to_config();
  EXPECT_EQ(config.topology, dsy::Topology::Dragonfly);
  EXPECT_TRUE(config.adaptive_routing);

  auto bad = dsv::JobSpec::from_text(R"({"topology": "hypercube"})", reject);
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(reject.code, "bad_topology");
  EXPECT_EQ(reject.field, "topology");

  auto bad_type = dsv::JobSpec::from_text(R"({"topology": 3})", reject);
  EXPECT_FALSE(bad_type.has_value());
  EXPECT_EQ(reject.code, "bad_spec");
}

TEST(JobSpec, TopologyEntersCanonicalKey) {
  dsv::JobSpec a, b;
  b.topology = "fattree";
  EXPECT_NE(a.key_hash(), b.key_hash());
  EXPECT_NE(a.canonical_key().find("deep"), std::string::npos);
  EXPECT_NE(b.canonical_key().find("fattree"), std::string::npos);
}

TEST(Session, FatTreeAndDragonflyRunWorkloads) {
  for (const char* topo : {"fattree", "dragonfly"}) {
    dsv::JobSpec spec;
    spec.topology = topo;
    spec.workload = "spmv";
    spec.cluster = 2;
    spec.booster = 8;
    spec.procs = 4;
    spec.steps = 2;
    spec.metrics = false;
    const dsv::SessionResult r = dsv::run_session(spec);
    EXPECT_TRUE(r.ok) << topo << ": " << r.error;
    EXPECT_EQ(r.mpi_errors, 0) << topo;
  }
}

namespace {

/// The simulation outcome of a session, excluding presentation: the report
/// prints the worker count, so worker-invariance compares the virtual-time
/// observables (checksum, end time, event count, error states).
std::string outcome(const dsv::SessionResult& r) {
  return std::to_string(r.ok) + "|" + std::to_string(r.mpi_errors) + "|" +
         std::to_string(r.checksum) + "|" + std::to_string(r.final_ps) + "|" +
         std::to_string(r.events) + "|" + r.error;
}

/// One pinned cell of the partitioned-session table.
struct PartitionedPin {
  const char* topology;
  const char* workload;
  std::int64_t final_ps;
  std::uint64_t events;
  double checksum;
  std::uint64_t metrics_fnv;  // fnv1a64 of obs::Registry::to_json()
};

}  // namespace

TEST(Session, PartitionedDragonflyIsWorkerCountInvariant) {
  // The production parallel layout over the swapped fabric: booster blocks
  // from net::auto_partition(dragonfly), pair lookaheads from router
  // distances.  Outcomes must be identical at every worker count, adaptive
  // routing included (it degrades deterministically when partitioned).
  std::string baseline;
  for (const int workers : {1, 2, 4}) {
    dsv::JobSpec spec;
    spec.topology = "dragonfly";
    spec.adaptive = true;
    spec.workload = "stencil";
    spec.cluster = 2;
    spec.booster = 12;
    spec.procs = 6;
    spec.steps = 2;
    spec.partitions = 3;
    spec.workers = workers;
    spec.metrics = false;
    const dsv::SessionResult r = dsv::run_session(spec);
    ASSERT_TRUE(r.ok) << "workers=" << workers << ": " << r.error;
    if (baseline.empty())
      baseline = outcome(r);
    else
      EXPECT_EQ(outcome(r), baseline) << "workers=" << workers;
  }
}

TEST(Session, PartitionedFatTreeIsWorkerCountInvariant) {
  std::string baseline;
  for (const int workers : {1, 2}) {
    dsv::JobSpec spec;
    spec.topology = "fattree";
    spec.adaptive = true;
    spec.workload = "spmv";
    spec.cluster = 2;
    spec.booster = 12;
    spec.procs = 6;
    spec.steps = 2;
    spec.partitions = 3;
    spec.workers = workers;
    spec.metrics = false;
    const dsv::SessionResult r = dsv::run_session(spec);
    ASSERT_TRUE(r.ok) << "workers=" << workers << ": " << r.error;
    if (baseline.empty())
      baseline = outcome(r);
    else
      EXPECT_EQ(outcome(r), baseline) << "workers=" << workers;
  }
}

TEST(Session, PartitionedOutcomesArePinned) {
  // The production parallel layout over every booster fabric: blocks from
  // net::auto_partition, pair lookaheads from route distances, adaptive
  // routing requested (it degrades deterministically when partitioned) and
  // metrics on.  Each cell must give the same outcome at every worker count
  // AND the recorded one: a change that moves partitioned timing the same
  // way at every worker count would pass a pure invariance check.
  const PartitionedPin pins[] = {
      {"deep", "stencil",
       16117028277, 3602, 341.17154884338379, 0x1a0f8dc95154522eULL},
      {"deep", "spmv",
       950173519, 762, 1.9999999999999996, 0x8ce30ce8a5852ffdULL},
      {"fattree", "stencil",
       16116820235, 3653, 341.17154884338379, 0x69bcad4737d49106ULL},
      {"fattree", "spmv",
       956023100, 766, 1.9999999999999996, 0xebb6aaba31a1ff55ULL},
      {"dragonfly", "stencil",
       16117175569, 3601, 341.17154884338379, 0xdf85ca486a9d28a8ULL},
      {"dragonfly", "spmv",
       958878892, 766, 1.9999999999999996, 0xb8e6b9b95197dd80ULL},
  };
  for (const PartitionedPin& pin : pins) {
    std::string first;
    for (const int workers : {1, 2, 4}) {
      dsv::JobSpec spec;
      spec.topology = pin.topology;
      spec.adaptive = true;
      spec.workload = pin.workload;
      spec.cluster = 2;
      spec.booster = 16;
      spec.procs = 12;
      spec.steps = 3;
      spec.partitions = 3;
      spec.workers = workers;
      spec.metrics = true;
      const dsv::SessionResult r = dsv::run_session(spec);
      const std::string cell = std::string(pin.topology) + "/" + pin.workload +
                               " workers=" + std::to_string(workers);
      ASSERT_TRUE(r.ok) << cell << ": " << r.error;
      EXPECT_EQ(r.mpi_errors, 0) << cell;
      EXPECT_EQ(r.final_ps, pin.final_ps) << cell;
      EXPECT_EQ(r.events, pin.events) << cell;
      EXPECT_EQ(r.checksum, pin.checksum) << cell;
      const std::uint64_t metrics_fnv = dsv::fnv1a64(r.metrics_json);
      EXPECT_EQ(metrics_fnv, pin.metrics_fnv) << cell;
      const std::string observed = std::to_string(r.final_ps) + "|" +
                                  std::to_string(r.events) + "|" +
                                  std::to_string(r.checksum) + "|" +
                                  dsv::hex64(metrics_fnv);
      if (first.empty()) first = observed;
      EXPECT_EQ(observed, first) << cell << " differs from workers=1";
    }
  }
}
