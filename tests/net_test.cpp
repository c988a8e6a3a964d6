// Unit tests for the network layer: NIC demux, the wormhole link-booking
// core, crossbar (InfiniBand) and torus (EXTOLL) fabrics, routing,
// contention, retransmission.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "net/crossbar.hpp"
#include "net/torus.hpp"
#include "net/wormhole.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace dn = deep::net;
namespace ds = deep::sim;

namespace {

dn::Message mk(deep::hw::NodeId src, deep::hw::NodeId dst, std::int64_t size,
               dn::Port port = dn::Port::Raw) {
  dn::Message m;
  m.src = src;
  m.dst = dst;
  m.size_bytes = size;
  m.port = port;
  return m;
}

}  // namespace

TEST(Nic, DemuxesByPort) {
  dn::Nic nic(0);
  int raw = 0, mpi = 0;
  nic.bind(dn::Port::Raw, [&](dn::Message&&) { ++raw; });
  nic.bind(dn::Port::Mpi, [&](dn::Message&&) { ++mpi; });
  nic.deliver(mk(1, 0, 8, dn::Port::Raw));
  nic.deliver(mk(1, 0, 8, dn::Port::Mpi));
  nic.deliver(mk(1, 0, 8, dn::Port::Mpi));
  EXPECT_EQ(raw, 1);
  EXPECT_EQ(mpi, 2);
}

TEST(Nic, DoubleBindRejected) {
  dn::Nic nic(0);
  nic.bind(dn::Port::Raw, [](dn::Message&&) {});
  EXPECT_THROW(nic.bind(dn::Port::Raw, [](dn::Message&&) {}),
               deep::util::UsageError);
  nic.rebind(dn::Port::Raw, [](dn::Message&&) {});  // rebind is allowed
}

TEST(Nic, UnboundPortRejected) {
  dn::Nic nic(0);
  EXPECT_THROW(nic.deliver(mk(1, 0, 8)), deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// CrossbarFabric (InfiniBand model)
// ---------------------------------------------------------------------------

TEST(Crossbar, SmallMessageLatencyIsFabricLatency) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  ds::TimePoint arrival{};
  ib.attach(0).bind(dn::Port::Raw,
                    [&](dn::Message&&) { arrival = eng.now(); });
  ib.attach(1);
  ib.send(mk(1, 0, 0), dn::Service::Small);
  eng.run();
  EXPECT_EQ(arrival.ps, ib.params().latency.ps);
}

TEST(Crossbar, LargeMessageAddsSerialisation) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  ds::TimePoint arrival{};
  ib.attach(0).bind(dn::Port::Raw,
                    [&](dn::Message&&) { arrival = eng.now(); });
  ib.attach(1);
  const std::int64_t size = 6'000'000;  // 1 ms at 6 GB/s
  ib.send(mk(1, 0, size), dn::Service::Bulk);
  eng.run();
  const auto expected = ib.params().latency + ib.serialisation(size);
  EXPECT_EQ(arrival.ps, expected.ps);
}

TEST(Crossbar, SenderSerialisesInjection) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  std::vector<ds::TimePoint> arrivals;
  ib.attach(0).bind(dn::Port::Raw,
                    [&](dn::Message&&) { arrivals.push_back(eng.now()); });
  ib.attach(1);
  const std::int64_t size = 6'000'000;
  ib.send(mk(1, 0, size), dn::Service::Bulk);
  ib.send(mk(1, 0, size), dn::Service::Bulk);
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second message leaves only after the first finished injecting.
  EXPECT_EQ((arrivals[1] - arrivals[0]).ps, ib.serialisation(size).ps);
}

TEST(Crossbar, IncastSerialisesAtReceiver) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  std::vector<ds::TimePoint> arrivals;
  ib.attach(0).bind(dn::Port::Raw,
                    [&](dn::Message&&) { arrivals.push_back(eng.now()); });
  for (int n = 1; n <= 4; ++n) ib.attach(n);
  const std::int64_t size = 6'000'000;
  for (int n = 1; n <= 4; ++n) ib.send(mk(n, 0, size), dn::Service::Bulk);
  eng.run();
  ASSERT_EQ(arrivals.size(), 4u);
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ((arrivals[i] - arrivals[i - 1]).ps, ib.serialisation(size).ps);
}

TEST(Crossbar, DisjointPairsDoNotContend) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  std::vector<ds::TimePoint> arrivals(2);
  ib.attach(0).bind(dn::Port::Raw,
                    [&](dn::Message&&) { arrivals[0] = eng.now(); });
  ib.attach(1).bind(dn::Port::Raw,
                    [&](dn::Message&&) { arrivals[1] = eng.now(); });
  ib.attach(2);
  ib.attach(3);
  const std::int64_t size = 6'000'000;
  ib.send(mk(2, 0, size), dn::Service::Bulk);
  ib.send(mk(3, 1, size), dn::Service::Bulk);
  eng.run();
  // A flat crossbar carries disjoint pairs at full speed simultaneously.
  EXPECT_EQ(arrivals[0].ps, arrivals[1].ps);
}

TEST(Crossbar, UnattachedEndpointRejected) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  ib.attach(0);
  EXPECT_THROW(ib.send(mk(0, 99, 8), dn::Service::Small),
               deep::util::UsageError);
}

TEST(Crossbar, StatsAccumulate) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  ib.attach(0).bind(dn::Port::Raw, [](dn::Message&&) {});
  ib.attach(1);
  ib.send(mk(1, 0, 100), dn::Service::Small);
  ib.send(mk(1, 0, 200), dn::Service::Small);
  eng.run();
  EXPECT_EQ(ib.stats().messages, 2);
  EXPECT_EQ(ib.stats().bytes, 300);
}

// The report's mean_us/max_us come from Fabric::stats(), which keeps the
// delivery latency to the picosecond.  Latencies with fractional
// nanoseconds tell it apart from the delivery_ns histogram, which truncates
// every sample to whole nanoseconds.
TEST(Crossbar, LatencyViewIsExactToThePicosecond) {
  ds::Engine eng;
  dn::CrossbarParams params;
  params.latency = ds::Duration{1'500'250};
  dn::CrossbarFabric ib(eng, "ib", params);
  std::vector<std::int64_t> latency_ps;
  for (deep::hw::NodeId n = 0; n < 8; ++n)
    ib.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) {
      latency_ps.push_back(eng.now().ps);  // every send leaves at t = 0
    });
  for (deep::hw::NodeId n = 0; n < 4; ++n)
    ib.send(mk(n, n + 4, 100 + 37 * n), dn::Service::Small);
  eng.run();
  ASSERT_EQ(latency_ps.size(), 4u);

  std::int64_t sum = 0, max = 0, sub_ns = 0;
  for (const std::int64_t ps : latency_ps) {
    sum += ps;
    max = std::max(max, ps);
    sub_ns += ps % 1000;
  }
  ASSERT_GT(sub_ns, 0) << "latencies must carry fractional nanoseconds";
  const dn::FabricStats stats = ib.stats();
  EXPECT_EQ(stats.delivery_ps_sum, sum);
  EXPECT_EQ(stats.delivery_ps_max, max);
  EXPECT_EQ(stats.mean_delivery_us(), static_cast<double>(sum) / 4 * 1e-6);
  EXPECT_EQ(stats.max_delivery_us(), static_cast<double>(max) * 1e-6);

  const deep::obs::HistogramCell ns =
      *eng.metrics().histogram("net.ib.delivery_ns").cell();
  EXPECT_NE(stats.mean_delivery_us(),
            static_cast<double>(ns.sum) / static_cast<double>(ns.count) * 1e-3);
  EXPECT_NE(stats.max_delivery_us(), static_cast<double>(ns.max) * 1e-3);
}

// ---------------------------------------------------------------------------
// Fabric base: node-indexed NIC table
// ---------------------------------------------------------------------------

namespace {

// A fabric whose send() checks nothing itself, so the base class's delivery
// path is what must reject a destination that is not attached.
class UncheckedFabric final : public dn::Fabric {
 public:
  using Fabric::Fabric;
  void send(dn::Message msg, dn::Service) override {
    deliver_at(engine_->now() + ds::microseconds(1), std::move(msg));
  }
};

}  // namespace

TEST(Fabric, DeliveryToUnattachedNodeIsUsageError) {
  ds::Engine eng;
  UncheckedFabric fabric(eng, "raw");
  fabric.attach(0).bind(dn::Port::Raw, [](dn::Message&&) {});
  fabric.attach(5);
  // Beyond the table, a hole inside it, and a negative id.
  for (const deep::hw::NodeId dst : {99, 3, -1}) {
    EXPECT_THROW(fabric.send(mk(0, dst, 8), dn::Service::Bulk),
                 deep::util::UsageError)
        << "dst " << dst;
  }
  EXPECT_EQ(fabric.stats().messages, 0);  // rejected before booking
  fabric.send(mk(5, 0, 8), dn::Service::Bulk);
  eng.run();
  EXPECT_EQ(fabric.stats().messages, 1);
}

TEST(Fabric, AttachedIdsSortedAndHolesSkipped) {
  ds::Engine eng;
  UncheckedFabric fabric(eng, "raw");
  for (const deep::hw::NodeId node : {7, 2, 4}) fabric.attach(node);
  EXPECT_EQ(fabric.attached_ids(), (std::vector<deep::hw::NodeId>{2, 4, 7}));
  EXPECT_TRUE(fabric.attached(4));
  EXPECT_FALSE(fabric.attached(3));
  EXPECT_FALSE(fabric.attached(8));
  EXPECT_FALSE(fabric.attached(-1));
  EXPECT_THROW(fabric.attach(4), deep::util::UsageError);
  EXPECT_THROW(fabric.attach(-1), deep::util::UsageError);
  EXPECT_THROW(fabric.nic(3), deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// WormholeFabric: the shared link-booking core
// ---------------------------------------------------------------------------

namespace {

constexpr ds::Duration ns(std::int64_t n) { return ds::Duration{n * 1000}; }
constexpr ds::TimePoint at_ns(std::int64_t n) { return ds::TimePoint{n * 1000}; }

// Every message takes the same hand-built five-link route.  The head enters
// the first link `start` after injection, the wire takes 1 ns per byte and
// delivery follows the tail by 5 ns.
class LineFabric final : public dn::WormholeFabric {
 public:
  static constexpr std::uint32_t kNone = kNoOwner;

  LineFabric(ds::Engine& eng, std::vector<std::uint32_t> owners,
             std::vector<ds::Duration> lats, ds::Duration start)
      : WormholeFabric(eng, "line"),
        owners_(std::move(owners)),
        lats_(std::move(lats)),
        start_(start) {
    add_links(owners_.size());
  }

  void send(dn::Message msg, dn::Service svc) override {
    const ds::Duration wire = ns(msg.size_bytes);
    transmit(std::move(msg), svc, route(msg), engine_->now() + start_, wire,
             ns(5));
  }

  ds::TimePoint busy(int link) const {
    return link_free(static_cast<LinkId>(link));
  }
  void set_busy(int link, ds::TimePoint t) {
    link_free(static_cast<LinkId>(link)) = t;
  }

 protected:
  Route route(const dn::Message&) const override {
    Hop* hop = scratch_hops(owners_.size());
    for (std::size_t i = 0; i < owners_.size(); ++i)
      hop[i] = {static_cast<LinkId>(i), owners_[i], lats_[i]};
    return {hop, owners_.size()};
  }

 private:
  std::vector<std::uint32_t> owners_;
  std::vector<ds::Duration> lats_;
  ds::Duration start_;
};

const std::vector<ds::Duration> kHopLats = {ns(10), ns(20), ns(30), ns(40),
                                            ns(50)};

/// Sends one `bytes`-byte message 0 -> 1 at t = 0 on partition 0 and
/// returns its delivery time.
ds::TimePoint send_once(ds::Engine& eng, LineFabric& fabric,
                        std::int64_t bytes,
                        dn::Service svc = dn::Service::Bulk) {
  ds::TimePoint delivered{-1};
  fabric.nic(1).bind(dn::Port::Raw,
                     [&](dn::Message&&) { delivered = eng.now(); });
  eng.schedule_on(0, ds::TimePoint{}, [&fabric, bytes, svc] {
    fabric.send(mk(0, 1, bytes), svc);
  });
  eng.run();
  return delivered;
}

}  // namespace

TEST(Wormhole, CrossPartitionBooksOwnedPrefixThenSuffix) {
  // Owners [src, src, none, dst, dst] with the endpoints on partitions 0, 1.
  ds::Engine eng;
  eng.set_partitions(2);
  eng.set_lookahead(ns(1));
  LineFabric fabric(eng, {0, 0, LineFabric::kNone, 1, 1}, kHopLats, ns(100));
  fabric.attach(0);
  fabric.attach(1);
  fabric.set_node_partition(1, 1);
  fabric.set_busy(1, at_ns(200));         // binds on the source side
  fabric.set_busy(2, at_ns(10'000'000));  // the middle must never read it
  fabric.set_busy(4, at_ns(280));         // frees just before the head

  const ds::TimePoint delivered = send_once(eng, fabric, 100);

  // Source: 100 -> link 0 -> 110 -> link 1 waits to 200 -> 220.  Middle:
  // +30 -> analytic head 250, where the continuation fires.  Destination:
  // 250 -> link 3 -> 290 -> link 4 (free since 280) -> 340; tail 440.  A
  // continuation fired at the prefix head (220) would deliver at 435.
  EXPECT_EQ(delivered, at_ns(445));
  EXPECT_EQ(fabric.busy(0), at_ns(320));  // prefix held to its own tail
  EXPECT_EQ(fabric.busy(1), at_ns(320));
  EXPECT_EQ(fabric.busy(2), at_ns(10'000'000));  // never booked
  EXPECT_EQ(fabric.busy(3), at_ns(440));  // suffix held to the tail
  EXPECT_EQ(fabric.busy(4), at_ns(440));
}

TEST(Wormhole, SingleOwnerRouteBooksEveryLink) {
  // The serial case: one owner, so the prefix is the whole route.
  ds::Engine eng;
  LineFabric fabric(eng, {0, 0, 0, 0, 0}, kHopLats, ns(100));
  fabric.attach(0);
  fabric.attach(1);
  fabric.set_busy(1, at_ns(200));
  fabric.set_busy(2, at_ns(500));
  fabric.set_busy(4, at_ns(300));

  const ds::TimePoint delivered = send_once(eng, fabric, 100);

  // 100 -> 110 -> max(110, 200) + 20 = 220 -> max(220, 500) + 30 = 530
  // -> 570 -> max(570, 300) + 50 = 620; tail 720.
  EXPECT_EQ(delivered, at_ns(725));
  for (int link = 0; link < 5; ++link)
    EXPECT_EQ(fabric.busy(link), at_ns(720)) << "link " << link;
}

TEST(Wormhole, UnownedMiddleOnOnePartitionAddsOnlyLatency) {
  // Both endpoints on partition 1, the middle link owned by nobody: the
  // message finishes inline and the middle still only adds latency.
  ds::Engine eng;
  eng.set_partitions(2);
  eng.set_lookahead(ns(1));
  LineFabric fabric(eng, {1, 1, LineFabric::kNone, 1, 1}, kHopLats, ns(100));
  fabric.attach(0);
  fabric.attach(1);
  fabric.set_node_partition(0, 1);
  fabric.set_node_partition(1, 1);
  fabric.set_busy(2, at_ns(10'000'000));

  ds::TimePoint delivered{-1};
  fabric.nic(1).bind(dn::Port::Raw,
                     [&](dn::Message&&) { delivered = eng.now(); });
  eng.schedule_on(1, ds::TimePoint{},
                  [&] { fabric.send(mk(0, 1, 100), dn::Service::Bulk); });
  eng.run();

  EXPECT_EQ(delivered, at_ns(100 + 150 + 100 + 5));
  for (const int link : {0, 1, 3, 4})
    EXPECT_EQ(fabric.busy(link), at_ns(350)) << "link " << link;
  EXPECT_EQ(fabric.busy(2), at_ns(10'000'000));
}

TEST(Wormhole, ControlClassIsAnalytic) {
  // Priority channel: every hop's latency, no queueing, nothing booked.
  ds::Engine eng;
  LineFabric fabric(eng, {0, 0, 0, 0, 0}, kHopLats, ns(100));
  fabric.attach(0);
  fabric.attach(1);
  for (int link = 0; link < 5; ++link) fabric.set_busy(link, at_ns(5000));

  const ds::TimePoint delivered =
      send_once(eng, fabric, 100, dn::Service::Control);

  EXPECT_EQ(delivered, at_ns(100 + 150 + 100 + 5));
  for (int link = 0; link < 5; ++link)
    EXPECT_EQ(fabric.busy(link), at_ns(5000)) << "link " << link;
}

TEST(Wormhole, PathLatencyFirstMatchesHopByHopWhenNoLinkBinds) {
  // Hop by hop (the torus order) against path latency first with lat = 0
  // (the fat-tree and dragonfly order).  Each link frees before the
  // hop-by-hop head reaches it, so it binds in neither model and the two
  // agree exactly.
  const std::vector<std::int64_t> free_ns = {90, 105, 125, 150, 200};
  const auto run = [&](std::vector<ds::Duration> lats, ds::Duration start,
                       std::vector<std::int64_t> busy) {
    ds::Engine eng;
    LineFabric fabric(eng, {0, 0, 0, 0, 0}, std::move(lats), start);
    fabric.attach(0);
    fabric.attach(1);
    for (int link = 0; link < 5; ++link)
      fabric.set_busy(link, at_ns(busy[static_cast<std::size_t>(link)]));
    const ds::TimePoint delivered = send_once(eng, fabric, 100);
    std::vector<ds::TimePoint> booked;
    for (int link = 0; link < 5; ++link) booked.push_back(fabric.busy(link));
    return std::pair(delivered, booked);
  };
  const std::vector<ds::Duration> zero(5, ds::Duration{});
  const auto hop_by_hop = run(kHopLats, ns(100), free_ns);
  const auto path_first = run(zero, ns(250), free_ns);
  EXPECT_EQ(hop_by_hop.first, at_ns(355));
  EXPECT_EQ(path_first.first, hop_by_hop.first);
  EXPECT_EQ(path_first.second, hop_by_hop.second);

  // Where a link does bind, the orders differ: that is why each fabric
  // keeps its own.
  const std::vector<std::int64_t> first_busy = {1000, 0, 0, 0, 0};
  EXPECT_NE(run(zero, ns(250), first_busy).first,
            run(kHopLats, ns(100), first_busy).first);
}

// ---------------------------------------------------------------------------
// TorusFabric (EXTOLL model)
// ---------------------------------------------------------------------------

namespace {

dn::TorusParams torus444() {
  dn::TorusParams p;
  p.dims = {4, 4, 4};
  return p;
}

}  // namespace

TEST(Torus, AttachAssignsDistinctCoords) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  for (int n = 0; n < 64; ++n) t.attach(n);
  EXPECT_THROW(t.attach(64), deep::util::UsageError);  // torus full
  // First node at origin, second along x.
  EXPECT_EQ(t.coord_of(0), (dn::TorusCoord{0, 0, 0}));
  EXPECT_EQ(t.coord_of(1), (dn::TorusCoord{1, 0, 0}));
  EXPECT_EQ(t.coord_of(4), (dn::TorusCoord{0, 1, 0}));
  EXPECT_EQ(t.coord_of(16), (dn::TorusCoord{0, 0, 1}));
}

TEST(Torus, ExplicitAttachValidation) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  t.attach_at(7, {1, 2, 3});
  EXPECT_EQ(t.coord_of(7), (dn::TorusCoord{1, 2, 3}));
  EXPECT_THROW(t.attach_at(8, {1, 2, 3}), deep::util::UsageError);  // occupied
  EXPECT_THROW(t.attach_at(9, {4, 0, 0}), deep::util::UsageError);  // outside
}

TEST(Torus, HopCountsUseWraparound) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  EXPECT_EQ(t.hops({0, 0, 0}, {0, 0, 0}), 0);
  EXPECT_EQ(t.hops({0, 0, 0}, {1, 0, 0}), 1);
  EXPECT_EQ(t.hops({0, 0, 0}, {3, 0, 0}), 1);  // wraps backwards
  EXPECT_EQ(t.hops({0, 0, 0}, {2, 0, 0}), 2);  // antipodal along x
  EXPECT_EQ(t.hops({0, 0, 0}, {2, 2, 2}), 6);  // full diagonal
  EXPECT_EQ(t.hops({1, 1, 0}, {2, 3, 3}), 1 + 2 + 1);
}

class TorusHopsSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// Property: hop count is symmetric and bounded by sum of half-dimensions.
TEST_P(TorusHopsSweep, SymmetricAndBounded) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  const auto [x, y, z] = GetParam();
  const dn::TorusCoord a{0, 0, 0}, b{x, y, z};
  EXPECT_EQ(t.hops(a, b), t.hops(b, a));
  EXPECT_LE(t.hops(a, b), 2 + 2 + 2);
  EXPECT_GE(t.hops(a, b), 0);
}

INSTANTIATE_TEST_SUITE_P(AllCoords, TorusHopsSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 4),
                                            ::testing::Range(0, 4)));

TEST(Torus, NeighbourLatencyBeatsInfiniBand) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  dn::CrossbarFabric ib(eng, "ib", {});
  ds::TimePoint torus_arrival{}, ib_arrival{};
  t.attach(0).bind(dn::Port::Raw,
                   [&](dn::Message&&) { torus_arrival = eng.now(); });
  t.attach(1);
  ib.attach(0).bind(dn::Port::Raw,
                    [&](dn::Message&&) { ib_arrival = eng.now(); });
  ib.attach(1);
  t.send(mk(1, 0, 64), dn::Service::Small);
  ib.send(mk(1, 0, 64), dn::Service::Small);
  eng.run();
  // EXTOLL's sub-microsecond neighbour latency is the point of the torus.
  EXPECT_LT(torus_arrival.ps, ib_arrival.ps);
  EXPECT_LT(torus_arrival.ps, ds::from_micros(1.0).ps);
}

TEST(Torus, LatencyGrowsWithHops) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  std::vector<ds::TimePoint> arrival(3);
  t.attach_at(0, {0, 0, 0});
  t.attach_at(1, {1, 0, 0});
  t.attach_at(2, {2, 2, 2});
  t.nic(1).bind(dn::Port::Raw, [&](dn::Message&&) { arrival[1] = eng.now(); });
  t.nic(2).bind(dn::Port::Raw, [&](dn::Message&&) { arrival[2] = eng.now(); });
  t.send(mk(0, 1, 64), dn::Service::Small);  // 1 hop
  eng.run();
  const auto one_hop = arrival[1];
  ds::Engine eng2;
  dn::TorusFabric t2(eng2, "extoll", torus444());
  t2.attach_at(0, {0, 0, 0});
  t2.attach_at(2, {2, 2, 2});
  ds::TimePoint six_hop{};
  t2.nic(2).bind(dn::Port::Raw, [&](dn::Message&&) { six_hop = eng2.now(); });
  t2.send(mk(0, 2, 64), dn::Service::Small);  // 6 hops
  eng2.run();
  // 5 extra hops at hop_latency each.
  EXPECT_EQ((six_hop - one_hop).ps, (t.params().hop_latency * 5).ps);
}

TEST(Torus, RmaSetupExceedsVeloForSmall) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  std::vector<ds::TimePoint> arrivals;
  t.attach(0).bind(dn::Port::Raw,
                   [&](dn::Message&&) { arrivals.push_back(eng.now()); });
  t.attach(1);
  t.send(mk(1, 0, 64), dn::Service::Small);
  eng.run();
  const auto velo = arrivals[0];
  ds::Engine eng2;
  dn::TorusFabric t2(eng2, "extoll", torus444());
  ds::TimePoint rma{};
  t2.attach(0).bind(dn::Port::Raw, [&](dn::Message&&) { rma = eng2.now(); });
  t2.attach(1);
  t2.send(mk(1, 0, 64), dn::Service::Bulk);
  eng2.run();
  EXPECT_GT(rma.ps, velo.ps);
  EXPECT_EQ((rma - velo).ps,
            (t.params().rma_setup - t.params().velo_injection).ps);
}

TEST(Torus, SelfSendStaysLocal) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  ds::TimePoint arrival{};
  t.attach(0).bind(dn::Port::Raw, [&](dn::Message&&) { arrival = eng.now(); });
  t.send(mk(0, 0, 64), dn::Service::Small);
  eng.run();
  // Injection + ejection links only (2 hop latencies), no route links.
  const auto& p = t.params();
  const auto expected = p.velo_injection + p.hop_latency * 2 +
                        t.serialisation(64) + p.ejection;
  EXPECT_EQ(arrival.ps, expected.ps);
}

TEST(Torus, SharedLinkContends) {
  // 1-D chain 0..3: dimension-ordered routes 0->3 and 1->3 share the links
  // (1->2) and (2->3), so concurrent bulk sends must serialise; the disjoint
  // pair 4->5 is unaffected.
  const std::int64_t size = 5'000'000;  // 1 ms of wire time at 5 GB/s
  auto run = [&](bool contended) {
    ds::Engine eng;
    dn::TorusParams p;
    p.dims = {8, 1, 1};
    dn::TorusFabric t(eng, "extoll", p);
    for (int n = 0; n < 6; ++n) t.attach(n);
    ds::TimePoint last{};
    t.nic(3).bind(dn::Port::Raw, [&](dn::Message&&) { last = eng.now(); });
    t.nic(5).bind(dn::Port::Raw, [](dn::Message&&) {});
    t.send(mk(0, 3, size), dn::Service::Bulk);
    if (contended) t.send(mk(1, 3, size), dn::Service::Bulk);
    t.send(mk(4, 5, size), dn::Service::Bulk);
    eng.run();
    return last;
  };
  const auto alone = run(false);
  const auto contended = run(true);
  // The second message into node 3 queues behind the first on the shared
  // links: at least one extra wire-serialisation time (1 ms at 5 GB/s).
  const auto one_serialisation =
      ds::from_seconds(static_cast<double>(size) / 5.0e9);
  EXPECT_GE((contended - alone).ps, one_serialisation.ps);
}

TEST(Torus, RetransmissionDisabledByDefault) {
  ds::Engine eng;
  dn::TorusFabric t(eng, "extoll", torus444());
  t.attach(0).bind(dn::Port::Raw, [](dn::Message&&) {});
  t.attach(1);
  t.send(mk(1, 0, 1 << 20), dn::Service::Bulk);
  eng.run();
  EXPECT_EQ(t.retransmissions(), 0);
  EXPECT_EQ(t.affected_messages(), 0);
}

TEST(Torus, RetransmissionRecoversWithPenalty) {
  // With a high packet error rate, a large transfer must see retransmissions
  // and take longer than the clean case — but still be delivered.
  const std::int64_t size = 4 << 20;
  auto run = [&](double per) {
    ds::Engine eng;
    auto p = torus444();
    p.packet_error_rate = per;
    dn::TorusFabric t(eng, "extoll", p);
    ds::TimePoint arrival{};
    t.attach(0).bind(dn::Port::Raw,
                     [&](dn::Message&&) { arrival = eng.now(); });
    t.attach(1);
    t.send(mk(1, 0, size), dn::Service::Bulk);
    eng.run();
    return std::pair(arrival, t.retransmissions());
  };
  const auto [clean_time, clean_retrans] = run(0.0);
  const auto [noisy_time, noisy_retrans] = run(0.01);
  EXPECT_EQ(clean_retrans, 0);
  EXPECT_GT(noisy_retrans, 0);
  EXPECT_GT(noisy_time.ps, clean_time.ps);
}

TEST(Torus, RetransmissionSamplingIsDeterministic) {
  auto run = [] {
    ds::Engine eng;
    auto p = torus444();
    p.packet_error_rate = 0.05;
    dn::TorusFabric t(eng, "extoll", p);
    t.attach(0).bind(dn::Port::Raw, [](dn::Message&&) {});
    t.attach(1);
    for (int i = 0; i < 10; ++i) t.send(mk(1, 0, 1 << 18), dn::Service::Bulk);
    eng.run();
    return t.retransmissions();
  };
  EXPECT_EQ(run(), run());
}

TEST(Torus, InvalidParamsRejected) {
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = {0, 4, 4};
  EXPECT_THROW(dn::TorusFabric(eng, "bad", p), deep::util::UsageError);
  p = {};
  p.packet_error_rate = 1.5;
  EXPECT_THROW(dn::TorusFabric(eng, "bad", p), deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// FatTreeFabric (two-level InfiniBand construction)
// ---------------------------------------------------------------------------

#include "net/fattree.hpp"

namespace {

dn::FatTreeParams ft(int radix, int uplinks) {
  dn::FatTreeParams p;
  p.leaf_radix = radix;
  p.uplinks = uplinks;
  return p;
}

}  // namespace

TEST(FatTree, LeafAssignmentAndHops) {
  ds::Engine eng;
  dn::FatTreeFabric t(eng, "ft", ft(4, 4));
  for (int n = 0; n < 8; ++n) t.attach(n);
  EXPECT_EQ(t.leaf_of(0), 0);
  EXPECT_EQ(t.leaf_of(3), 0);
  EXPECT_EQ(t.leaf_of(4), 1);
  EXPECT_EQ(t.hops(0, 3), 1);  // same leaf
  EXPECT_EQ(t.hops(0, 4), 3);  // via spine
  EXPECT_THROW(t.leaf_of(99), deep::util::UsageError);
}

TEST(FatTree, SameLeafLatencyBelowCrossLeaf) {
  ds::Engine eng;
  dn::FatTreeFabric t(eng, "ft", ft(4, 4));
  std::vector<ds::TimePoint> arrivals(8);
  for (int n = 0; n < 8; ++n)
    t.attach(n).bind(dn::Port::Raw,
                     [&, n](dn::Message&&) { arrivals[static_cast<std::size_t>(n)] = eng.now(); });
  t.send(mk(0, 1, 64), dn::Service::Small);   // same leaf
  t.send(mk(0, 4, 64), dn::Service::Small);   // cross leaf
  eng.run();
  EXPECT_LT(arrivals[1].ps, arrivals[4].ps);
  // Two extra switch hops exactly.
  const auto p = t.params();
  EXPECT_EQ((arrivals[4] - arrivals[1]).ps, (p.switch_latency * 2).ps);
}

TEST(FatTree, NonBlockingMatchesCrossbarBehaviour) {
  // 1:1 fat tree: disjoint cross-leaf pairs run at full speed concurrently.
  ds::Engine eng;
  dn::FatTreeFabric t(eng, "ft", ft(4, 4));
  std::vector<ds::TimePoint> arrivals(8);
  for (int n = 0; n < 8; ++n)
    t.attach(n).bind(dn::Port::Raw,
                     [&, n](dn::Message&&) { arrivals[static_cast<std::size_t>(n)] = eng.now(); });
  const std::int64_t size = 6'000'000;
  // 0->4, 1->5, 2->6, 3->7 all cross the spine simultaneously.
  for (int n = 0; n < 4; ++n) t.send(mk(n, n + 4, size), dn::Service::Bulk);
  eng.run();
  // With 4 uplinks and 4 flows the hash may still collide on a plane, but
  // at least two distinct completion groups must exist and the earliest
  // finishes at wire speed.
  const auto first = std::min({arrivals[4], arrivals[5], arrivals[6], arrivals[7]});
  const auto expected = t.serialisation(size) + t.params().adapter_latency * 2 +
                        t.params().switch_latency * 3;
  EXPECT_EQ(first.ps, expected.ps);
}

TEST(FatTree, OversubscriptionSlowsCrossLeafTraffic) {
  // 4:1 oversubscribed uplinks: four cross-leaf flows share one trunk.
  auto run = [](int uplinks) {
    ds::Engine eng;
    dn::FatTreeFabric t(eng, "ft", ft(4, uplinks));
    ds::TimePoint last{};
    for (int n = 0; n < 8; ++n)
      t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) { last = eng.now(); });
    const std::int64_t size = 6'000'000;
    for (int n = 0; n < 4; ++n) t.send(mk(n, n + 4, size), dn::Service::Bulk);
    eng.run();
    return last;
  };
  const auto blocking = run(1);
  const auto nonblocking = run(4);
  // One uplink serialises all four flows: ~4x the completion time.
  EXPECT_GT(blocking.ps, 3 * nonblocking.ps / 2);
}

TEST(FatTree, SameLeafTrafficUnaffectedByOversubscription) {
  auto run = [](int uplinks) {
    ds::Engine eng;
    dn::FatTreeFabric t(eng, "ft", ft(4, uplinks));
    ds::TimePoint last{};
    for (int n = 0; n < 4; ++n)
      t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) { last = eng.now(); });
    t.send(mk(0, 1, 1 << 20), dn::Service::Bulk);
    t.send(mk(2, 3, 1 << 20), dn::Service::Bulk);
    eng.run();
    return last;
  };
  EXPECT_EQ(run(1).ps, run(4).ps);  // no spine involved
}

TEST(FatTree, InvalidParamsRejected) {
  ds::Engine eng;
  EXPECT_THROW(dn::FatTreeFabric(eng, "bad", ft(4, 5)), deep::util::UsageError);
  EXPECT_THROW(dn::FatTreeFabric(eng, "bad", ft(4, 0)), deep::util::UsageError);
}

TEST(FatTree, UnpartitionedLookaheadBounds) {
  ds::Engine eng;
  dn::FatTreeFabric t(eng, "ft", ft(4, 4));
  for (int n = 0; n < 8; ++n) t.attach(n);
  const auto p = t.params();
  // Uniform bound: the cheapest event a send can place elsewhere is one
  // adapter plus a single switch hop (the same-leaf path).
  EXPECT_EQ(t.lookahead().ps, (p.adapter_latency + p.switch_latency).ps);
  // Without partition assignments the per-pair contract degenerates to the
  // base fabric's: no cross-partition scheduling exists to protect.
  EXPECT_EQ(t.lookahead(0, 1).ps, ds::kUnconstrainedLookahead.ps);
  EXPECT_EQ(t.lookahead(0, 0).ps, ds::kUnconstrainedLookahead.ps);
}

TEST(FatTree, PairLookaheadTracksLeafDistance) {
  ds::Engine eng;
  eng.set_partitions(3);
  dn::FatTreeFabric t(eng, "ft", ft(4, 4));
  for (int n = 0; n < 8; ++n) t.attach(n);
  // Leaf 0 hosts partitions 0 and 1; leaf 1 is wholly partition 2.
  t.set_node_partition(0, 0);
  t.set_node_partition(1, 0);
  t.set_node_partition(2, 1);
  t.set_node_partition(3, 1);
  for (int n = 4; n < 8; ++n) t.set_node_partition(n, 2);
  const auto p = t.params();
  const auto one_switch = p.adapter_latency + p.switch_latency;
  const auto spine = p.adapter_latency + p.switch_latency * 3;
  // Partitions co-located on a leaf can reach each other in one switch hop.
  EXPECT_EQ(t.lookahead(0, 1).ps, one_switch.ps);
  EXPECT_EQ(t.lookahead(1, 0).ps, one_switch.ps);
  // Separated partitions pay the full three-switch spine crossing.
  EXPECT_EQ(t.lookahead(0, 2).ps, spine.ps);
  EXPECT_EQ(t.lookahead(2, 1).ps, spine.ps);
  // Intra-partition events need no bound at all.
  EXPECT_EQ(t.lookahead(2, 2).ps, ds::kUnconstrainedLookahead.ps);
  // Every finite pair bound is at least the uniform (conservative) bound.
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = 0; b < 3; ++b) {
      if (a != b) {
        EXPECT_GE(t.lookahead(a, b).ps, t.lookahead().ps);
      }
    }
  }
}

TEST(FatTree, NicFailureDropsTrafficUntilHealed) {
  ds::Engine eng;
  dn::FatTreeFabric t(eng, "ft", ft(4, 4));
  int arrived = 0;
  for (int n = 0; n < 8; ++n)
    t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) { ++arrived; });
  t.set_link_up(0, 0, false);  // self-link: node 0's NIC fails
  EXPECT_EQ(t.links_down(), 1u);
  EXPECT_FALSE(t.link_up(0, 0));
  t.send(mk(0, 4, 64), dn::Service::Small);  // dead source
  t.send(mk(4, 0, 64), dn::Service::Small);  // dead destination
  t.send(mk(1, 5, 64), dn::Service::Small);  // unrelated pair still flows
  eng.run();
  EXPECT_EQ(arrived, 1);
  EXPECT_EQ(t.stats().messages_dropped, 2);
  t.set_link_up(0, 0, true);
  EXPECT_EQ(t.links_down(), 0u);
  t.send(mk(0, 4, 64), dn::Service::Small);
  eng.run();
  EXPECT_EQ(arrived, 2);
  EXPECT_EQ(t.stats().messages_dropped, 2);  // heal: no further drops
}

TEST(FatTree, PairLinkFailureLeavesOtherRoutesUp) {
  ds::Engine eng;
  dn::FatTreeFabric t(eng, "ft", ft(4, 4));
  int arrived = 0;
  for (int n = 0; n < 8; ++n)
    t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) { ++arrived; });
  t.set_link_up(0, 4, false);
  // The pair is unordered: both directions are cut together.
  EXPECT_FALSE(t.link_up(4, 0));
  EXPECT_TRUE(t.link_up(0, 5));
  t.send(mk(0, 4, 64), dn::Service::Small);  // cut pair, either direction
  t.send(mk(4, 0, 64), dn::Service::Small);
  t.send(mk(0, 5, 64), dn::Service::Small);  // same source, other target
  t.send(mk(1, 4, 64), dn::Service::Small);  // other source, same target
  eng.run();
  EXPECT_EQ(arrived, 2);
  EXPECT_EQ(t.stats().messages_dropped, 2);
}
