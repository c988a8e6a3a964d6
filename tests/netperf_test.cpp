// Hot-path guarantees of the zero-allocation message path (docs/perf.md):
//  * buffer/message/request pooling invariants (net/pool.hpp),
//  * the arithmetic torus route walk (routers and booked links) matches an
//    independent per-hop dimension-ordered walker (wrap-around, ties,
//    dims == 1),
//  * the packed link-index aliasing guard,
//  * fiber stacks outlive their engine in a cache keyed by stack size,
//  * and the headline claim itself: a warmed-up fabric send/deliver cycle,
//    and a warmed-up MPI eager isend/irecv/wait cycle, perform ZERO heap
//    allocations, verified by replacing operator new.
//
// This binary carries the ctest label `perf` (see scripts/run_chaos.sh,
// which runs it under ASan as well).

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "cbp/gateway.hpp"
#include "mpi/mpi.hpp"
#include "mpi/wire.hpp"
#include "mpi_rig.hpp"
#include "net/crossbar.hpp"
#include "net/pool.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "util/error.hpp"

namespace dc = deep::cbp;
namespace dm = deep::mpi;
namespace dn = deep::net;
namespace ds = deep::sim;

// ---------------------------------------------------------------------------
// Allocation counting: every path into the heap in this binary goes through
// these replacements.  Tests snapshot the counter around a measured region.
// ---------------------------------------------------------------------------

namespace {
std::size_t g_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// ---------------------------------------------------------------------------
// Pooling invariants
// ---------------------------------------------------------------------------

TEST(BufferPool, ReleasedBufferIsReusedNotReallocated) {
  auto& pool = dn::BufferPool::instance();
  std::vector<std::byte> bytes(128, std::byte{0x42});
  dn::Payload p1 = dn::copy_payload(bytes);
  const void* data1 = p1->data();
  p1.reset();
  const std::size_t total_after_release = pool.total_buffers();
  dn::Payload p2 = dn::copy_payload(bytes);
  // Same storage came back; the pool did not grow.
  EXPECT_EQ(data1, p2->data());
  EXPECT_EQ(pool.total_buffers(), total_after_release);
  EXPECT_EQ((*p2)[0], std::byte{0x42});
}

TEST(BufferPool, RefcountSharingKeepsBufferAlive) {
  auto& pool = dn::BufferPool::instance();
  dn::Payload a = dn::copy_payload(std::vector<std::byte>(16, std::byte{7}));
  const std::size_t free_before = pool.free_buffers();
  dn::Payload b = a;  // shared reference
  a.reset();
  EXPECT_EQ(pool.free_buffers(), free_before);  // b still pins the buffer
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ((*b)[0], std::byte{7});
  b.reset();
  EXPECT_EQ(pool.free_buffers(), free_before + 1);
}

TEST(MessagePool, PooledMessageRecyclesSlotAndReleasesPayload) {
  auto& mpool = dn::MessagePool::instance();
  auto& bpool = dn::BufferPool::instance();
  dn::Message msg;
  msg.src = 1;
  msg.dst = 2;
  msg.payload = dn::copy_payload(std::vector<std::byte>(8, std::byte{1}));
  const std::size_t buffers_free = bpool.free_buffers();
  {
    dn::PooledMessage parked(std::move(msg));
    dn::Message out = parked.take();
    EXPECT_EQ(out.src, 1);
    EXPECT_EQ(out.dst, 2);
    ASSERT_TRUE(static_cast<bool>(out.payload));
    // `out` (and its payload) die here; `parked` releases the slot after.
  }
  // The slot went back to the pool with its payload reference cleared, so
  // the payload buffer is free again — pooled slots never pin buffers.
  EXPECT_GT(mpool.free_slots(), 0u);
  EXPECT_EQ(bpool.free_buffers(), buffers_free + 1);
}

TEST(MessagePool, DroppedUnexecutedEventReturnsSlot) {
  // An engine destroyed with undelivered events must not leak slots: the
  // PooledMessage captured in the event releases on destruction.
  auto& mpool = dn::MessagePool::instance();
  dn::Message msg;
  msg.payload = dn::copy_payload(std::vector<std::byte>(8, std::byte{2}));
  { dn::PooledMessage parked(std::move(msg)); }  // never taken
  const std::size_t free_after = mpool.free_slots();
  EXPECT_GT(free_after, 0u);
}

TEST(PoolAllocator, RecyclesSingleObjectAllocations) {
  struct Blob {
    std::int64_t x[6];
  };
  auto shared = std::allocate_shared<Blob>(dn::PoolAllocator<Blob>{});
  const void* first = shared.get();
  shared.reset();  // control block + object go to the type's free list
  const std::size_t allocs_before = g_allocs;
  auto again = std::allocate_shared<Blob>(dn::PoolAllocator<Blob>{});
  EXPECT_EQ(g_allocs, allocs_before);  // served from the free list
  EXPECT_EQ(first, again.get());
}

// ---------------------------------------------------------------------------
// Packed link-index aliasing guard (satellite: TorusFabric::pack)
// ---------------------------------------------------------------------------

TEST(TorusLinkIndex, ChannelOutsideRouterRangeIsRejected) {
  using TF = dn::TorusFabric;
  EXPECT_EQ(TF::packed_link_index(0, 0), 0);
  EXPECT_EQ(TF::packed_link_index(2, 3), 2 * TF::kChannelsPerRouter + 3);
  // Channel 16 of router 0 would alias channel 0 of router 1.
  EXPECT_THROW(TF::packed_link_index(0, TF::kChannelsPerRouter),
               deep::util::UsageError);
  EXPECT_THROW(TF::packed_link_index(1, -1), deep::util::UsageError);
}

// ---------------------------------------------------------------------------
// Route-table equivalence vs an independent dimension-ordered walker
// ---------------------------------------------------------------------------

struct RefTorus {
  std::array<int, 3> dims;

  int displacement(int from, int to, int dim) const {
    const int n = dims[dim];
    int d = (to - from) % n;
    if (d < 0) d += n;
    if (d * 2 > n) d -= n;  // ties go positive, like the fabric
    return d;
  }

  int linear(dn::TorusCoord c) const {
    return (c.z * dims[1] + c.y) * dims[0] + c.x;
  }

  // Per-hop dimension-ordered walk (the pre-memoisation algorithm): the
  // sequence of linear coordinates visited from a to b, endpoints included,
  // and the directed links booked on the way (injection, the link each hop
  // leaves its router on, ejection).
  struct Walk {
    std::vector<int> linears;
    std::vector<std::int64_t> links;
  };
  Walk walk(dn::TorusCoord a, dn::TorusCoord b) const {
    using TF = dn::TorusFabric;
    Walk out{{linear(a)},
             {TF::packed_link_index(linear(a), TF::kChannelInject)}};
    dn::TorusCoord cur = a;
    for (int dim = 0; dim < 3; ++dim) {
      int* axis = dim == 0 ? &cur.x : dim == 1 ? &cur.y : &cur.z;
      const int target = dim == 0 ? b.x : dim == 1 ? b.y : b.z;
      int d = displacement(*axis, target, dim);
      const int step = d > 0 ? 1 : -1;
      const int n = dims[dim];
      while (d != 0) {
        // Channels dim * 2 (+) and dim * 2 + 1 (-) of the router left.
        out.links.push_back(
            TF::packed_link_index(linear(cur), dim * 2 + (step > 0 ? 0 : 1)));
        *axis = ((*axis + step) % n + n) % n;
        out.linears.push_back(linear(cur));
        d -= step;
      }
    }
    out.links.push_back(TF::packed_link_index(linear(b), TF::kChannelEject));
    return out;
  }
};

void expect_routes_match(const std::array<int, 3>& dims) {
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = dims;
  dn::TorusFabric fabric(eng, "t", p);
  const int n = dims[0] * dims[1] * dims[2];
  for (int i = 0; i < n; ++i) fabric.attach(i);  // node i at linear i
  const RefTorus ref{dims};
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const auto expected = ref.walk(fabric.coord_of(s), fabric.coord_of(d));
      const auto actual = fabric.route_linears(s, d);
      ASSERT_EQ(actual, expected.linears)
          << "dims {" << dims[0] << "," << dims[1] << "," << dims[2]
          << "} src " << s << " dst " << d;
      ASSERT_EQ(fabric.route_links(s, d), expected.links)
          << "dims {" << dims[0] << "," << dims[1] << "," << dims[2]
          << "} src " << s << " dst " << d;
      // The walked route length must also agree with the analytic count.
      ASSERT_EQ(static_cast<int>(actual.size()) - 1, fabric.hops(s, d));
    }
  }
}

TEST(TorusRouteTable, MatchesPerHopWalkOnCube) {
  expect_routes_match({4, 4, 4});  // even dims: exercises the wrap tie-break
}

TEST(TorusRouteTable, MatchesPerHopWalkOnAsymmetricTorus) {
  expect_routes_match({5, 3, 2});  // odd wrap-around + tiny dimensions
  expect_routes_match({8, 8, 6});  // the paper-scale 384-node booster
}

TEST(TorusRouteTable, MatchesPerHopWalkOnDegenerateDims) {
  expect_routes_match({6, 1, 1});  // ring
  expect_routes_match({1, 1, 1});  // single node, src == dst route
  expect_routes_match({1, 4, 1});  // ring on the middle dimension
}

TEST(TorusRouteTable, WrapAroundTakesShorterDirection) {
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = {5, 1, 1};
  dn::TorusFabric fabric(eng, "t", p);
  for (int i = 0; i < 5; ++i) fabric.attach(i);
  // 0 -> 4 is one hop backwards across the wrap, not four forwards.
  EXPECT_EQ(fabric.route_linears(0, 4), (std::vector<int>{0, 4}));
  EXPECT_EQ(fabric.hops(0, 4), 1);
}

// ---------------------------------------------------------------------------
// Fiber stacks: recycled across engines
// ---------------------------------------------------------------------------

// Spawns `n` processes that are all alive at once, then runs to the end.
void run_concurrent_processes(int n) {
  ds::Engine eng;
  for (int i = 0; i < n; ++i)
    eng.spawn(std::string("p").append(std::to_string(i)),
              [](ds::Context& ctx) { ctx.delay(ds::microseconds(1)); });
  eng.run();
}

TEST(FiberStackCache, SecondEngineMapsNoNewStacks) {
  run_concurrent_processes(48);
  const std::size_t mapped = ds::FiberStackPool::mapped_total();
  run_concurrent_processes(48);
  EXPECT_EQ(ds::FiberStackPool::mapped_total(), mapped);
  run_concurrent_processes(20);
  EXPECT_EQ(ds::FiberStackPool::mapped_total(), mapped);
}

// Touches about `kib` KiB of stack; the result depends on every frame.
int touch_stack(int kib) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(kib);
  frame[sizeof(frame) - 1] = 1;
  if (kib <= 1) return frame[0] + frame[sizeof(frame) - 1];
  return touch_stack(kib - 1) + frame[0];
}

TEST(FiberStackCache, DefaultEngineNeverRunsOnASmallStack) {
  // Stacks go to the cache when their engine dies.  The next engine's
  // processes run on them and may use far more than 64 KiB: a recycled
  // stack must be a whole one, or they would fault on its guard page.
  run_concurrent_processes(8);
  ds::Engine eng;
  int sum = 0;
  for (int i = 0; i < 8; ++i)
    eng.spawn("deep" + std::to_string(i), [&sum](ds::Context& ctx) {
      ctx.delay(ds::microseconds(1));
      sum += touch_stack(160) > 0 ? 1 : 0;
    });
  eng.run();
  EXPECT_EQ(sum, 8);
}

// ---------------------------------------------------------------------------
// The headline claim: zero steady-state allocations on the send path
// ---------------------------------------------------------------------------

dn::Message raw_message(deep::hw::NodeId src, deep::hw::NodeId dst) {
  static const std::vector<std::byte> bytes(64, std::byte{0x5A});
  dn::Message m;
  m.src = src;
  m.dst = dst;
  m.port = dn::Port::Raw;
  m.size_bytes = 128;
  dm::WireHeader h;
  h.kind = dm::MsgKind::Eager;
  h.bytes = 64;
  m.header = h;
  m.payload = dn::copy_payload(bytes);
  return m;
}

// Every engine's registry records on these paths.  Metric recording is
// pointer-chase + integer adds into cells the registry allocated at
// registration time, so it must not cost the hot path a single heap
// allocation either.

TEST(ZeroAllocation, WarmTorusSendPathWithMetricsDoesNotAllocate) {
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = {4, 4, 4};
  dn::TorusFabric fabric(eng, "t", p);
  std::int64_t sink = 0;
  for (int i = 0; i < 64; ++i)
    fabric.attach(i).bind(dn::Port::Raw,
                          [&sink](dn::Message&& m) { sink += m.size_bytes; });
  const auto traffic = [&] {
    for (int i = 0; i < 64; ++i)
      fabric.send(raw_message(i, (i * 29 + 7) % 64), dn::Service::Small);
    eng.run();
  };
  traffic();  // warm-up: routes memoised, pools grown to high-water mark
  traffic();
  const std::size_t allocs_before = g_allocs;
  traffic();  // measured: header in place, payload/slots/events all pooled
  EXPECT_EQ(g_allocs, allocs_before) << "steady-state torus send path allocated";
  EXPECT_GT(sink, 0);
  EXPECT_GT(eng.metrics().value("net.t.messages"), 0)
      << "the registry recorded nothing";
}

TEST(ZeroAllocation, WarmCrossbarSendPathWithMetricsDoesNotAllocate) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  for (int i = 0; i < 16; ++i)
    ib.attach(i).bind(dn::Port::Raw, [](dn::Message&&) {});
  const auto traffic = [&] {
    for (int i = 0; i < 16; ++i)
      ib.send(raw_message(i, (i + 1) % 16), dn::Service::Small);
    eng.run();
  };
  traffic();
  traffic();
  const std::size_t allocs_before = g_allocs;
  traffic();
  EXPECT_EQ(g_allocs, allocs_before)
      << "steady-state crossbar send path allocated";
  EXPECT_GT(eng.metrics().value("net.ib.messages"), 0);
}

TEST(ZeroAllocation, WarmCbpBridgePathWithMetricsDoesNotAllocate) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  dn::TorusParams tp;
  tp.dims = {4, 2, 1};
  dn::TorusFabric extoll(eng, "extoll", tp);
  dc::BridgedTransport bridge(eng, ib, extoll);
  for (deep::hw::NodeId n = 0; n < 4; ++n) {
    ib.attach(n);
    bridge.register_cluster_node(n);
  }
  for (deep::hw::NodeId n = 10; n < 14; ++n) {
    extoll.attach(n);
    bridge.register_booster_node(n);
    bridge.home_nic(n).bind(dn::Port::Raw, [](dn::Message&&) {});
  }
  ib.attach(20);
  extoll.attach(20);
  bridge.register_gateway(20);
  const auto traffic = [&] {
    for (int i = 0; i < 16; ++i)
      bridge.send(raw_message(i % 4, 10 + i % 4), dn::Service::Small);
    eng.run();
  };
  traffic();
  traffic();
  const std::size_t allocs_before = g_allocs;
  traffic();
  EXPECT_EQ(g_allocs, allocs_before) << "steady-state CBP bridge path allocated";
  EXPECT_GT(eng.metrics().value("cbp.forwarded"), 0);
}

// Two ranks exchange an eager message per round: irecv, isend, wait on
// both.  After the warm-up rounds the requests, payloads, match queues,
// events and the crossbar path all run on recycled storage.  Allocations
// are counted between the starts of two rounds in the middle of the run,
// so neither rank's start-up or exit falls inside the window.
TEST(ZeroAllocation, WarmMpiEagerCycleDoesNotAllocate) {
  constexpr int kWarm = 8, kMeasured = 64, kTail = 4;
  deep::testing::MpiRig rig(2);
  std::size_t before = 0, after = 0;
  rig.run([&](dm::Mpi& mpi) {
    const dm::Rank peer = 1 - mpi.rank();
    std::int64_t out[4] = {mpi.rank(), 0, 0, 0};
    std::int64_t in[4] = {};
    for (int round = 0; round < kWarm + kMeasured + kTail; ++round) {
      if (mpi.rank() == 0 && round == kWarm) before = g_allocs;
      if (mpi.rank() == 0 && round == kWarm + kMeasured) after = g_allocs;
      out[1] = round;
      const dm::RequestPtr reqs[2] = {
          mpi.irecv<std::int64_t>(mpi.world(), peer, 7, in),
          mpi.isend<std::int64_t>(mpi.world(), peer, 7,
                                  std::span<const std::int64_t>(out))};
      mpi.wait_all(reqs);
      ASSERT_EQ(in[0], peer);
      ASSERT_EQ(in[1], round);
    }
  });
  EXPECT_GT(after, 0u);
  EXPECT_EQ(after, before) << "steady-state MPI eager cycle allocated";
}

}  // namespace
