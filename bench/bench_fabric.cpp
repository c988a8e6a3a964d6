// Micro-benchmarks of the per-message hot path (wall-clock, via
// google-benchmark): fabric send/delivery cost on the torus and crossbar,
// CBP gateway bridging, and the MPI eager path end to end.  These are the
// numbers behind the `fabric` rows of results/BENCH.json
// (scripts/bench.py run fabric):
// the simulator's cost-per-message is the scaling ceiling for booster-style
// many-small-message traffic, so this file guards it against regressions.
// Every engine's obs::Registry records on these paths.

#include <benchmark/benchmark.h>

#include <vector>

#include "cbp/gateway.hpp"
#include "mpi/types.hpp"
#include "net/crossbar.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"
#include "tests/mpi_rig.hpp"

namespace dc = deep::cbp;
namespace dm = deep::mpi;
namespace dn = deep::net;
namespace ds = deep::sim;

namespace {

constexpr std::int64_t kPayloadBytes = 64;

// A message shaped like real MPI traffic: protocol header + small payload.
dn::Message mpi_shaped(deep::hw::NodeId src, deep::hw::NodeId dst,
                       std::uint64_t seq) {
  dn::Message m;
  m.src = src;
  m.dst = dst;
  m.port = dn::Port::Raw;  // raw handler: we bench the wire, not the endpoint
  m.size_bytes = kPayloadBytes + 64;
  dm::WireHeader h;
  h.kind = dm::MsgKind::Eager;
  h.bytes = kPayloadBytes;
  h.src_ep = static_cast<dm::EpId>(src);
  h.dst_ep = static_cast<dm::EpId>(dst);
  h.seq = seq;
  m.header = h;
  // copy_payload is the same pooled entry point the MPI endpoint uses when
  // it captures a sender's buffer.
  static const std::vector<std::byte> bytes(
      static_cast<std::size_t>(kPayloadBytes), std::byte{0x5A});
  m.payload = dn::copy_payload(bytes);
  return m;
}

void BM_TorusMessageHotPath(benchmark::State& state) {
  // Steady-state cost of one header-carrying, payload-carrying message on an
  // 8x8x8 torus: routing, link bookkeeping, delivery event, NIC dispatch.
  // Engine and fabric live across iterations so pools/caches are warm.
  const int nodes = 512;
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = {8, 8, 8};
  dn::TorusFabric t(eng, "extoll", p);
  std::int64_t sink = 0;
  for (int n = 0; n < nodes; ++n)
    t.attach(n).bind(dn::Port::Raw,
                     [&sink](dn::Message&& m) { sink += m.size_bytes; });
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int n = 0; n < nodes; ++n)
      t.send(mpi_shaped(n, (n * 37 + 11) % nodes, seq++), dn::Service::Small);
    eng.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_TorusMessageHotPath);

void BM_TorusBulkContended(benchmark::State& state) {
  // Bulk (RMA-class) messages with shared-link contention resolution.
  const int nodes = 512;
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = {8, 8, 8};
  dn::TorusFabric t(eng, "extoll", p);
  for (int n = 0; n < nodes; ++n)
    t.attach(n).bind(dn::Port::Raw, [](dn::Message&&) {});
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int n = 0; n < nodes; ++n)
      t.send(mpi_shaped(n, (n + nodes / 2) % nodes, seq++), dn::Service::Bulk);
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_TorusBulkContended);

void BM_CrossbarMessageHotPath(benchmark::State& state) {
  // Same message shape over the flat InfiniBand model: isolates the shared
  // Message/payload/delivery cost from torus routing.
  const int nodes = 64;
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  for (int n = 0; n < nodes; ++n)
    ib.attach(n).bind(dn::Port::Raw, [](dn::Message&&) {});
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int n = 0; n < nodes; ++n)
      ib.send(mpi_shaped(n, (n + 1) % nodes, seq++), dn::Service::Small);
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_CrossbarMessageHotPath);

void BM_CbpBridgeHotPath(benchmark::State& state) {
  // Cross-fabric messages: wrap in a CBP frame, hop to a gateway, SMFU
  // processing, re-injection on the far fabric.
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
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      bridge.send(mpi_shaped(i % 4, 10 + i % 4, seq++), dn::Service::Small);
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CbpBridgeHotPath);

void BM_MpiEagerThroughput(benchmark::State& state) {
  // End-to-end: rank 0 streams eager messages to rank 1 (isend + periodic
  // wait), covering Endpoint::start_send, sequencing, matching and delivery.
  const int msgs = 512;
  for (auto _ : state) {
    deep::testing::MpiRig rig(2);
    rig.run([msgs](dm::Mpi& mpi) {
      std::vector<std::byte> buf(kPayloadBytes);
      if (mpi.rank() == 0) {
        for (int i = 0; i < msgs; ++i) mpi.send_bytes(mpi.world(), 1, 0, buf);
      } else {
        for (int i = 0; i < msgs; ++i) mpi.recv_bytes(mpi.world(), 0, 0, buf);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_MpiEagerThroughput);

}  // namespace

BENCHMARK_MAIN();
