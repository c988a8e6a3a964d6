// Parallel-engine speedup at paper scale: wall-clock time to simulate the
// DEEP machine's fabric traffic (128 cluster nodes, 384 booster nodes, 4
// gateways) at increasing worker counts (sim::Engine::set_workers).
//
// The booster torus is split into four contiguous topology blocks by
// net::auto_partition (engine partitions 1..4); the cluster, the gateways
// and the crossbar stay on partition 0 — exactly the layout
// sys::SystemConfig::partitions produces.  Each booster node runs a dense
// local event stream (the per-event host work is a calibrated arithmetic
// spin standing in for model code) and exchanges fabric messages in one of
// two communication patterns:
//
//   stencil — every node sends to its six torus neighbours in turn
//             (Jacobi halo exchange, the paper's HSCP sweep pattern);
//   spmv    — every node sends across an index band (+-1, +-2, +-4 in
//             booster-id order, a banded-matrix row distribution).
//
// Cluster nodes tick an order of magnitude slower (low/medium-scalable
// driver code lives there) and exchange messages with boosters through the
// gateways, so the conservative windows carry real cross-partition traffic
// on every lane: block<->block, cluster->booster and booster->cluster.
//
// The acceptance claims are (a) bit-identical outcomes at every worker
// count, checked here via (events, final time, per-partition sinks), and
// (b) wall-clock speedup on multi-core hosts — gated by
// scripts/bench.py check parallel against its 3.0 speedup floor, skipped
// when the host has fewer cores than the gate's worker count.
//
// Prints the table; --json PATH additionally records the machine-readable
// result (scripts/bench.py run parallel reduces it to rows of
// results/BENCH.json).
// host_cpus and "undersubscribed" are recorded because speedup is bounded
// by physical cores: on a 1-CPU container every worker count must take
// about the same wall-clock.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "net/crossbar.hpp"
#include "net/partition.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"

namespace db = deep::bench;
namespace dh = deep::hw;
namespace dn = deep::net;
namespace ds = deep::sim;
namespace du = deep::util;

namespace {

// Paper-scale machine (ICPP'13 slide 14: 128 CN + 384 BN).
constexpr int kClusterNodes = 128;
constexpr int kBoosterNodes = 384;
constexpr int kGateways = 4;
constexpr std::uint32_t kPartitions = 5;  // 0 = cluster side, 1..4 = blocks

// Node-id layout (one id space across both fabrics, as in sys::DeepSystem).
constexpr dh::NodeId kBoosterBase = 0;    // torus
constexpr dh::NodeId kGatewayBase = 384;  // torus + crossbar
constexpr dh::NodeId kClusterBase = 500;  // crossbar

constexpr std::int64_t kBoosterTickPs = 100'000;    // local event every 100 ns
constexpr std::int64_t kClusterTickPs = 1'000'000;  // driver event every 1 us
constexpr std::int64_t kSimPs = 400'000'000;        // 400 us of virtual time
constexpr int kBoosterSpin = 400;  // host work per booster event
constexpr int kClusterSpin = 100;  // host work per cluster event
constexpr int kSendEvery = 4;      // fabric message every 4th booster tick
constexpr int kUplinkEvery = 32;   // booster->gateway message cadence
constexpr int kDownlinkEvery = 8;  // cluster->gateway message cadence

constexpr std::uint32_t kGateWorkers = 4;  // the gated worker count

/// Calibrated per-event host work; returns a value so it cannot fold away.
std::uint64_t spin(std::uint64_t seed, int iters) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < iters; ++i)
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

enum class Pattern { Stencil, Spmv };

struct RunResult {
  double wall_ms = 0;
  std::size_t events = 0;
  std::int64_t final_ps = 0;
  std::uint64_t sink = 0;          // XOR of all per-partition sinks
  std::int64_t windows = 0;        // sim.windows + sim.solo_windows
  bool fingerprint_equal(const RunResult& o) const {
    return events == o.events && final_ps == o.final_ps && sink == o.sink;
  }
};

RunResult run_once(Pattern pattern, std::uint32_t workers) {
  ds::Engine engine;
  engine.set_partitions(kPartitions);
  engine.set_workers(workers);

  dn::TorusParams tp;
  tp.dims = {8, 7, 7};  // 392 slots >= 384 BN + 4 GW
  dn::TorusFabric torus(engine, "extoll", tp);
  dn::CrossbarFabric xbar(engine, "infiniband", dn::CrossbarParams{});

  for (int i = 0; i < kBoosterNodes; ++i) torus.attach(kBoosterBase + i);
  for (int i = 0; i < kGateways; ++i) {
    torus.attach(kGatewayBase + i);
    xbar.attach(kGatewayBase + i);
  }
  for (int i = 0; i < kClusterNodes; ++i) xbar.attach(kClusterBase + i);

  // The production layout: booster blocks on partitions 1..4, gateways
  // pinned to the cluster side, pair lookaheads from route distances.
  dn::AutoPartitionOptions opts;
  opts.first_partition = 1;
  for (int i = 0; i < kGateways; ++i) opts.pinned.push_back(kGatewayBase + i);
  opts.pin_to = 0;
  dn::auto_partition(torus, kPartitions - 1, opts);
  dn::install_pair_lookahead(engine, {&torus, &xbar});

  // Per-partition accumulators: each cell is only ever touched by events of
  // its own partition, so the XOR fold is free of races and deterministic.
  auto sink = std::make_shared<std::vector<std::uint64_t>>(kPartitions, 0);
  auto bump = [sink](std::uint32_t part, std::uint64_t v) {
    (*sink)[part] ^= v;
  };

  // Receive side: booster NICs spin (compute on arrival), gateways forward.
  for (int i = 0; i < kBoosterNodes; ++i) {
    const std::uint32_t part = torus.partition_of(kBoosterBase + i);
    torus.nic(kBoosterBase + i)
        .bind(dn::Port::Raw, [bump, part](dn::Message&& msg) {
          bump(part, spin(static_cast<std::uint64_t>(msg.size_bytes),
                          kBoosterSpin / 4));
        });
  }
  for (int i = 0; i < kGateways; ++i) {
    const dh::NodeId gw = kGatewayBase + i;
    // Downlink: a cluster message arrives on the crossbar; re-inject on the
    // torus towards a booster derived from the (deterministic) source.
    xbar.nic(gw).bind(dn::Port::Raw, [&torus, gw](dn::Message&& msg) {
      dn::Message fwd;
      fwd.src = gw;
      fwd.dst = kBoosterBase +
                static_cast<dh::NodeId>((msg.src * 7919 + msg.size_bytes) %
                                        kBoosterNodes);
      fwd.size_bytes = msg.size_bytes;
      torus.send(std::move(fwd), dn::Service::Bulk);
    });
    // Uplink: a booster message arrives on the torus; hand it to a cluster
    // node over the crossbar.
    torus.nic(gw).bind(dn::Port::Raw, [&xbar, gw](dn::Message&& msg) {
      dn::Message fwd;
      fwd.src = gw;
      fwd.dst = kClusterBase +
                static_cast<dh::NodeId>((msg.src * 31) % kClusterNodes);
      fwd.size_bytes = msg.size_bytes;
      xbar.send(std::move(fwd), dn::Service::Bulk);
    });
  }
  for (int i = 0; i < kClusterNodes; ++i) {
    xbar.nic(kClusterBase + i)
        .bind(dn::Port::Raw, [bump](dn::Message&& msg) {
          bump(0, spin(static_cast<std::uint64_t>(msg.size_bytes),
                       kClusterSpin));
        });
  }

  // Booster tick chains: local work plus the pattern's fabric traffic.
  // The closures capture the vector by raw pointer — a shared_ptr capture
  // would form an ownership cycle (vector -> function -> vector) and leak
  // one chain set per run.
  auto ticks = std::make_unique<std::vector<std::function<void()>>>(
      static_cast<std::size_t>(kBoosterNodes + kClusterNodes));
  auto* tickp = ticks.get();
  const auto dims = tp.dims;
  for (int n = 0; n < kBoosterNodes; ++n) {
    const std::uint32_t part = torus.partition_of(kBoosterBase + n);
    (*ticks)[static_cast<std::size_t>(n)] = [&engine, &torus, tickp, bump,
                                             dims, part, pattern, n] {
      const std::int64_t now_ps = engine.now().ps;
      const std::int64_t tick = now_ps / kBoosterTickPs;
      bump(part, spin(static_cast<std::uint64_t>(now_ps) + n, kBoosterSpin));
      if ((tick + n) % kSendEvery == 0) {
        const std::int64_t phase = (tick / kSendEvery + n) % 6;
        dh::NodeId dst;
        if (pattern == Pattern::Stencil) {
          // One of the six torus neighbours, rotating per send.
          const int x = n % dims[0], y = (n / dims[0]) % dims[1],
                    z = n / (dims[0] * dims[1]);
          int c[3] = {x, y, z};
          const int axis = static_cast<int>(phase) / 2;
          const int dir = (phase % 2 == 0) ? 1 : dims[axis] - 1;
          c[axis] = (c[axis] + dir) % dims[axis];
          const int lin = c[0] + dims[0] * (c[1] + dims[1] * c[2]);
          dst = kBoosterBase + (lin % kBoosterNodes);
        } else {
          // Banded row distribution: +-1, +-2, +-4 in booster-id order.
          static constexpr int kBand[6] = {1, -1, 2, -2, 4, -4};
          dst = kBoosterBase +
                (n + kBand[phase] + kBoosterNodes) % kBoosterNodes;
        }
        dn::Message msg;
        msg.src = kBoosterBase + n;
        msg.dst = dst;
        msg.size_bytes = 1024 + (n % 8) * 128;
        torus.send(std::move(msg), dn::Service::Bulk);
      }
      if ((tick + n) % kUplinkEvery == 0) {
        dn::Message msg;
        msg.src = kBoosterBase + n;
        msg.dst = kGatewayBase + (n % kGateways);
        msg.size_bytes = 512;
        torus.send(std::move(msg), dn::Service::Bulk);
      }
      if (now_ps + kBoosterTickPs <= kSimPs)
        engine.schedule_at(engine.now() + ds::Duration{kBoosterTickPs},
                           (*tickp)[static_cast<std::size_t>(n)]);
    };
    engine.schedule_on(part, ds::TimePoint{kBoosterTickPs},
                       (*ticks)[static_cast<std::size_t>(n)]);
  }

  // Cluster tick chains: light driver work, periodic downlink traffic.
  for (int c = 0; c < kClusterNodes; ++c) {
    const std::size_t slot = static_cast<std::size_t>(kBoosterNodes + c);
    (*ticks)[slot] = [&engine, &xbar, tickp, bump, c, slot] {
      const std::int64_t now_ps = engine.now().ps;
      const std::int64_t tick = now_ps / kClusterTickPs;
      bump(0, spin(static_cast<std::uint64_t>(now_ps) + c, kClusterSpin));
      if ((tick + c) % kDownlinkEvery == 0) {
        dn::Message msg;
        msg.src = kClusterBase + c;
        msg.dst = kGatewayBase + (c % kGateways);
        msg.size_bytes = 2048 + (c % 4) * 256;
        xbar.send(std::move(msg), dn::Service::Bulk);
      }
      if (now_ps + kClusterTickPs <= kSimPs)
        engine.schedule_at(engine.now() + ds::Duration{kClusterTickPs},
                           (*tickp)[slot]);
    };
    engine.schedule_on(0, ds::TimePoint{kClusterTickPs}, (*ticks)[slot]);
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = engine.events_executed();
  r.final_ps = engine.now().ps;
  for (const std::uint64_t s : *sink) r.sink ^= s;
  r.windows = engine.metrics().value("sim.windows") +
              engine.metrics().value("sim.solo_windows");
  return r;
}

const char* pattern_name(Pattern p) {
  return p == Pattern::Stencil ? "stencil" : "spmv";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int reps = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    if (arg == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
  }
  const bool csv = db::want_csv(argc, argv);

  db::banner(
      "parallel engine: wall-clock vs workers (128 CN + 384 BN, 4 torus "
      "blocks)");
  const unsigned host_cpus = std::thread::hardware_concurrency();
  const bool undersubscribed = host_cpus < kGateWorkers;
  std::printf("host_cpus: %u%s\n", host_cpus,
              undersubscribed ? "  (undersubscribed: speedup unmeasurable)"
                              : "");

  const std::vector<std::uint32_t> worker_counts{1, 2, 4, 8};
  const std::vector<Pattern> patterns{Pattern::Stencil, Pattern::Spmv};

  bool deterministic = true;
  double gate_speedup = -1;  // min over patterns of speedup at kGateWorkers

  struct WorkloadRow {
    Pattern pattern;
    std::vector<RunResult> best;
    double speedup_at_gate = 0;
  };
  std::vector<WorkloadRow> workloads;

  for (const Pattern pattern : patterns) {
    WorkloadRow row;
    row.pattern = pattern;
    for (const std::uint32_t w : worker_counts) {
      RunResult r = run_once(pattern, w);
      for (int rep = 1; rep < reps; ++rep) {
        const RunResult again = run_once(pattern, w);
        if (again.wall_ms < r.wall_ms) r = again;
      }
      row.best.push_back(r);
    }
    du::Table table({"workload", "workers", "wall_ms", "speedup", "events",
                     "windows"});
    for (std::size_t i = 0; i < row.best.size(); ++i) {
      deterministic =
          deterministic && row.best[i].fingerprint_equal(row.best[0]);
      const double sp = row.best[0].wall_ms / row.best[i].wall_ms;
      if (worker_counts[i] == kGateWorkers) row.speedup_at_gate = sp;
      table.row()
          .add(pattern_name(pattern))
          .add(static_cast<std::int64_t>(worker_counts[i]))
          .add(row.best[i].wall_ms)
          .add(sp)
          .add(static_cast<std::int64_t>(row.best[i].events))
          .add(row.best[i].windows);
    }
    db::print_table(table, csv);
    gate_speedup = gate_speedup < 0
                       ? row.speedup_at_gate
                       : std::min(gate_speedup, row.speedup_at_gate);
    workloads.push_back(std::move(row));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"bench_parallel\",\n";
    out << "  \"host_cpus\": " << host_cpus << ",\n";
    out << "  \"undersubscribed\": " << (undersubscribed ? "true" : "false")
        << ",\n";
    out << "  \"partitions\": " << kPartitions << ",\n";
    out << "  \"cluster_nodes\": " << kClusterNodes << ",\n";
    out << "  \"booster_nodes\": " << kBoosterNodes << ",\n";
    out << "  \"gateways\": " << kGateways << ",\n";
    out << "  \"sim_us\": " << (kSimPs / 1'000'000.0) << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"deterministic\": " << (deterministic ? "true" : "false")
        << ",\n";
    out << "  \"baseline\": {\"speedup_floor\": 3.0, \"gate_workers\": "
        << kGateWorkers << "},\n";
    out << "  \"gate_speedup\": " << gate_speedup << ",\n";
    out << "  \"workloads\": [\n";
    for (std::size_t wl = 0; wl < workloads.size(); ++wl) {
      const WorkloadRow& row = workloads[wl];
      out << "    {\"name\": \"" << pattern_name(row.pattern)
          << "\", \"speedup_at_gate\": " << row.speedup_at_gate
          << ", \"runs\": [\n";
      for (std::size_t i = 0; i < row.best.size(); ++i) {
        out << "      {\"workers\": " << worker_counts[i]
            << ", \"wall_ms\": " << row.best[i].wall_ms
            << ", \"speedup\": " << row.best[0].wall_ms / row.best[i].wall_ms
            << ", \"events\": " << row.best[i].events
            << ", \"windows\": " << row.best[i].windows << "}"
            << (i + 1 < row.best.size() ? "," : "") << "\n";
      }
      out << "    ]}" << (wl + 1 < workloads.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"history\": [],\n";
    out << "  \"notes\": \"gate_speedup is min over workloads of the "
           "speedup at gate_workers; scripts/bench.py check parallel "
           "enforces the speedup floor unless undersubscribed; "
           "outcomes (events, final time, sinks) must be identical at "
           "every worker count\"\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return db::verdict(
      "identical simulation outcomes at every worker count (speedups are "
      "recorded for scripts/bench.py check parallel, which gates them on "
      "multi-core hosts)",
      deterministic);
}
