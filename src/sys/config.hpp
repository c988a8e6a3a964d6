#pragma once
// System-level configuration of a simulated DEEP machine.

#include <array>
#include <string>

#include "cbp/gateway.hpp"
#include "ckpt/checkpoint.hpp"
#include "hw/spec.hpp"
#include "io/fs.hpp"
#include "io/ionet.hpp"
#include "mpi/system.hpp"
#include "net/crossbar.hpp"
#include "net/dragonfly.hpp"
#include "net/fattree.hpp"
#include "net/fault.hpp"
#include "net/torus.hpp"
#include "sim/time.hpp"
#include "sys/resilient.hpp"

namespace deep::sys {

/// Booster allocation policy of the resource manager (slide 21: "resources
/// managed statically or dynamically").
enum class AllocPolicy {
  Dynamic,          // one shared pool; any free booster node can serve anyone
  StaticPartition,  // pool pre-divided into fixed partitions per consumer
};

/// Booster-interconnect topology (docs/topologies.md).  Deep is the paper's
/// machine: EXTOLL 3-D torus booster behind the InfiniBand crossbar cluster.
/// FatTree and Dragonfly swap the *booster* fabric for the competing
/// designs (Solnushkin's fat-tree of many-core nodes; the modern dragonfly
/// counterfactual) while keeping the cluster, gateways and CBP bridge —
/// the comparison the cross-topology bench matrix answers.
enum class Topology {
  Deep,
  FatTree,
  Dragonfly,
};

/// Canonical lower-case name ("deep" | "fattree" | "dragonfly").
const char* topology_name(Topology t);
/// Parses a canonical name; false (out untouched) for unknown names.
bool parse_topology(const std::string& name, Topology& out);

/// Observability (docs/observability.md): when enabled, DeepSystem owns an
/// obs::Registry and attaches it to the engine before building any layer, so
/// every subsystem registers its instruments.  Off by default — detached
/// handles cost one dead branch per record site.
struct MetricsParams {
  bool enabled = false;
};

struct SystemConfig {
  int cluster_nodes = 8;
  int booster_nodes = 16;
  int gateways = 2;

  hw::NodeSpec cluster_spec = hw::xeon_cluster_node();
  hw::NodeSpec booster_spec = hw::knc_booster_node();
  hw::NodeSpec gateway_spec = hw::gateway_node();

  /// Which fabric the booster nodes (and the booster side of the gateways)
  /// live on.  Deep keeps `extoll`; FatTree/Dragonfly use the params below,
  /// auto-grown when too small for booster_nodes + gateways.
  Topology topology = Topology::Deep;
  /// Congestion-aware routing on the booster fabric: least-loaded-uplink on
  /// the fat-tree, UGAL on the dragonfly (no effect on the torus, whose
  /// dimension-ordered routes are fixed).  Deterministic — the choice keys
  /// only on simulated link-busy state.
  bool adaptive_routing = false;

  net::CrossbarParams ib;
  net::TorusParams extoll;  // dims auto-derived when left {0,0,0}
  net::FatTreeParams fattree;      // booster fabric when topology == FatTree
  net::DragonflyParams dragonfly;  // booster fabric when topology == Dragonfly
  cbp::BridgeParams bridge;
  mpi::MpiParams mpi;
  MetricsParams metrics;

  /// Fault injection (RAS testing): applied to both fabrics and the CBP
  /// gateways.  The all-defaults spec is inactive and installs nothing.
  net::FaultSpec faults;

  /// Multi-level checkpointing (docs/resiliency.md).  Inactive by default;
  /// when active, DeepSystem brings up the storage stack (io::IoNet over the
  /// bridge, io::ParallelFs striped over the gateway nodes' NVM) and
  /// launch_resilient() jobs checkpoint and restart through it.
  ckpt::CkptParams ckpt;
  io::IoParams io;
  io::FsParams fs;
  /// Restart orchestration knobs for launch_resilient().
  ResilienceParams resilience;

  AllocPolicy alloc_policy = AllocPolicy::Dynamic;
  int static_partitions = 0;  // used with StaticPartition; 0 = cluster_nodes

  /// Engine worker threads (sim::Engine::set_workers).  Results are
  /// bit-identical for every value (docs/parallel_engine.md).
  int workers = 1;

  /// Engine partitions (sim::Engine::set_partitions).  1 — the default —
  /// is the classic serial machine, bit-for-bit.  P > 1 splits the booster
  /// torus into P-1 contiguous topology blocks (net::auto_partition) placed
  /// on partitions 1..P-1 and keeps the cluster, the gateways and the
  /// control plane (launcher, resource manager, spawn roots) on partition
  /// 0; per-pair lookaheads derive from the fabrics' route distances.
  /// Requires inactive faults and a gateway policy that is pure at send
  /// time (ByPair or Pinned, not RoundRobin).
  int partitions = 1;

  // Process start-up model for comm_spawn (ParaStation-style tree startup).
  sim::Duration rm_latency = sim::from_micros(200);     // allocation decision
  sim::Duration launch_base = sim::from_micros(500);    // exec + MPI init
  sim::Duration launch_per_level = sim::from_micros(50);  // startup tree depth
  sim::Duration launch_stagger = sim::from_micros(2);   // per-process skew
};

/// Derives a reasonably cubic torus for `n` booster nodes (plus gateways).
std::array<int, 3> derive_torus_dims(int n);

/// Grows dragonfly (groups, routers_per_group, nodes_per_router) until the
/// fabric holds `n` nodes, keeping the three dimensions balanced.
net::DragonflyParams derive_dragonfly_dims(net::DragonflyParams base, int n);

/// Resolves `--workers auto`: one engine worker per host core, clamped to
/// the partition count (extra workers would only park at the barriers) and
/// to at least one.  `host_cpus` of 0 — hardware_concurrency unknown —
/// resolves to 1.
int auto_workers(int host_cpus, int partitions);

}  // namespace deep::sys
