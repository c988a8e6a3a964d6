#pragma once
// DeepSystem: the assembled DEEP machine (slide 14).
//
// Owns every node (cluster, booster, gateways), both fabrics, the CBP
// bridge, the Global-MPI system, the resource manager, the program registry
// ("binaries") and the offload kernel registry.  Installs the comm_spawn
// hook that allocates booster nodes, creates the children's world and
// launches their processes with a ParaStation-style tree start-up cost.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cbp/gateway.hpp"
#include "ckpt/checkpoint.hpp"
#include "hw/node.hpp"
#include "io/fs.hpp"
#include "io/ionet.hpp"
#include "mpi/mpi.hpp"
#include "net/crossbar.hpp"
#include "net/dragonfly.hpp"
#include "net/fattree.hpp"
#include "net/fault.hpp"
#include "net/torus.hpp"
#include "ompss/offload.hpp"
#include "sim/engine.hpp"
#include "sys/config.hpp"
#include "sys/resilient.hpp"
#include "sys/resource_manager.hpp"

namespace deep::sys {

class DeepSystem;

/// What a rank program receives when it starts.
struct ProgramEnv {
  mpi::Mpi& mpi;
  std::vector<std::string> args;
  DeepSystem* system = nullptr;
  /// This rank's checkpoint handle when the job was started through
  /// launch_resilient() on a checkpointing system; nullptr otherwise.
  ckpt::Checkpointer* ckpt = nullptr;
};

using Program = std::function<void(ProgramEnv&)>;

/// Named simulated binaries, resolvable by launch() and comm_spawn.
class ProgramRegistry {
 public:
  void add(std::string name, Program program);
  const Program& get(const std::string& name) const;
  bool contains(const std::string& name) const;

 private:
  std::map<std::string, Program> programs_;
};

/// Tracks one running job (an initial world or a spawned world).
class JobHandle {
 public:
  bool done() const { return state_ && state_->remaining == 0; }
  int procs() const { return state_ ? state_->total : 0; }
  sim::TimePoint finished_at() const { return state_ ? state_->finished_at : sim::TimePoint{}; }

 private:
  friend class DeepSystem;
  friend class AcceleratedCluster;
  struct State {
    int total = 0;
    int remaining = 0;
    sim::TimePoint finished_at{};
    std::function<void()> on_done;
    /// Counts one finished rank at `now`; the last one stamps finished_at
    /// and runs on_done.
    void rank_done(sim::TimePoint now) {
      remaining -= 1;
      if (remaining != 0) return;
      finished_at = now;
      if (on_done) on_done();
    }
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Aggregate energy of a node class over the simulated interval.
struct EnergyReport {
  double cluster_joules = 0;
  double booster_joules = 0;
  double gateway_joules = 0;
  double nvm_joules = 0;  // active draw of every NVM device (all classes)
  double total_flops = 0;
  double total_joules() const {
    return cluster_joules + booster_joules + gateway_joules + nvm_joules;
  }
  double gflops_per_watt() const {
    const double j = total_joules();
    return j > 0 ? total_flops / j * 1e-9 : 0.0;
  }
};

class DeepSystem {
 public:
  explicit DeepSystem(SystemConfig config);
  ~DeepSystem();
  DeepSystem(const DeepSystem&) = delete;
  DeepSystem& operator=(const DeepSystem&) = delete;

  sim::Engine& engine() { return engine_; }
  const SystemConfig& config() const { return config_; }
  ProgramRegistry& programs() { return programs_; }
  ompss::KernelRegistry& kernels() { return kernels_; }
  ResourceManager& resource_manager() { return *rm_; }
  cbp::BridgedTransport& bridge() { return *bridge_; }
  net::CrossbarFabric& ib() { return *ib_; }
  /// The booster interconnect, whatever config().topology selected.
  net::Fabric& booster_fabric() { return *booster_; }
  const net::Fabric& booster_fabric() const { return *booster_; }
  /// The EXTOLL torus (Deep topology only — guards against a silent
  /// downcast when the booster fabric is a fat-tree or dragonfly).
  net::TorusFabric& extoll();
  /// The dragonfly booster fabric (Dragonfly topology only).
  net::DragonflyFabric& dragonfly();
  mpi::MpiSystem& mpi_system() { return *mpi_; }
  /// The engine's metrics registry when config().metrics publishes it,
  /// else nullptr.  The engine records into it either way.
  obs::Registry* metrics() {
    return config_.metrics.enabled ? &engine_.metrics() : nullptr;
  }
  /// The storage stack, or nullptr when config().ckpt is inactive.
  io::IoNet* ionet() { return ionet_.get(); }
  io::ParallelFs* fs() { return fs_.get(); }

  hw::Node& cluster_node(int i);
  hw::Node& booster_node(int i);
  hw::Node& node(hw::NodeId id);

  /// The engine partition `id`'s events run on: a booster node's torus
  /// block, partition 0 for cluster nodes and gateways (and everything on a
  /// single-partition machine).
  std::uint32_t node_partition_of(hw::NodeId id) const;

  /// Starts `nprocs` instances of registered program `name` on the cluster
  /// (ranks round-robin over cluster nodes).  The job begins at the current
  /// simulation time; run() drives it to completion.
  JobHandle launch(const std::string& name, int nprocs,
                   std::vector<std::string> args = {});

  /// Starts `nprocs` instances of `name` on the cluster under restart
  /// orchestration: rank failures (chaos, node deaths) roll the job back to
  /// its last consistent checkpoint and relaunch (docs/resiliency.md).  On
  /// a checkpointing system (config().ckpt.active()) each job gets its own
  /// ckpt::Manager and ranks see ProgramEnv::ckpt.  The returned reference
  /// lives as long as the system.
  ResilientJob& launch_resilient(const std::string& name, int nprocs,
                                 std::vector<std::string> args = {});

  /// Runs the simulation until all events are drained.
  void run() { engine_.run(); }

  /// Energy drawn by all nodes from t=0 until now.
  EnergyReport energy() const;

 private:
  mpi::SpawnResult spawn_children(const mpi::SpawnRequest& request);
  /// The nodes of an `nprocs`-rank cluster job: round-robin over the
  /// cluster nodes, continuing where the previous job left off.
  std::vector<hw::NodeId> place_on_cluster(int nprocs);
  /// Starts rank `rank` of `world` on its endpoint's node, `start_delay`
  /// from now.
  void start_rank_process(const std::string& program_name,
                          std::vector<std::string> args,
                          const mpi::MpiSystem::World& world, int rank,
                          sim::Duration start_delay,
                          std::shared_ptr<JobHandle::State> job,
                          std::shared_ptr<mpi::IntercommState> parent_proto,
                          mpi::EpAddr ready_to);

  SystemConfig config_;
  sim::Engine engine_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;  // indexed by NodeId
  std::vector<hw::NodeId> cluster_ids_;
  std::vector<hw::NodeId> booster_ids_;
  std::vector<hw::NodeId> gateway_ids_;
  std::unique_ptr<net::CrossbarFabric> ib_;
  std::unique_ptr<net::Fabric> booster_;  // torus | fat tree | dragonfly
  std::unique_ptr<cbp::BridgedTransport> bridge_;
  std::unique_ptr<mpi::MpiSystem> mpi_;
  std::unique_ptr<io::IoNet> ionet_;
  std::unique_ptr<io::ParallelFs> fs_;
  std::unique_ptr<net::FaultPlan> fault_plan_;
  std::unique_ptr<ResourceManager> rm_;
  /// One manager + job per launch_resilient() call; the fault plan's
  /// node-control hook fans out to every entry.
  struct ResilientEntry {
    std::unique_ptr<ckpt::Manager> manager;
    std::unique_ptr<ResilientJob> job;
  };
  std::vector<ResilientEntry> resilient_;
  ProgramRegistry programs_;
  ompss::KernelRegistry kernels_;
  int next_cluster_rr_ = 0;
};

}  // namespace deep::sys
