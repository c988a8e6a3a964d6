#include "sys/system.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "net/partition.hpp"
#include "util/log.hpp"

namespace deep::sys {

// ---------------------------------------------------------------------------
// ProgramRegistry
// ---------------------------------------------------------------------------

void ProgramRegistry::add(std::string name, Program program) {
  DEEP_EXPECT(static_cast<bool>(program), "ProgramRegistry: empty program");
  const auto [it, inserted] =
      programs_.emplace(std::move(name), std::move(program));
  DEEP_EXPECT(inserted, "ProgramRegistry: program already registered");
}

const Program& ProgramRegistry::get(const std::string& name) const {
  auto it = programs_.find(name);
  DEEP_EXPECT(it != programs_.end(),
              "ProgramRegistry: unknown program '" + name + "'");
  return it->second;
}

bool ProgramRegistry::contains(const std::string& name) const {
  return programs_.contains(name);
}

// ---------------------------------------------------------------------------
// DeepSystem construction
// ---------------------------------------------------------------------------

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::Deep:
      return "deep";
    case Topology::FatTree:
      return "fattree";
    case Topology::Dragonfly:
      return "dragonfly";
  }
  return "deep";
}

bool parse_topology(const std::string& name, Topology& out) {
  if (name == "deep") {
    out = Topology::Deep;
  } else if (name == "fattree") {
    out = Topology::FatTree;
  } else if (name == "dragonfly") {
    out = Topology::Dragonfly;
  } else {
    return false;
  }
  return true;
}

net::DragonflyParams derive_dragonfly_dims(net::DragonflyParams base, int n) {
  DEEP_EXPECT(n >= 1, "derive_dragonfly_dims: need at least one node");
  if (base.groups < 2) base.groups = 2;
  if (base.routers_per_group < 1) base.routers_per_group = 1;
  if (base.nodes_per_router < 1) base.nodes_per_router = 1;
  // Grow the smallest dimension first (groups on ties: more groups means
  // more global-link path diversity for Valiant/adaptive routing).
  while (base.groups * base.routers_per_group * base.nodes_per_router < n) {
    if (base.groups <= base.routers_per_group &&
        base.groups <= base.nodes_per_router) {
      ++base.groups;
    } else if (base.routers_per_group <= base.nodes_per_router) {
      ++base.routers_per_group;
    } else {
      ++base.nodes_per_router;
    }
  }
  return base;
}

std::array<int, 3> derive_torus_dims(int n) {
  DEEP_EXPECT(n >= 1, "derive_torus_dims: need at least one node");
  // Smallest near-cubic box with capacity >= n.
  int x = 1, y = 1, z = 1;
  while (x * y * z < n) {
    if (x <= y && x <= z)
      ++x;
    else if (y <= z)
      ++y;
    else
      ++z;
  }
  return {x, y, z};
}

int auto_workers(int host_cpus, int partitions) {
  return std::max(1, std::min(host_cpus, partitions));
}

DeepSystem::DeepSystem(SystemConfig config) : config_(std::move(config)) {
  DEEP_EXPECT(config_.cluster_nodes >= 1, "DeepSystem: need cluster nodes");
  DEEP_EXPECT(config_.booster_nodes >= 1, "DeepSystem: need booster nodes");
  DEEP_EXPECT(config_.gateways >= 1, "DeepSystem: need at least one gateway");
  DEEP_EXPECT(config_.workers >= 1, "DeepSystem: need at least one worker");
  DEEP_EXPECT(config_.partitions >= 1, "DeepSystem: need at least one partition");
  DEEP_EXPECT(config_.partitions <= 1 + config_.booster_nodes,
              "DeepSystem: more partitions than booster nodes plus one "
              "(partitions 1..P-1 are torus blocks; partition 0 is the "
              "cluster side)");
  if (config_.partitions > 1) {
    DEEP_EXPECT(!config_.faults.active(),
                "DeepSystem: fault injection requires partitions == 1 "
                "(fault state is shared across partitions; use workers > 1 "
                "at partitions == 1 for parallel chaos coverage)");
    DEEP_EXPECT(config_.bridge.policy != cbp::GatewayPolicy::RoundRobin,
                "DeepSystem: RoundRobin gateway policy mutates shared state "
                "on every send and requires partitions == 1; use ByPair or "
                "Pinned");
  }
  engine_.set_partitions(static_cast<std::uint32_t>(config_.partitions));
  engine_.set_workers(static_cast<std::uint32_t>(config_.workers));

  ib_ = std::make_unique<net::CrossbarFabric>(engine_, "infiniband", config_.ib);
  // The booster interconnect is selected by config.topology; the cluster
  // crossbar, the gateways and the CBP bridge stay the same, so the machine
  // differs ONLY in its booster fabric — the head-to-head comparison the
  // topology bench matrix runs (docs/topologies.md).
  const int booster_slots = config_.booster_nodes + config_.gateways;
  switch (config_.topology) {
    case Topology::Deep: {
      net::TorusParams torus = config_.extoll;
      const int torus_capacity = torus.dims[0] * torus.dims[1] * torus.dims[2];
      if (torus.dims == std::array<int, 3>{0, 0, 0} ||
          torus_capacity < booster_slots) {
        torus.dims = derive_torus_dims(booster_slots);
      }
      booster_ = std::make_unique<net::TorusFabric>(engine_, "extoll", torus);
      break;
    }
    case Topology::FatTree: {
      net::FatTreeParams ft = config_.fattree;
      if (config_.adaptive_routing) ft.routing = net::FatTreeRouting::Adaptive;
      booster_ = std::make_unique<net::FatTreeFabric>(engine_, "fattree", ft);
      break;
    }
    case Topology::Dragonfly: {
      net::DragonflyParams df =
          derive_dragonfly_dims(config_.dragonfly, booster_slots);
      if (config_.adaptive_routing)
        df.routing = net::DragonflyRouting::Adaptive;
      booster_ =
          std::make_unique<net::DragonflyFabric>(engine_, "dragonfly", df);
      break;
    }
  }
  bridge_ = std::make_unique<cbp::BridgedTransport>(engine_, *ib_, *booster_,
                                                    config_.bridge);
  mpi_ = std::make_unique<mpi::MpiSystem>(engine_, *bridge_, config_.mpi);

  hw::NodeId next = 0;
  for (int i = 0; i < config_.cluster_nodes; ++i, ++next) {
    nodes_.push_back(std::make_unique<hw::Node>(
        next, "cn" + std::to_string(i), config_.cluster_spec));
    ib_->attach(next);
    bridge_->register_cluster_node(next);
    cluster_ids_.push_back(next);
  }
  for (int i = 0; i < config_.booster_nodes; ++i, ++next) {
    nodes_.push_back(std::make_unique<hw::Node>(
        next, "bn" + std::to_string(i), config_.booster_spec));
    booster_->attach(next);
    bridge_->register_booster_node(next);
    booster_ids_.push_back(next);
  }
  for (int i = 0; i < config_.gateways; ++i, ++next) {
    nodes_.push_back(std::make_unique<hw::Node>(
        next, "bi" + std::to_string(i), config_.gateway_spec));
    ib_->attach(next);
    booster_->attach(next);
    bridge_->register_gateway(next);
    gateway_ids_.push_back(next);
  }

  if (config_.partitions > 1) {
    // Split the booster torus into contiguous topology blocks on engine
    // partitions 1..P-1; the gateways stay with the cluster and the control
    // plane on partition 0.  The engine's safe-window widths then derive
    // from actual route distances between the blocks.
    net::AutoPartitionOptions opts;
    opts.first_partition = 1;
    opts.pinned = gateway_ids_;
    opts.pin_to = 0;
    net::auto_partition(*booster_,
                        static_cast<std::uint32_t>(config_.partitions - 1),
                        opts);
    // The crossbar never carries cross-partition traffic (cluster nodes and
    // gateways all live on partition 0) and reports unconstrained pairs.
    net::install_pair_lookahead(engine_, {ib_.get(), booster_.get()});
  }

  if (config_.ckpt.active()) {
    // Storage stack for multi-level checkpointing: IoNet over the bridged
    // transport (Io messages cross gateways like MPI traffic), served by
    // the nodes' NVM devices; the parallel FS stripes over the gateway/BI
    // nodes, whose large NVM is the machine's durable storage tier.
    DEEP_EXPECT(config_.partitions == 1,
                "DeepSystem: checkpointing requires partitions == 1 (restart "
                "orchestration mutates state shared across ranks)");
    ionet_ = std::make_unique<io::IoNet>(engine_, *bridge_, config_.io);
    io::install_nvm_service(*ionet_, [this](hw::NodeId id) {
      return id >= 0 && id < static_cast<hw::NodeId>(nodes_.size())
                 ? nodes_[static_cast<std::size_t>(id)].get()
                 : nullptr;
    });
    for (hw::NodeId id : cluster_ids_) ionet_->attach(ib_->nic(id));
    for (hw::NodeId id : booster_ids_) ionet_->attach(booster_->nic(id));
    for (hw::NodeId id : gateway_ids_) {
      // Gateways sit on both fabrics; booster-side requests arrive on the
      // EXTOLL NIC, cluster-side ones on the InfiniBand NIC.
      ionet_->attach(ib_->nic(id));
      ionet_->attach(booster_->nic(id));
    }
    fs_ = std::make_unique<io::ParallelFs>(*ionet_, gateway_ids_, config_.fs);
  }

  const int rm_partitions =
      config_.alloc_policy == AllocPolicy::StaticPartition
          ? (config_.static_partitions > 0 ? config_.static_partitions
                                           : config_.cluster_nodes)
          : 1;
  rm_ = std::make_unique<ResourceManager>(engine_, booster_ids_,
                                          config_.alloc_policy, rm_partitions);

  mpi_->set_spawner([this](const mpi::SpawnRequest& request) {
    return spawn_children(request);
  });

  if (config_.faults.active()) {
    fault_plan_ = std::make_unique<net::FaultPlan>(engine_, config_.faults);
    fault_plan_->attach(*ib_);
    fault_plan_->attach(*booster_);
    fault_plan_->set_gateway_control([this](hw::NodeId gw, bool up) {
      bridge_->set_gateway_up(gw, up);
    });
    fault_plan_->set_node_control([this](hw::NodeId node, bool up) {
      // Copies die before fibers: each manager invalidates what the node
      // held, then the job aborts the rank fibers running on it.
      for (ResilientEntry& entry : resilient_) {
        if (entry.manager) entry.manager->on_node_event(node, up);
        entry.job->on_node_event(node, up);
      }
    });
    fault_plan_->arm();
  }
}

DeepSystem::~DeepSystem() = default;

net::TorusFabric& DeepSystem::extoll() {
  DEEP_EXPECT(config_.topology == Topology::Deep,
              "DeepSystem::extoll: booster fabric is not the EXTOLL torus "
              "(config.topology != Deep)");
  return static_cast<net::TorusFabric&>(*booster_);
}

net::DragonflyFabric& DeepSystem::dragonfly() {
  DEEP_EXPECT(config_.topology == Topology::Dragonfly,
              "DeepSystem::dragonfly: booster fabric is not a dragonfly "
              "(config.topology != Dragonfly)");
  return static_cast<net::DragonflyFabric&>(*booster_);
}

hw::Node& DeepSystem::cluster_node(int i) {
  DEEP_EXPECT(i >= 0 && i < static_cast<int>(cluster_ids_.size()),
              "cluster_node: index out of range");
  return *nodes_[static_cast<std::size_t>(cluster_ids_[static_cast<std::size_t>(i)])];
}

hw::Node& DeepSystem::booster_node(int i) {
  DEEP_EXPECT(i >= 0 && i < static_cast<int>(booster_ids_.size()),
              "booster_node: index out of range");
  return *nodes_[static_cast<std::size_t>(booster_ids_[static_cast<std::size_t>(i)])];
}

hw::Node& DeepSystem::node(hw::NodeId id) {
  DEEP_EXPECT(id >= 0 && id < static_cast<hw::NodeId>(nodes_.size()),
              "node: id out of range");
  return *nodes_[static_cast<std::size_t>(id)];
}

// ---------------------------------------------------------------------------
// Launch & spawn
// ---------------------------------------------------------------------------

std::uint32_t DeepSystem::node_partition_of(hw::NodeId id) const {
  // Booster nodes carry their torus block's partition; cluster nodes and
  // gateways (pinned there by construction) live on partition 0.
  return booster_->attached(id) ? booster_->partition_of(id) : 0;
}

void DeepSystem::start_rank_process(
    const std::string& program_name, std::vector<std::string> args,
    const mpi::MpiSystem::World& world, int rank, sim::Duration start_delay,
    std::shared_ptr<JobHandle::State> job,
    std::shared_ptr<mpi::IntercommState> parent_proto, mpi::EpAddr ready_to) {
  const Program& program = programs_.get(program_name);
  const mpi::EpAddr self = world.group->members[static_cast<std::size_t>(rank)];
  auto body = [this, args = std::move(args), self, world, rank, job,
               parent_proto, ready_to, &program](sim::Context& ctx) {
    std::optional<mpi::Intercomm> parent;
    if (parent_proto) {
      auto st = std::make_shared<mpi::IntercommState>(*parent_proto);
      st->rank = rank;
      parent = mpi::Intercomm(std::move(st));
    }

    mpi::Mpi mpi(*mpi_, ctx, node(self.node), world, rank, std::move(parent));

    if (parent_proto) {
      // Report readiness to the spawn root (MPI_Comm_spawn returns
      // once all children are up).
      mpi_->endpoint(self.ep).start_send(ready_to, parent_proto->context, rank,
                                         mpi::kReadyTag, {});
    }

    ProgramEnv env{mpi, args, this};
    program(env);

    if (engine_.partitions() > 1) {
      // Job state is shared by every rank of the job; fold completions on
      // partition 0, where launch roots, spawn roots and the resource
      // manager (on_done releases nodes) live.  schedule_on_after lands at
      // the partition's horizon when ctx.now() is below it — deterministic,
      // since horizons are a pure function of the simulation.
      engine_.schedule_on_after(0, ctx.now(),
                                [this, job] { job->rank_done(engine_.now()); });
      return;
    }
    job->rank_done(ctx.now());
  };

  // Land on the rank's home partition first (a process may only be spawned
  // onto the partition executing it), then spawn there.  On a serial engine
  // both calls act on partition 0 with its one key stream.  Spawn delays
  // (rm latency + tree start-up, hundreds of microseconds) dwarf the pair
  // lookaheads, so the horizon clamp never moves a start in practice; when
  // it would, the clamp is deterministic.
  const std::uint32_t part = node_partition_of(self.node);
  engine_.schedule_on_after(
      part, engine_.now() + start_delay,
      [this, part, proc_name = program_name + "." + std::to_string(rank),
       body = std::move(body)] {
        engine_.spawn_on(part, proc_name, std::move(body));
      });
}

std::vector<hw::NodeId> DeepSystem::place_on_cluster(int nprocs) {
  std::vector<hw::NodeId> placement;
  placement.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    placement.push_back(
        cluster_ids_[static_cast<std::size_t>((next_cluster_rr_ + i) %
                                              config_.cluster_nodes)]);
  }
  next_cluster_rr_ = (next_cluster_rr_ + nprocs) % config_.cluster_nodes;
  return placement;
}

JobHandle DeepSystem::launch(const std::string& name, int nprocs,
                             std::vector<std::string> args) {
  DEEP_EXPECT(nprocs >= 1, "launch: need at least one process");
  DEEP_EXPECT(programs_.contains(name), "launch: program not registered");

  const mpi::MpiSystem::World world =
      mpi_->create_world(place_on_cluster(nprocs));
  JobHandle handle;
  handle.state_->total = nprocs;
  handle.state_->remaining = nprocs;
  for (int r = 0; r < nprocs; ++r) {
    start_rank_process(name, args, world, r, sim::Duration{0}, handle.state_,
                       nullptr, {});
  }
  return handle;
}

ResilientJob& DeepSystem::launch_resilient(const std::string& name, int nprocs,
                                           std::vector<std::string> args) {
  DEEP_EXPECT(nprocs >= 1, "launch_resilient: need at least one process");
  DEEP_EXPECT(programs_.contains(name),
              "launch_resilient: program not registered");

  std::vector<hw::Node*> rank_nodes;
  rank_nodes.reserve(static_cast<std::size_t>(nprocs));
  for (const hw::NodeId id : place_on_cluster(nprocs))
    rank_nodes.push_back(&node(id));

  ResilientEntry entry;
  if (config_.ckpt.active()) {
    entry.manager = std::make_unique<ckpt::Manager>(
        engine_, config_.ckpt, rank_nodes, ionet_.get(), fs_.get());
  }
  const Program& program = programs_.get(name);
  entry.job = std::make_unique<ResilientJob>(
      engine_, *mpi_, rank_nodes, entry.manager.get(), config_.resilience,
      [this, &program, args = std::move(args)](mpi::Mpi& mpi,
                                               ckpt::Checkpointer* ck) {
        ProgramEnv env{mpi, args, this, ck};
        program(env);
      });
  // Any fabric traffic counts as watchdog progress: long checkpoint-free
  // stretches of a healthy job cannot be mistaken for a stall.
  entry.job->set_progress_probe([this] {
    return ib_->stats().messages + booster_->stats().messages;
  });
  resilient_.push_back(std::move(entry));
  ResilientJob& job = *resilient_.back().job;
  job.start();
  return job;
}

mpi::SpawnResult DeepSystem::spawn_children(const mpi::SpawnRequest& request) {
  DEEP_EXPECT(programs_.contains(request.command),
              "comm_spawn: program '" + request.command + "' not registered");

  int partition_key = 0;
  if (auto it = request.info.find("deep_partition"); it != request.info.end())
    partition_key = std::stoi(it->second);
  int ranks_per_node = 1;
  if (auto it = request.info.find("deep_ranks_per_node");
      it != request.info.end()) {
    ranks_per_node = std::stoi(it->second);
    DEEP_EXPECT(ranks_per_node >= 1 &&
                    ranks_per_node <= config_.booster_spec.cores,
                "comm_spawn: deep_ranks_per_node out of range");
  }

  const int nodes_needed =
      (request.maxprocs + ranks_per_node - 1) / ranks_per_node;
  const auto allocation = rm_->allocate(nodes_needed, partition_key);
  if (!allocation) {
    mpi::SpawnResult failure;
    failure.errcodes.assign(static_cast<std::size_t>(request.maxprocs), 1);
    util::log_info("spawn of '", request.command, "' x", request.maxprocs,
                   " failed: booster exhausted");
    return failure;
  }

  // Per-rank placement: consecutive ranks share a node (block placement, as
  // ParaStation fills nodes).
  std::vector<hw::NodeId> placement;
  placement.reserve(static_cast<std::size_t>(request.maxprocs));
  for (int r = 0; r < request.maxprocs; ++r)
    placement.push_back(
        (*allocation)[static_cast<std::size_t>(r / ranks_per_node)]);

  const mpi::MpiSystem::World world = mpi_->create_world(placement);
  const mpi::ContextId inter_ctx = mpi_->fresh_context_block();

  auto parent_proto = std::make_shared<mpi::IntercommState>();
  parent_proto->context = inter_ctx;
  parent_proto->local = world.group;
  parent_proto->remote = request.parents;
  parent_proto->low_side = false;  // children are the high group

  const mpi::EpAddr ready_to{request.root_ep,
                             mpi_->endpoint(request.root_ep).node()};

  // Job bookkeeping: when the last child exits, booster nodes go back to
  // the pool.
  JobHandle handle;
  handle.state_->total = request.maxprocs;
  handle.state_->remaining = request.maxprocs;
  handle.state_->on_done = [this, nodes = *allocation] { rm_->release(nodes); };

  // ParaStation-style tree start-up: constant RM decision + exec cost, a
  // per-tree-level latency, and a small per-process stagger.
  const int levels = std::bit_width(static_cast<unsigned>(request.maxprocs));
  for (int r = 0; r < request.maxprocs; ++r) {
    const sim::Duration delay = config_.rm_latency + config_.launch_base +
                                config_.launch_per_level * levels +
                                config_.launch_stagger * r;
    start_rank_process(request.command, request.args, world, r, delay,
                       handle.state_, parent_proto, ready_to);
  }

  mpi::SpawnResult result;
  result.children = world.group;
  result.intercomm_context = inter_ctx;
  result.errcodes.assign(static_cast<std::size_t>(request.maxprocs), 0);
  return result;
}

// ---------------------------------------------------------------------------
// Energy
// ---------------------------------------------------------------------------

EnergyReport DeepSystem::energy() const {
  EnergyReport report;
  const sim::Duration elapsed{engine_.now().ps};
  for (const auto& node : nodes_) {
    const double joules = node->meter().joules(elapsed);
    switch (node->kind()) {
      case hw::NodeKind::Cluster:
        report.cluster_joules += joules;
        break;
      case hw::NodeKind::Booster:
        report.booster_joules += joules;
        break;
      case hw::NodeKind::Gateway:
        report.gateway_joules += joules;
        break;
      case hw::NodeKind::Device:
        break;
    }
    report.total_flops += node->meter().flops_done();
    if (const hw::NvmDevice* nvm = node->nvm())
      report.nvm_joules += nvm->active_joules();
  }
  return report;
}

}  // namespace deep::sys
