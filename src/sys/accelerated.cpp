#include "sys/accelerated.hpp"

namespace deep::sys {

AcceleratedCluster::AcceleratedCluster(AcceleratedConfig config)
    : config_(std::move(config)) {
  DEEP_EXPECT(config_.nodes >= 1, "AcceleratedCluster: need at least one node");
  ib_ = std::make_unique<net::CrossbarFabric>(engine_, "infiniband", config_.ib);
  transport_ = std::make_unique<cbp::DirectTransport>(*ib_);
  mpi_ = std::make_unique<mpi::MpiSystem>(engine_, *transport_, config_.mpi);
  for (int i = 0; i < config_.nodes; ++i) {
    hosts_.push_back(std::make_unique<hw::Node>(i, "host" + std::to_string(i),
                                                config_.host_spec));
    gpus_.push_back(std::make_unique<hw::GpuDevice>(
        "gpu" + std::to_string(i), config_.gpu_spec, config_.pcie));
    ib_->attach(i);
  }
}

AcceleratedCluster::~AcceleratedCluster() = default;

hw::Node& AcceleratedCluster::host(int i) {
  DEEP_EXPECT(i >= 0 && i < config_.nodes, "host: index out of range");
  return *hosts_[static_cast<std::size_t>(i)];
}

hw::GpuDevice& AcceleratedCluster::gpu(int i) {
  DEEP_EXPECT(i >= 0 && i < config_.nodes, "gpu: index out of range");
  return *gpus_[static_cast<std::size_t>(i)];
}

JobHandle AcceleratedCluster::launch(AccelProgram program, int nprocs,
                                     std::vector<std::string> args) {
  DEEP_EXPECT(nprocs >= 1, "launch: need at least one process");
  DEEP_EXPECT(static_cast<bool>(program), "launch: empty program");

  std::vector<hw::NodeId> placement;
  placement.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i)
    placement.push_back(static_cast<hw::NodeId>(i % config_.nodes));

  const mpi::MpiSystem::World world = mpi_->create_world(placement);
  JobHandle handle;
  handle.state_->total = nprocs;
  handle.state_->remaining = nprocs;

  for (int r = 0; r < nprocs; ++r) {
    const hw::NodeId node_id = placement[static_cast<std::size_t>(r)];
    engine_.spawn(
        "accel." + std::to_string(r),
        [this, program, args, node_id, world, r,
         job = handle.state_](sim::Context& ctx) {
          mpi::Mpi mpi(*mpi_, ctx, *hosts_[static_cast<std::size_t>(node_id)],
                       world, r);
          AccelProgramEnv env{mpi, args, *gpus_[static_cast<std::size_t>(node_id)]};
          program(env);
          job->rank_done(ctx.now());
        });
  }
  return handle;
}

EnergyReport AcceleratedCluster::energy() const {
  EnergyReport report;
  const sim::Duration elapsed{engine_.now().ps};
  for (const auto& host : hosts_) {
    report.cluster_joules += host->meter().joules(elapsed);
    report.total_flops += host->meter().flops_done();
  }
  for (const auto& gpu : gpus_) {
    // GPUs are part of the cluster nodes in this architecture.
    report.cluster_joules += gpu->meter().joules(elapsed);
    report.total_flops += gpu->meter().flops_done();
  }
  return report;
}

}  // namespace deep::sys
