#pragma once
// Shared test rig: brings up an MpiSystem over a single crossbar fabric (or
// a bridged cluster+booster pair) and runs rank programs as simulated
// processes, mimicking what the deep::sys launcher does in production code.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cbp/gateway.hpp"
#include "cbp/transport.hpp"
#include "hw/node.hpp"
#include "mpi/mpi.hpp"
#include "net/crossbar.hpp"
#include "net/partition.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"

namespace deep::testing {

/// N ranks, one per cluster node, over a plain InfiniBand crossbar.
class MpiRig {
 public:
  explicit MpiRig(int nranks, mpi::MpiParams params = {})
      : ib_(engine_, "ib", {}), transport_(ib_), system_(engine_, transport_, params) {
    std::vector<hw::NodeId> node_ids;
    for (int i = 0; i < nranks; ++i) {
      nodes_.push_back(std::make_unique<hw::Node>(i, "cn" + std::to_string(i),
                                                  hw::xeon_cluster_node()));
      ib_.attach(i);
      node_ids.push_back(i);
    }
    world_ = system_.create_world(node_ids);
  }

  sim::Engine& engine() { return engine_; }
  mpi::MpiSystem& system() { return system_; }
  net::CrossbarFabric& fabric() { return ib_; }

  /// Launches `fn` on every rank and runs the simulation to completion.
  void run(const std::function<void(mpi::Mpi&)>& fn) {
    launch(fn);
    engine_.run();
  }

  /// Launches without running (for tests that drive the engine manually).
  void launch(const std::function<void(mpi::Mpi&)>& fn) {
    const int n = world_.group->size();
    for (int r = 0; r < n; ++r) {
      engine_.spawn("rank" + std::to_string(r), [this, r, fn](sim::Context& ctx) {
        mpi::Mpi mpi(system_, ctx, *nodes_[static_cast<std::size_t>(r)], world_, r);
        fn(mpi);
      });
    }
  }

 private:
  sim::Engine engine_;
  net::CrossbarFabric ib_;
  cbp::DirectTransport transport_;
  mpi::MpiSystem system_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  mpi::MpiSystem::World world_;
};

/// N ranks, one per KNC booster node, on an EXTOLL torus (no cluster side):
/// used to study HSCP behaviour on the booster fabric in isolation.
class BoosterRig {
 public:
  explicit BoosterRig(int nranks, mpi::MpiParams params = {})
      : extoll_(engine_, "extoll",
                [&] {
                  net::TorusParams p;
                  p.dims = {0, 0, 0};
                  int x = 1, y = 1, z = 1;
                  while (x * y * z < nranks) {
                    if (x <= y && x <= z)
                      ++x;
                    else if (y <= z)
                      ++y;
                    else
                      ++z;
                  }
                  p.dims = {x, y, z};
                  return p;
                }()),
        transport_(extoll_),
        system_(engine_, transport_, params) {
    std::vector<hw::NodeId> node_ids;
    for (int i = 0; i < nranks; ++i) {
      nodes_.push_back(std::make_unique<hw::Node>(i, "bn" + std::to_string(i),
                                                  hw::knc_booster_node()));
      extoll_.attach(i);
      node_ids.push_back(i);
    }
    world_ = system_.create_world(node_ids);
  }

  sim::Engine& engine() { return engine_; }
  net::TorusFabric& fabric() { return extoll_; }

  void run(const std::function<void(mpi::Mpi&)>& fn) {
    const int n = world_.group->size();
    for (int r = 0; r < n; ++r) {
      engine_.spawn("rank" + std::to_string(r), [this, r, fn](sim::Context& ctx) {
        mpi::Mpi mpi(system_, ctx, *nodes_[static_cast<std::size_t>(r)], world_, r);
        fn(mpi);
      });
    }
    engine_.run();
  }

 private:
  sim::Engine engine_;
  net::TorusFabric extoll_;
  cbp::DirectTransport transport_;
  mpi::MpiSystem system_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  mpi::MpiSystem::World world_;
};

/// Ranks split across the cluster (first half) and the booster (second
/// half), joined by CBP gateways — the Global MPI of the paper.
class BridgedMpiRig {
 public:
  BridgedMpiRig(int cluster_ranks, int booster_ranks, int gateways,
                cbp::GatewayPolicy policy = cbp::GatewayPolicy::ByPair,
                mpi::MpiParams params = {}, cbp::BridgeParams bridge_params = {},
                int partitions = 1)
      : ib_(engine_, "ib", {}),
        extoll_(engine_, "extoll",
                [&] {
                  // The historical 4x4x4 box when it fits; otherwise the
                  // smallest near-cubic box (paper-scale rigs: 384 BN).
                  net::TorusParams p;
                  p.dims = {4, 4, 4};
                  int x = 4, y = 4, z = 4;
                  while (x * y * z < booster_ranks + gateways) {
                    if (x <= y && x <= z)
                      ++x;
                    else if (y <= z)
                      ++y;
                    else
                      ++z;
                  }
                  p.dims = {x, y, z};
                  return p;
                }()),
        bridge_(engine_, ib_, extoll_,
                [&] {
                  bridge_params.policy = policy;
                  return bridge_params;
                }()),
        system_(engine_, bridge_, params) {
    // Production partition layout (sys::SystemConfig::partitions): booster
    // torus blocks on partitions 1..P-1, cluster + gateways on 0.  Must be
    // set before any node partition is assigned.
    engine_.set_partitions(static_cast<std::uint32_t>(partitions));
    std::vector<hw::NodeId> node_ids;
    hw::NodeId next = 0;
    for (int i = 0; i < cluster_ranks; ++i, ++next) {
      nodes_.push_back(std::make_unique<hw::Node>(next, "cn" + std::to_string(i),
                                                  hw::xeon_cluster_node()));
      ib_.attach(next);
      bridge_.register_cluster_node(next);
      node_ids.push_back(next);
    }
    for (int i = 0; i < booster_ranks; ++i, ++next) {
      nodes_.push_back(std::make_unique<hw::Node>(next, "bn" + std::to_string(i),
                                                  hw::knc_booster_node()));
      extoll_.attach(next);
      bridge_.register_booster_node(next);
      node_ids.push_back(next);
    }
    for (int g = 0; g < gateways; ++g, ++next) {
      nodes_.push_back(std::make_unique<hw::Node>(next, "bi" + std::to_string(g),
                                                  hw::gateway_node()));
      ib_.attach(next);
      extoll_.attach(next);
      bridge_.register_gateway(next);
      gateway_ids_.push_back(next);
    }
    if (partitions > 1) {
      net::AutoPartitionOptions opts;
      opts.first_partition = 1;
      opts.pinned = gateway_ids_;
      opts.pin_to = 0;
      net::auto_partition(extoll_, static_cast<std::uint32_t>(partitions - 1),
                          opts);
      net::install_pair_lookahead(engine_, {&ib_, &extoll_});
    }
    world_ = system_.create_world(node_ids);
  }

  sim::Engine& engine() { return engine_; }
  mpi::MpiSystem& system() { return system_; }
  cbp::BridgedTransport& bridge() { return bridge_; }
  net::CrossbarFabric& ib() { return ib_; }
  net::TorusFabric& extoll() { return extoll_; }

  void run(const std::function<void(mpi::Mpi&)>& fn) {
    launch(fn);
    engine_.run();
  }

  /// Launches without running (for tests that arm fault plans or drive the
  /// engine manually).  On a partitioned rig every rank fiber is pinned to
  /// its node's home partition, as the sys launcher does.
  void launch(const std::function<void(mpi::Mpi&)>& fn) {
    const int n = world_.group->size();
    for (int r = 0; r < n; ++r) {
      const hw::NodeId node = world_.group->members[static_cast<std::size_t>(r)].node;
      const std::uint32_t part =
          extoll_.attached(node) ? extoll_.partition_of(node) : 0;
      engine_.spawn_on(part, "rank" + std::to_string(r), [this, r, fn](sim::Context& ctx) {
        mpi::Mpi mpi(system_, ctx, *nodes_[static_cast<std::size_t>(r)], world_, r);
        fn(mpi);
      });
    }
  }

 private:
  sim::Engine engine_;
  net::CrossbarFabric ib_;
  net::TorusFabric extoll_;
  cbp::BridgedTransport bridge_;
  mpi::MpiSystem system_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  std::vector<hw::NodeId> gateway_ids_;
  mpi::MpiSystem::World world_;
};

}  // namespace deep::testing
