#include "sys/report.hpp"

#include <ostream>
#include <sstream>

#include "util/csv.hpp"
#include "util/units.hpp"

namespace deep::sys {

namespace {

void fabric_rows(util::Table& table, const net::Fabric& fabric) {
  table.row()
      .add(fabric.name())
      .add(fabric.stats().messages)
      .add(util::format_bytes(fabric.stats().bytes))
      .add(fabric.stats().delivery_us.mean())
      .add(fabric.stats().delivery_us.max())
      .add(fabric.stats().messages_dropped)
      .add(static_cast<std::int64_t>(fabric.links_down()));
}

}  // namespace

std::string format_report(DeepSystem& system) {
  std::ostringstream os;
  const sim::TimePoint now = system.engine().now();
  os << "=== DEEP system report @ " << now.str() << " ===\n";
  os << "nodes: " << system.config().cluster_nodes << " cluster + "
     << system.config().booster_nodes << " booster + "
     << system.config().gateways << " gateways\n";
  os << "engine: " << system.engine().partitions() << " partition(s), "
     << system.engine().workers() << " worker(s)\n\n";

  util::Table fabrics({"fabric", "messages", "bytes", "mean_us", "max_us",
                       "dropped", "links_down"});
  fabric_rows(fabrics, system.ib());
  fabric_rows(fabrics, system.booster_fabric());
  os << fabrics.to_pretty() << '\n';

  util::Table gw({"gateway", "forwarded_msgs", "forwarded_bytes", "timeouts",
                  "retries", "failovers", "up"});
  for (int g = 0; g < system.config().gateways; ++g) {
    const hw::NodeId id = static_cast<hw::NodeId>(
        system.config().cluster_nodes + system.config().booster_nodes + g);
    const auto& stats = system.bridge().gateway_stats(id);
    gw.row()
        .add(system.node(id).name())
        .add(stats.forwarded_messages)
        .add(util::format_bytes(stats.forwarded_bytes))
        .add(stats.timeouts)
        .add(stats.retries)
        .add(stats.failovers)
        .add(system.bridge().gateway_up(id) ? "yes" : "NO");
  }
  os << gw.to_pretty() << '\n';
  if (system.bridge().frames_lost() > 0 ||
      system.mpi_system().messages_lost() > 0) {
    os << "losses: " << system.bridge().frames_lost()
       << " CBP frame(s) abandoned after retries, "
       << system.mpi_system().messages_lost()
       << " MPI message(s) reported lost\n\n";
  }

  const auto& rm = system.resource_manager();
  os << "booster allocation: "
     << (rm.policy() == AllocPolicy::Dynamic ? "dynamic pool"
                                             : "static partitions")
     << ", " << rm.busy_nodes() << '/' << rm.total_nodes() << " busy, "
     << rm.allocations() << " allocations (" << rm.failed_allocations()
     << " refused), utilisation "
     << static_cast<int>(rm.utilisation() * 100 + 0.5) << "%, "
     << rm.nodes_out_of_service() << " out of service\n\n";

  const auto energy = system.energy();
  util::Table e({"node_class", "joules"});
  e.row().add("cluster").add(energy.cluster_joules);
  e.row().add("booster").add(energy.booster_joules);
  e.row().add("gateways").add(energy.gateway_joules);
  e.row().add("total").add(energy.total_joules());
  os << e.to_pretty();
  os << "work: " << energy.total_flops / 1e9 << " GFlop ("
     << energy.gflops_per_watt() << " GFlop/W)\n";

  if (auto* metrics = system.metrics()) {
    os << "\n--- metrics (" << metrics->size() << " instruments) ---\n";
    os << metrics->to_csv_table().to_pretty();
  }
  return os.str();
}

std::string format_report(AcceleratedCluster& system) {
  std::ostringstream os;
  os << "=== accelerated-cluster report @ " << system.engine().now().str()
     << " ===\n";
  os << "nodes: " << system.config().nodes << " hosts, one GPU each\n";
  util::Table gpus({"gpu", "launches", "busy_s", "flops_done"});
  for (int i = 0; i < system.config().nodes; ++i) {
    const auto& gpu = system.gpu(i);
    gpus.row()
        .add(gpu.name())
        .add(gpu.launches())
        .add(gpu.meter().busy_core_seconds())
        .add(gpu.meter().flops_done());
  }
  os << gpus.to_pretty();
  const auto energy = system.energy();
  os << "energy: " << energy.total_joules() << " J, "
     << energy.gflops_per_watt() << " GFlop/W\n";
  return os.str();
}

void print_report(std::ostream& os, DeepSystem& system) {
  os << format_report(system);
}

void print_report(std::ostream& os, AcceleratedCluster& system) {
  os << format_report(system);
}

}  // namespace deep::sys
