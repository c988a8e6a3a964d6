#pragma once
// Resiliency harness: a bridged cluster+booster system with the full DEEP-ER
// storage stack (per-node NVM, IoNet, parallel FS) running workloads under
// sys::ResilientJob and a seeded fault plan whose node kills always heal.
//
// Unlike the chaos rig — where a lost message ends the run — every failure
// here is supposed to be *survived*: ranks roll back to the newest complete
// checkpoint and replay bit-exactly, so a faulted run that completes must
// produce results exactly equal (==, not approximately) to a fault-free run,
// and two runs of the same (config, spec) must be byte-identical end to end.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "ckpt/checkpoint.hpp"
#include "io/fs.hpp"
#include "io/ionet.hpp"
#include "mpi/mpi.hpp"
#include "net/fault.hpp"
#include "sim/trace.hpp"
#include "sys/resilient.hpp"
#include "util/rng.hpp"

#include "mpi_rig.hpp"

namespace deep::testing {

enum class ResiliencyWorkload { Stencil, Spmv };

struct ResiliencyConfig {
  std::uint64_t seed = 1;
  ResiliencyWorkload workload = ResiliencyWorkload::Stencil;
  int cluster_ranks = 2;
  int booster_ranks = 2;
  int gateways = 2;
  int iterations = 10;
  ckpt::CkptParams ckpt = [] {
    ckpt::CkptParams p;
    p.interval = 2;   // checkpoint every 2 app steps
    p.l2_every = 1;   // buddy copy at every checkpoint
    p.l3_every = 2;   // FS write at every other checkpoint
    p.history = 2;
    return p;
  }();
  // Storage timeouts tighter than production defaults: a full retry ladder
  // must resolve well inside the job watchdog's stall window, so a lost L2
  // transfer degrades the checkpoint instead of tripping the watchdog.
  io::IoParams io = [] {
    io::IoParams p;
    p.max_attempts = 3;
    p.timeout = sim::from_micros(150);
    return p;
  }();
  io::FsParams fs;
  sys::ResilienceParams resilience;
  cbp::BridgeParams bridge;
  /// Property-test knob: construct a ckpt::Manager even when `ckpt` is
  /// inactive.  Such a manager must be completely inert (no instruments, no
  /// events) — the run must be byte-identical to one with no manager at all.
  bool force_inert_manager = false;
};

/// Everything observable about one resilient run; two runs of the same
/// (config, spec) must produce byte-identical outcomes.
struct ResiliencyOutcome {
  bool completed = false;
  bool deadlocked = false;  // engine-level limbo: always a test failure here
  std::string deadlock_report;
  int attempts = 0;
  int rank_failures = 0;
  int aborted_attempts = 0;
  double checksum = 0;  // workload result (globally reduced, rank-identical)
  double quality = 0;   // stencil residual / spmv eigenvalue estimate
  std::int64_t saves = 0;
  std::int64_t restores = 0;
  std::int64_t restores_l1 = 0;
  std::int64_t restores_l2 = 0;
  std::int64_t restores_l3 = 0;
  std::int64_t rollbacks = 0;
  std::int64_t scratch_restarts = 0;
  std::int64_t io_retries = 0;
  std::int64_t io_failures = 0;
  std::int64_t fabric_drops = 0;
  std::int64_t final_ps = 0;
  std::string trace;    // Chrome trace JSON of the whole run
  std::string metrics;  // obs::Registry JSON

  /// One comparable string: trace + metrics + every scalar.  Doubles go in
  /// as raw bit patterns, so "equal" means bit-equal, not almost-equal.
  std::string fingerprint() const {
    return trace + "|" + metrics + "|" + std::to_string(completed) + "," +
           std::to_string(deadlocked) + "," + std::to_string(attempts) + "," +
           std::to_string(rank_failures) + "," +
           std::to_string(aborted_attempts) + "," +
           std::to_string(std::bit_cast<std::uint64_t>(checksum)) + "," +
           std::to_string(std::bit_cast<std::uint64_t>(quality)) + "," +
           std::to_string(saves) + "," + std::to_string(restores) + "," +
           std::to_string(restores_l1) + "," + std::to_string(restores_l2) +
           "," + std::to_string(restores_l3) + "," +
           std::to_string(rollbacks) + "," +
           std::to_string(scratch_restarts) + "," +
           std::to_string(io_retries) + "," + std::to_string(io_failures) +
           "," + std::to_string(fabric_drops) + "," +
           std::to_string(final_ps) + "|" + deadlock_report;
  }
};

/// Derives a kill schedule from `seed` alone: node deaths that ALWAYS heal
/// (the resiliency contract is "survive and finish", so no node stays dead),
/// transient gateway outages, and an occasional low background drop rate.
inline net::FaultSpec make_kill_spec(std::uint64_t seed,
                                     const ResiliencyConfig& cfg) {
  constexpr std::int64_t kUs = 1'000'000;  // picoseconds per microsecond
  net::FaultSpec spec;
  spec.seed = seed * 0x9E3779B97F4A7C15ULL + 0x51;
  util::Rng rng(seed ^ 0x5C0DEE9E5ULL);

  // Rank-node kills: cluster nodes are 0..C-1, boosters C..C+B-1.
  const int rank_nodes = cfg.cluster_ranks + cfg.booster_ranks;
  for (int n = 0; n < rank_nodes; ++n) {
    if (!rng.chance(0.45)) continue;
    const sim::TimePoint down{
        80 * kUs + static_cast<std::int64_t>(rng.below(2900)) * kUs};
    const sim::TimePoint up{
        down.ps + 300 * kUs +
        static_cast<std::int64_t>(rng.below(2700)) * kUs};
    spec.nodes.push_back({down, static_cast<hw::NodeId>(n), false});
    spec.nodes.push_back({up, static_cast<hw::NodeId>(n), true});
  }

  // Transient gateway flaps (storage and MPI cross traffic both reroute).
  const auto first_gw = static_cast<hw::NodeId>(rank_nodes);
  for (int g = 0; g < cfg.gateways; ++g) {
    if (!rng.chance(0.3)) continue;
    const sim::TimePoint down{
        60 * kUs + static_cast<std::int64_t>(rng.below(2000)) * kUs};
    const sim::TimePoint up{
        down.ps + 80 * kUs + static_cast<std::int64_t>(rng.below(400)) * kUs};
    spec.gateways.push_back({down, first_gw + g, false});
    spec.gateways.push_back({up, first_gw + g, true});
  }

  if (rng.chance(0.3)) spec.drop_probability = rng.uniform(0.0005, 0.004);
  return spec;
}

/// The machine: ranks split across cluster (first half) and booster nodes
/// joined by CBP gateways, the gateways' large NVM doubling as the parallel
/// FS storage tier, a ckpt::Manager per job — the production DeepSystem
/// wiring (sys/system.cpp), reproduced standalone so tests can reach into
/// every layer.
class ResiliencyRig {
 public:
  ResiliencyRig(const ResiliencyConfig& cfg, const net::FaultSpec& spec)
      : cfg_(cfg),
        ib_(engine_, "ib", {}),
        extoll_(engine_, "extoll",
                [&] {
                  net::TorusParams p;
                  int x = 4, y = 4, z = 4;
                  while (x * y * z < cfg.booster_ranks + cfg.gateways) {
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
        bridge_(engine_, ib_, extoll_, cfg.bridge),
        system_(engine_, bridge_, {}),
        plan_(engine_, spec) {
    engine_.set_tracer(&tracer_);

    hw::NodeId next = 0;
    for (int i = 0; i < cfg.cluster_ranks; ++i, ++next) {
      nodes_.push_back(std::make_unique<hw::Node>(
          next, "cn" + std::to_string(i), hw::xeon_cluster_node()));
      ib_.attach(next);
      bridge_.register_cluster_node(next);
      rank_nodes_.push_back(nodes_.back().get());
    }
    for (int i = 0; i < cfg.booster_ranks; ++i, ++next) {
      nodes_.push_back(std::make_unique<hw::Node>(
          next, "bn" + std::to_string(i), hw::knc_booster_node()));
      extoll_.attach(next);
      bridge_.register_booster_node(next);
      rank_nodes_.push_back(nodes_.back().get());
    }
    for (int g = 0; g < cfg.gateways; ++g, ++next) {
      nodes_.push_back(std::make_unique<hw::Node>(
          next, "bi" + std::to_string(g), hw::gateway_node()));
      ib_.attach(next);
      extoll_.attach(next);
      bridge_.register_gateway(next);
      gateway_ids_.push_back(next);
    }

    if (cfg.ckpt.active()) {
      ionet_ = std::make_unique<io::IoNet>(engine_, bridge_, cfg.io);
      io::install_nvm_service(*ionet_, [this](hw::NodeId id) {
        return id >= 0 && id < static_cast<hw::NodeId>(nodes_.size())
                   ? nodes_[static_cast<std::size_t>(id)].get()
                   : nullptr;
      });
      for (int i = 0; i < cfg.cluster_ranks; ++i)
        ionet_->attach(ib_.nic(static_cast<hw::NodeId>(i)));
      for (int i = 0; i < cfg.booster_ranks; ++i)
        ionet_->attach(
            extoll_.nic(static_cast<hw::NodeId>(cfg.cluster_ranks + i)));
      for (hw::NodeId id : gateway_ids_) {
        ionet_->attach(ib_.nic(id));
        ionet_->attach(extoll_.nic(id));
      }
      fs_ = std::make_unique<io::ParallelFs>(*ionet_, gateway_ids_, cfg.fs);
    }
    if (cfg.ckpt.active() || cfg.force_inert_manager) {
      manager_ = std::make_unique<ckpt::Manager>(
          engine_, cfg.ckpt, rank_nodes_, ionet_.get(), fs_.get());
    }

    job_ = std::make_unique<sys::ResilientJob>(
        engine_, system_, rank_nodes_, manager_.get(), cfg.resilience,
        [this](mpi::Mpi& mpi, ckpt::Checkpointer* ck) { run_body(mpi, ck); });
    job_->set_progress_probe(
        [this] { return ib_.stats().messages + extoll_.stats().messages; });

    plan_.attach(ib_);
    plan_.attach(extoll_);
    plan_.set_gateway_control(
        [this](hw::NodeId gw, bool up) { bridge_.set_gateway_up(gw, up); });
    plan_.set_node_control([this](hw::NodeId node, bool up) {
      // Copies die before fibers: the manager invalidates what the node
      // held, then the job aborts the rank fibers running on it.
      if (manager_) manager_->on_node_event(node, up);
      job_->on_node_event(node, up);
    });
    plan_.arm();
  }

  sim::Engine& engine() { return engine_; }
  sim::Tracer& tracer() { return tracer_; }
  net::FaultPlan& plan() { return plan_; }
  net::CrossbarFabric& ib() { return ib_; }
  net::TorusFabric& extoll() { return extoll_; }
  ckpt::Manager* manager() { return manager_.get(); }
  io::IoNet* ionet() { return ionet_.get(); }
  io::ParallelFs* fs() { return fs_.get(); }
  sys::ResilientJob& job() { return *job_; }

  double checksum() const { return checksum_; }
  double quality() const { return quality_; }

  /// Starts the job and runs the engine to quiescence.
  ResiliencyOutcome run() {
    job_->start();
    ResiliencyOutcome out;
    try {
      engine_.run();
    } catch (const util::SimError& e) {
      out.deadlocked = true;
      out.deadlock_report = e.what();
    }
    out.completed = job_->outcome().completed;
    out.attempts = job_->outcome().attempts;
    out.rank_failures = job_->outcome().rank_failures;
    out.aborted_attempts = job_->outcome().aborted_attempts;
    out.checksum = checksum_;
    out.quality = quality_;
    if (manager_) {
      out.saves = manager_->saves();
      out.restores = manager_->restores();
      out.restores_l1 = manager_->restores_at(ckpt::Level::L1);
      out.restores_l2 = manager_->restores_at(ckpt::Level::L2);
      out.restores_l3 = manager_->restores_at(ckpt::Level::L3);
      out.rollbacks = manager_->rollbacks();
      out.scratch_restarts = manager_->scratch_restarts();
    }
    if (ionet_) {
      out.io_retries = ionet_->retries();
      out.io_failures = ionet_->failures();
    }
    out.fabric_drops =
        ib_.stats().messages_dropped + extoll_.stats().messages_dropped;
    out.final_ps = engine_.now().ps;
    out.trace = tracer_.to_chrome_json();
    out.metrics = engine_.metrics().to_json();
    return out;
  }

 private:
  void run_body(mpi::Mpi& mpi, ckpt::Checkpointer* ck) {
    switch (cfg_.workload) {
      case ResiliencyWorkload::Stencil: {
        apps::StencilConfig sc;
        sc.nx = 32;
        sc.rows = 8;
        sc.iterations = cfg_.iterations;
        sc.ckpt = ck;
        const apps::StencilResult r = apps::run_jacobi(mpi, mpi.world(), sc);
        checksum_ = r.checksum;  // globally reduced: identical on every rank
        quality_ = r.residual;
        break;
      }
      case ResiliencyWorkload::Spmv: {
        apps::SpmvConfig sc;
        sc.rows_per_rank = 32;
        sc.band = 8;
        sc.nnz_per_row = 4;
        sc.iterations = cfg_.iterations;
        sc.ckpt = ck;
        const apps::SpmvResult r = apps::run_spmv_power(mpi, mpi.world(), sc);
        checksum_ = r.checksum;
        quality_ = r.eigenvalue;
        break;
      }
    }
  }

  ResiliencyConfig cfg_;
  sim::Engine engine_;
  sim::Tracer tracer_;
  net::CrossbarFabric ib_;
  net::TorusFabric extoll_;
  cbp::BridgedTransport bridge_;
  mpi::MpiSystem system_;
  net::FaultPlan plan_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  std::vector<hw::Node*> rank_nodes_;
  std::vector<hw::NodeId> gateway_ids_;
  std::unique_ptr<io::IoNet> ionet_;
  std::unique_ptr<io::ParallelFs> fs_;
  std::unique_ptr<ckpt::Manager> manager_;
  std::unique_ptr<sys::ResilientJob> job_;
  double checksum_ = 0;
  double quality_ = 0;
};

/// Runs one workload under one fault spec and returns the full outcome.
inline ResiliencyOutcome run_resiliency(const ResiliencyConfig& cfg,
                                        const net::FaultSpec& spec) {
  ResiliencyRig rig(cfg, spec);
  return rig.run();
}

}  // namespace deep::testing
