#pragma once
// Chaos harness: runs a real workload on a bridged cluster+booster system
// under a seeded FaultPlan and captures everything needed to assert both
// resilience (no silent hangs) and determinism (same seed => bit-identical
// event trace, asserted as string equality on the Chrome trace JSON).

#include <cstdint>
#include <memory>
#include <string>

#include "apps/nbody.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "mpi/mpi.hpp"
#include "net/fault.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

#include "mpi_rig.hpp"

namespace deep::testing {

enum class ChaosWorkload { Stencil, Spmv, NBody };

struct ChaosConfig {
  std::uint64_t seed = 1;
  ChaosWorkload workload = ChaosWorkload::Stencil;
  int cluster_ranks = 2;
  int booster_ranks = 4;
  int gateways = 2;
  int iterations = 0;  // 0: per-workload default; >0: override (stencil/spmv)
  cbp::GatewayPolicy policy = cbp::GatewayPolicy::ByPair;
  cbp::BridgeParams bridge;  // retry/backoff knobs
  int workers = 1;  // engine worker threads; outcomes must not depend on it
};

/// Everything observable about one chaos run.  `trace` plus the scalar
/// fields identify the run completely: two runs with the same (config,
/// spec) must produce byte-identical outcomes.
struct ChaosOutcome {
  bool completed = false;   // all ranks finished without an MpiError
  bool deadlocked = false;  // engine reported stuck ranks (SimError)
  std::string deadlock_report;
  int mpi_errors = 0;  // ranks that observed an MpiError and bailed out
  std::int64_t fabric_drops = 0;    // both fabrics, any cause
  std::int64_t injected_drops = 0;  // by the plan's drop probability
  std::int64_t gateway_timeouts = 0;
  std::int64_t gateway_retries = 0;
  std::int64_t gateway_failovers = 0;
  std::int64_t frames_lost = 0;    // CBP frames abandoned after retries
  std::int64_t messages_lost = 0;  // losses surfaced to the MPI layer
  std::int64_t final_ps = 0;       // virtual time when the run ended
  std::string trace;               // Chrome trace JSON of the whole run
  std::string metrics;             // registry JSON

  /// One comparable string: trace bytes + every scalar.  Equal fingerprints
  /// mean the two runs were indistinguishable.
  std::string fingerprint() const {
    return trace + "|" + metrics + "|" + std::to_string(completed) + "," +
           std::to_string(deadlocked) + "," + std::to_string(mpi_errors) +
           "," + std::to_string(fabric_drops) + "," +
           std::to_string(injected_drops) + "," +
           std::to_string(gateway_timeouts) + "," +
           std::to_string(gateway_retries) + "," +
           std::to_string(gateway_failovers) + "," +
           std::to_string(frames_lost) + "," +
           std::to_string(messages_lost) + "," + std::to_string(final_ps) +
           "|" + deadlock_report;
  }
};

/// Derives a randomized fault spec for the rig topology from `seed` alone:
/// transient gateway outages, adjacent booster link kills (mostly healed
/// later), and an occasional background drop probability.  Times span
/// ~50 us to ~5 ms of virtual time, which overlaps the workloads' comms.
inline net::FaultSpec make_chaos_spec(std::uint64_t seed,
                                      const ChaosConfig& cfg) {
  constexpr std::int64_t kUs = 1'000'000;  // picoseconds per microsecond
  net::FaultSpec spec;
  spec.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  util::Rng rng(seed ^ 0xC4A05C4A05ULL);

  const auto first_gw =
      static_cast<hw::NodeId>(cfg.cluster_ranks + cfg.booster_ranks);
  for (int g = 0; g < cfg.gateways; ++g) {
    if (!rng.chance(0.5)) continue;
    const sim::TimePoint down{
        50 * kUs + static_cast<std::int64_t>(rng.below(2000)) * kUs};
    spec.gateways.push_back({down, first_gw + g, false});
    if (rng.chance(0.8)) {  // usually transient
      const sim::TimePoint up{
          down.ps + 100 * kUs +
          static_cast<std::int64_t>(rng.below(1500)) * kUs};
      spec.gateways.push_back({up, first_gw + g, true});
    }
  }

  // Booster links: boosters attach to the torus in order, so consecutive
  // ids are x-neighbours while the row does not wrap (ranks <= dim x).
  for (int i = 0; i + 1 < cfg.booster_ranks; ++i) {
    if (!rng.chance(0.35)) continue;
    const auto a = static_cast<hw::NodeId>(cfg.cluster_ranks + i);
    const sim::TimePoint down{
        50 * kUs + static_cast<std::int64_t>(rng.below(3000)) * kUs};
    spec.links.push_back({down, a, a + 1, false});
    if (rng.chance(0.7)) {
      const sim::TimePoint up{
          down.ps + 200 * kUs +
          static_cast<std::int64_t>(rng.below(2000)) * kUs};
      spec.links.push_back({up, a, a + 1, true});
    }
  }

  if (rng.chance(0.4)) spec.drop_probability = rng.uniform(0.001, 0.01);
  return spec;
}

/// Runs one workload under one fault spec and returns the full outcome.
/// Ranks that observe an MpiError abandon the workload (counted); ranks
/// left waiting on a dead peer surface as a deterministic deadlock report —
/// never as a hang, because gateway retries are bounded and every loss
/// error-completes the requests that depended on it.
inline ChaosOutcome run_chaos(const ChaosConfig& cfg,
                              const net::FaultSpec& spec) {
  BridgedMpiRig rig(cfg.cluster_ranks, cfg.booster_ranks, cfg.gateways,
                    cfg.policy, {}, cfg.bridge);
  sim::Tracer tracer;
  rig.engine().set_tracer(&tracer);
  rig.engine().set_workers(static_cast<std::uint32_t>(cfg.workers));

  net::FaultPlan plan(rig.engine(), spec);
  plan.attach(rig.ib());
  plan.attach(rig.extoll());
  plan.set_gateway_control([&rig](hw::NodeId gw, bool up) {
    rig.bridge().set_gateway_up(gw, up);
  });
  plan.arm();

  auto errors = std::make_shared<int>(0);
  rig.launch([cfg, errors](mpi::Mpi& mpi) {
    try {
      switch (cfg.workload) {
        case ChaosWorkload::Stencil: {
          apps::StencilConfig sc;
          sc.nx = 32;
          sc.rows = 8;
          sc.iterations = cfg.iterations > 0 ? cfg.iterations : 6;
          apps::run_jacobi(mpi, mpi.world(), sc);
          break;
        }
        case ChaosWorkload::Spmv: {
          apps::SpmvConfig sc;
          sc.rows_per_rank = 32;
          sc.band = 8;
          sc.nnz_per_row = 4;
          sc.iterations = cfg.iterations > 0 ? cfg.iterations : 5;
          apps::run_spmv_power(mpi, mpi.world(), sc);
          break;
        }
        case ChaosWorkload::NBody: {
          apps::NBodyConfig nc;
          nc.bodies_per_rank = 16;
          nc.steps = 3;
          apps::run_nbody(mpi, mpi.world(), nc);
          break;
        }
      }
    } catch (const mpi::MpiError&) {
      ++*errors;  // surfaced loss: abandon the workload, do not hang
    }
  });

  ChaosOutcome out;
  try {
    rig.engine().run();
    out.completed = (*errors == 0);
  } catch (const util::SimError& e) {
    out.deadlocked = true;
    out.deadlock_report = e.what();
  }
  out.mpi_errors = *errors;
  out.fabric_drops = rig.ib().stats().messages_dropped +
                     rig.extoll().stats().messages_dropped;
  out.injected_drops = plan.injected_drops();
  out.gateway_timeouts = rig.bridge().total_timeouts();
  out.gateway_retries = rig.bridge().total_retries();
  out.gateway_failovers = rig.bridge().total_failovers();
  out.frames_lost = rig.bridge().frames_lost();
  out.messages_lost = rig.system().messages_lost();
  out.final_ps = rig.engine().now().ps;
  out.trace = tracer.to_chrome_json();
  out.metrics = rig.engine().metrics().to_json();
  return out;
}

}  // namespace deep::testing
