#include "svc/session.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/nbody.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "mpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "ompss/offload.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace deep::svc {

namespace {

constexpr mpi::Tag kResTag = 50;

/// Wraps a rank body so a surfaced loss (gateway dead past its retry
/// budget, dropped frame) abandons the workload instead of hanging or
/// tearing the fiber down with an exception — mirrors the chaos rig.
template <typename Body>
auto guarded(int& errors, Body body) {
  return [&errors, body = std::move(body)](sys::ProgramEnv& env) {
    try {
      body(env);
    } catch (const mpi::MpiError&) {
      ++errors;
    }
  };
}

/// stencil: coupled driver (cluster) + Jacobi HSCP (booster).
void add_stencil(sys::DeepSystem& system, int procs, int steps,
                 WorkloadOutcome& out) {
  apps::StencilConfig scfg;
  scfg.nx = 256;
  scfg.rows = 64;
  scfg.iterations = 10;
  system.programs().add(
      "hscp", guarded(out.mpi_errors, [steps, scfg](sys::ProgramEnv& env) {
        mpi::Mpi& mpi = env.mpi;
        for (int s = 0; s < steps; ++s) {
          const auto res = apps::run_jacobi(mpi, mpi.world(), scfg);
          if (mpi.rank() == 0) {
            const double buf[1] = {res.checksum};
            mpi.send<double>(*mpi.parent(), 0, kResTag,
                             std::span<const double>(buf, 1));
          }
        }
      }));
  system.programs().add(
      "main",
      guarded(out.mpi_errors, [procs, steps, &out](sys::ProgramEnv& env) {
        auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, procs);
        double checksum = 0;
        for (int s = 0; s < steps; ++s) {
          env.mpi.compute({1e9, 0, 0.05}, env.mpi.node().spec().cores);
          double res[1];
          env.mpi.recv<double>(inter, 0, kResTag, res);
          checksum = res[0];
        }
        out.checksum = checksum;
        out.verified = checksum > 0;
      }));
}

/// cholesky: offloaded OmpSs factorisation, verified against the input.
void add_cholesky(sys::DeepSystem& system, int procs, int steps,
                  WorkloadOutcome& out) {
  const int nt = 8, ts = 24;
  system.kernels().add(
      "cholesky", [nt, ts](std::span<const std::byte> in, mpi::Mpi& mpi) {
        if (mpi.rank() != 0) return std::vector<std::byte>{};
        apps::TiledMatrix a(nt, ts);
        std::memcpy(a.storage().data(), in.data(), in.size());
        ompss::Runtime rt(mpi.ctx(), mpi.node());
        apps::submit_cholesky_tasks(rt, a);
        rt.taskwait();
        std::vector<std::byte> reply(in.size());
        std::memcpy(reply.data(), a.storage().data(), reply.size());
        return reply;
      });
  system.programs().add(
      "server", guarded(out.mpi_errors, [&system](sys::ProgramEnv& env) {
        ompss::offload_server(env.mpi, system.kernels());
      }));
  system.programs().add(
      "main",
      guarded(out.mpi_errors, [procs, steps, &out](sys::ProgramEnv& env) {
        auto inter =
            env.mpi.comm_spawn(env.mpi.world(), 0, "server", {}, procs);
        apps::TiledMatrix original(nt, ts), factor(nt, ts);
        apps::fill_spd(original, 1);
        for (int s = 0; s < steps; ++s) {
          auto reply = ompss::offload_invoke(
              env.mpi, inter, "cholesky",
              std::as_bytes(std::span<const double>(original.storage())));
          std::memcpy(factor.storage().data(), reply.data(), reply.size());
        }
        ompss::offload_shutdown(env.mpi, inter);
        const double err = apps::factor_error(factor, original);
        out.checksum = err;
        out.verified = err < 1e-8;
      }));
}

/// nbody and spmv: a spawned HSCP whose rank 0 sends the two doubles
/// `solve` returns back to `main`, which hands them to `check`.
template <typename Solve, typename Check>
void add_spawned(sys::DeepSystem& system, int procs, WorkloadOutcome& out,
                 Solve solve, Check check) {
  system.programs().add(
      "hscp", guarded(out.mpi_errors, [solve](sys::ProgramEnv& env) {
        const std::array<double, 2> buf = solve(env.mpi);
        if (env.mpi.rank() == 0)
          env.mpi.send<double>(*env.mpi.parent(), 0, kResTag,
                               std::span<const double>(buf));
      }));
  system.programs().add(
      "main",
      guarded(out.mpi_errors, [procs, &out, check](sys::ProgramEnv& env) {
        auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, procs);
        double res[2];
        env.mpi.recv<double>(inter, 0, kResTag, res);
        check(res, out);
      }));
}

/// nbody: spawned compute-bound HSCP, momentum-conservation check.
void add_nbody(sys::DeepSystem& system, int procs, int steps,
               WorkloadOutcome& out) {
  apps::NBodyConfig cfg;
  cfg.bodies_per_rank = 32;
  cfg.steps = steps;
  add_spawned(
      system, procs, out,
      [cfg](mpi::Mpi& mpi) {
        const auto r = apps::run_nbody(mpi, mpi.world(), cfg);
        return std::array<double, 2>{r.momentum[0], r.checksum};
      },
      [](const double* res, WorkloadOutcome& o) {
        o.checksum = res[1];
        o.verified = std::abs(res[0]) < 1e-9 && res[1] > 0;
      });
}

/// spmv: spawned banded power iteration, Rayleigh-quotient check.
void add_spmv(sys::DeepSystem& system, int procs, int steps,
              WorkloadOutcome& out) {
  apps::SpmvConfig cfg;
  cfg.rows_per_rank = 256;
  cfg.iterations = std::max(2, steps);
  add_spawned(
      system, procs, out,
      [cfg](mpi::Mpi& mpi) {
        const auto r = apps::run_spmv_power(mpi, mpi.world(), cfg);
        return std::array<double, 2>{r.eigenvalue, r.checksum};
      },
      [](const double* res, WorkloadOutcome& o) {
        o.checksum = res[0];
        o.verified = res[0] > 0;
      });
}

}  // namespace

void launch_workload(sys::DeepSystem& system, const JobSpec& spec,
                     WorkloadOutcome& out) {
  if (spec.workload == "stencil") {
    add_stencil(system, spec.procs, spec.steps, out);
  } else if (spec.workload == "cholesky") {
    add_cholesky(system, spec.procs, spec.steps, out);
  } else if (spec.workload == "nbody") {
    add_nbody(system, spec.procs, spec.steps, out);
  } else {
    add_spmv(system, spec.procs, spec.steps, out);
  }
  system.launch("main", 1);
}

std::string SessionResult::fingerprint() const {
  char scalars[128];
  std::snprintf(scalars, sizeof scalars, "|%d,%d,%.17g,%lld,%llu|", ok ? 1 : 0,
                mpi_errors, checksum, static_cast<long long>(final_ps),
                static_cast<unsigned long long>(events));
  return report + "|" + metrics_json + scalars + error;
}

Json SessionResult::to_json() const {
  Json j = Json::object();
  j.set("ok", ok);
  if (!error.empty()) j.set("error", error);
  j.set("mpi_errors", mpi_errors);
  j.set("checksum", checksum);
  j.set("final_ps", final_ps);
  j.set("events", static_cast<std::int64_t>(events));
  j.set("report", report);
  if (!metrics_json.empty()) j.set("metrics", metrics_json);
  return j;
}

SessionResult SessionResult::from_json(const Json& j) {
  SessionResult r;
  if (const Json* v = j.find("ok")) r.ok = v->is_bool() && v->as_bool();
  if (const Json* v = j.find("error"); v && v->is_string())
    r.error = v->as_string();
  if (const Json* v = j.find("mpi_errors"); v && v->is_int())
    r.mpi_errors = static_cast<int>(v->as_int());
  if (const Json* v = j.find("checksum"); v && v->is_number())
    r.checksum = v->as_double();
  if (const Json* v = j.find("final_ps"); v && v->is_int())
    r.final_ps = v->as_int();
  if (const Json* v = j.find("events"); v && v->is_int())
    r.events = static_cast<std::uint64_t>(v->as_int());
  if (const Json* v = j.find("report"); v && v->is_string())
    r.report = v->as_string();
  if (const Json* v = j.find("metrics"); v && v->is_string())
    r.metrics_json = v->as_string();
  return r;
}

SessionResult run_session(const JobSpec& spec) {
  // Claim an isolated pool-shard range for this session's whole lifetime:
  // construction, run and teardown must all resolve through it.  On slot
  // exhaustion (caller exceeded the documented concurrency bound) the run
  // aliases the default session — still correct when it is the only one.
  util::SessionSlot slot;
  util::SessionGuard in_session(slot.slot());

  SessionResult result;
  try {
    WorkloadOutcome out;  // outlives the programs that write it
    sys::DeepSystem system(spec.to_config());
    launch_workload(system, spec, out);
    try {
      system.run();
    } catch (const util::SimError& e) {
      result.error = e.what();  // deadlock report: deterministic text
    }
    result.mpi_errors = out.mpi_errors;
    result.ok = result.error.empty() && result.mpi_errors == 0 && out.verified;
    result.checksum = out.checksum;
    result.final_ps = system.engine().now().ps;
    result.events = system.engine().events_executed();
    result.report = sys::format_report(system);
    if (system.metrics() != nullptr)
      result.metrics_json = system.metrics()->to_json();
  } catch (const std::exception& e) {
    // Construction guard or teardown failure: the job failed, the worker
    // lives on.
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

}  // namespace deep::svc
