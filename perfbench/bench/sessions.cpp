#include "sessions.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "mpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace perfbench {

namespace {

using deep::svc::JobSpec;
using deep::svc::SessionResult;
namespace mpi = deep::mpi;
namespace sys = deep::sys;

constexpr mpi::Tag kResTag = 50;

struct Outcome {
  bool verified = false;
  double checksum = 0.0;
  std::shared_ptr<int> mpi_errors = std::make_shared<int>(0);
};

template <typename Body>
auto guarded(std::shared_ptr<int> errors, Body body) {
  return [errors, body = std::move(body)](sys::ProgramEnv& env) {
    try {
      body(env);
    } catch (const mpi::MpiError&) {
      ++*errors;
    }
  };
}

void add_stencil(sys::DeepSystem& system, const JobSpec& spec, Outcome& out) {
  const deep::apps::StencilConfig scfg = session_stencil_config();
  system.programs().add(
      "hscp", guarded(out.mpi_errors, [&, scfg](sys::ProgramEnv& env) {
        mpi::Mpi& m = env.mpi;
        for (int s = 0; s < spec.steps; ++s) {
          const auto res = deep::apps::run_jacobi(m, m.world(), scfg);
          if (m.rank() == 0) {
            const double buf[1] = {res.checksum};
            m.send<double>(*m.parent(), 0, kResTag,
                           std::span<const double>(buf, 1));
          }
        }
      }));
  system.programs().add(
      "main", guarded(out.mpi_errors, [&](sys::ProgramEnv& env) {
        auto inter =
            env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, spec.procs);
        double checksum = 0;
        for (int s = 0; s < spec.steps; ++s) {
          env.mpi.compute({1e9, 0, 0.05}, env.mpi.node().spec().cores);
          double res[1];
          env.mpi.recv<double>(inter, 0, kResTag, res);
          checksum = res[0];
        }
        out.checksum = checksum;
        out.verified = checksum > 0;
      }));
}

void add_spmv(sys::DeepSystem& system, const JobSpec& spec, Outcome& out) {
  const deep::apps::SpmvConfig cfg = session_spmv_config(spec);
  system.programs().add(
      "hscp", guarded(out.mpi_errors, [&, cfg](sys::ProgramEnv& env) {
        const auto r = deep::apps::run_spmv_power(env.mpi, env.mpi.world(), cfg);
        if (env.mpi.rank() == 0) {
          const double buf[2] = {r.eigenvalue, r.checksum};
          env.mpi.send<double>(*env.mpi.parent(), 0, kResTag,
                               std::span<const double>(buf, 2));
        }
      }));
  system.programs().add(
      "main", guarded(out.mpi_errors, [&](sys::ProgramEnv& env) {
        auto inter =
            env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, spec.procs);
        double res[2];
        env.mpi.recv<double>(inter, 0, kResTag, res);
        out.checksum = res[0];
        out.verified = res[0] > 0;
      }));
}

}  // namespace

deep::apps::StencilConfig session_stencil_config() {
  deep::apps::StencilConfig cfg;
  cfg.nx = 256;
  cfg.rows = 64;
  cfg.iterations = 10;
  return cfg;
}

deep::apps::SpmvConfig session_spmv_config(const JobSpec& spec) {
  deep::apps::SpmvConfig cfg;
  cfg.rows_per_rank = 256;
  cfg.iterations = std::max(2, spec.steps);
  return cfg;
}

SessionResult rebuilt_session(const JobSpec& spec, Tracer& tracer,
                              std::uint64_t job, RebuiltOptions options) {
  DEEP_EXPECT(spec.workload == "stencil" || spec.workload == "spmv",
              "rebuilt_session: only stencil and spmv are rebuilt");
  Scope root(tracer, "session", job);
  deep::util::SessionSlot slot;
  deep::util::SessionGuard in_session(slot.slot());

  SessionResult result;
  try {
    std::optional<sys::DeepSystem> system;
    {
      Scope s(tracer, "sys.construct", job, root.index());
      system.emplace(spec.to_config());
    }
    Outcome out;
    {
      Scope s(tracer, "sim.run", job, root.index());
      if (options.wallclock_metrics) system->engine().set_wallclock_metrics(true);
      try {
        if (spec.workload == "stencil")
          add_stencil(*system, spec, out);
        else
          add_spmv(*system, spec, out);
        system->launch("main", 1);
        system->run();
      } catch (const deep::util::SimError& e) {
        result.error = e.what();
      }
    }
    result.mpi_errors = *out.mpi_errors;
    result.ok = result.error.empty() && result.mpi_errors == 0 && out.verified;
    result.checksum = out.checksum;
    result.final_ps = system->engine().now().ps;
    result.events = system->engine().events_executed();
    {
      Scope s(tracer, "sys.report", job, root.index());
      result.report = sys::format_report(*system);
    }
    {
      Scope s(tracer, "obs.snapshot", job, root.index());
      if (system->metrics() != nullptr)
        result.metrics_json = system->metrics()->to_json();
    }
    {
      Scope s(tracer, "sys.teardown", job, root.index());
      system.reset();
    }
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

}  // namespace perfbench
