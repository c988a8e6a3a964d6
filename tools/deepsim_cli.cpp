// deepsim — command-line driver for the simulated DEEP machine.
//
// Builds a system from command-line options, runs one of the bundled
// workloads, and prints the system report (optionally a Perfetto trace).
//
//   deepsim [options]
//     --cluster N          cluster nodes                  (default 4)
//     --booster N          booster nodes                  (default 8)
//     --gateways N         Booster Interface nodes        (default 2)
//     --workload NAME      stencil|cholesky|nbody|spmv    (default stencil)
//     --procs N            HSCP width (booster ranks)     (default 4)
//     --steps N            coupling steps / iterations    (default 3)
//     --static-partitions  use static booster partitioning
//     --workers N|auto     engine worker threads; `auto` uses one per
//                          host core, clamped to the partition count
//                                                        (default 1)
//     --partitions N|auto  engine partitions: the booster torus splits
//                          into N-1 topology blocks, the cluster side
//                          stays on partition 0; `auto` derives N from
//                          the host's core count        (default 1)
//     --wallclock-metrics  record per-worker barrier-wait histograms
//                          (wall clock, hence non-deterministic)
//     --trace FILE         write a Chrome/Perfetto trace
//     --report             print the full system report
//     --metrics-out FILE   write a metrics snapshot (.json or .csv)
//     --metrics-interval US  sample metrics every US microseconds of
//                          simulated time (turns a .csv output into a
//                          wide time-series table)
//     --help
//
// Exit code 0 on success (workload-specific verification included).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "apps/cholesky.hpp"
#include "apps/nbody.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "obs/metrics.hpp"
#include "ompss/offload.hpp"
#include "sim/trace.hpp"
#include "svc/serve.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"
#include "util/csv.hpp"

namespace da = deep::apps;
namespace dm = deep::mpi;
namespace dos = deep::ompss;
namespace ds = deep::sim;
namespace dsy = deep::sys;

namespace {

struct Options {
  int cluster = 4;
  int booster = 8;
  int gateways = 2;
  std::string topology = "deep";  // deep | fattree | dragonfly
  bool adaptive = false;
  std::string workload = "stencil";
  int procs = 4;
  int steps = 3;
  std::string workers = "1";     // integer or "auto"
  std::string partitions = "1";  // integer or "auto"
  bool wallclock_metrics = false;
  bool static_partitions = false;
  std::string trace_file;
  bool report = false;
  std::string metrics_file;
  long metrics_interval_us = 0;  // 0 = final snapshot only
  bool serve = false;            // line-delimited JSON service loop
};

void usage() {
  std::puts(
      "deepsim — simulated DEEP cluster-booster machine\n"
      "  --cluster N   --booster N   --gateways N\n"
      "  --topology deep|fattree|dragonfly (booster fabric; default deep)\n"
      "  --adaptive (congestion-aware routing on fattree/dragonfly)\n"
      "  --workload stencil|cholesky|nbody|spmv   --procs N   --steps N\n"
      "  --static-partitions   --workers N|auto   --partitions N|auto\n"
      "  --wallclock-metrics   --trace FILE   --report\n"
      "  --metrics-out FILE (.json|.csv)   --metrics-interval US\n"
      "  --serve (line-delimited JSON service on stdin/stdout; deepsimd is\n"
      "           the full daemon)   --help");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--help") return false;
    if (arg == "--serve") {
      opt.serve = true;
    } else if (arg == "--report") {
      opt.report = true;
    } else if (arg == "--static-partitions") {
      opt.static_partitions = true;
    } else if (arg == "--cluster") {
      opt.cluster = std::atoi(next());
    } else if (arg == "--booster") {
      opt.booster = std::atoi(next());
    } else if (arg == "--gateways") {
      opt.gateways = std::atoi(next());
    } else if (arg == "--topology") {
      opt.topology = next();
    } else if (arg == "--adaptive") {
      opt.adaptive = true;
    } else if (arg == "--procs") {
      opt.procs = std::atoi(next());
    } else if (arg == "--steps") {
      opt.steps = std::atoi(next());
    } else if (arg == "--workers") {
      opt.workers = next();
    } else if (arg == "--partitions") {
      opt.partitions = next();
    } else if (arg == "--wallclock-metrics") {
      opt.wallclock_metrics = true;
    } else if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--trace") {
      opt.trace_file = next();
    } else if (arg == "--metrics-out") {
      opt.metrics_file = next();
    } else if (arg == "--metrics-interval") {
      opt.metrics_interval_us = std::atol(next());
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

constexpr dm::Tag kResTag = 50;

/// stencil: coupled driver (cluster) + Jacobi HSCP (booster).
bool run_stencil(dsy::DeepSystem& system, const Options& opt,
                const std::function<void()>& drive) {
  da::StencilConfig scfg;
  scfg.nx = 256;
  scfg.rows = 64;
  scfg.iterations = 10;
  system.programs().add("hscp", [&, scfg](dsy::ProgramEnv& env) {
    dm::Mpi& mpi = env.mpi;
    for (int s = 0; s < opt.steps; ++s) {
      const auto res = da::run_jacobi(mpi, mpi.world(), scfg);
      if (mpi.rank() == 0) {
        const double out[1] = {res.checksum};
        mpi.send<double>(*mpi.parent(), 0, kResTag,
                         std::span<const double>(out, 1));
      }
    }
  });
  bool ok = false;
  system.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, opt.procs);
    double checksum = 0;
    for (int s = 0; s < opt.steps; ++s) {
      env.mpi.compute({1e9, 0, 0.05}, env.mpi.node().spec().cores);
      double res[1];
      env.mpi.recv<double>(inter, 0, kResTag, res);
      checksum = res[0];
    }
    std::printf("stencil: %d steps, final checksum %.6f\n", opt.steps, checksum);
    ok = checksum > 0;
  });
  system.launch("main", 1);
  drive();
  return ok;
}

/// cholesky: offloaded OmpSs factorisation, verified.
bool run_cholesky(dsy::DeepSystem& system, const Options& opt,
                 const std::function<void()>& drive) {
  const int nt = 8, ts = 24;
  system.kernels().add(
      "cholesky", [nt, ts](std::span<const std::byte> in, dm::Mpi& mpi) {
        if (mpi.rank() != 0) return std::vector<std::byte>{};
        da::TiledMatrix a(nt, ts);
        std::memcpy(a.storage().data(), in.data(), in.size());
        dos::Runtime rt(mpi.ctx(), mpi.node());
        da::submit_cholesky_tasks(rt, a);
        rt.taskwait();
        std::vector<std::byte> out(in.size());
        std::memcpy(out.data(), a.storage().data(), out.size());
        return out;
      });
  system.programs().add("server", [&system](dsy::ProgramEnv& env) {
    dos::offload_server(env.mpi, system.kernels());
  });
  bool ok = false;
  system.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter =
        env.mpi.comm_spawn(env.mpi.world(), 0, "server", {}, opt.procs);
    da::TiledMatrix original(nt, ts), factor(nt, ts);
    da::fill_spd(original, 1);
    for (int s = 0; s < opt.steps; ++s) {
      auto reply = dos::offload_invoke(
          env.mpi, inter, "cholesky",
          std::as_bytes(std::span<const double>(original.storage())));
      std::memcpy(factor.storage().data(), reply.data(), reply.size());
    }
    dos::offload_shutdown(env.mpi, inter);
    const double err = da::factor_error(factor, original);
    std::printf("cholesky: %d offloads, max |L*L^T - A| = %.3e\n", opt.steps,
                err);
    ok = err < 1e-8;
  });
  system.launch("main", 1);
  drive();
  return ok;
}

/// nbody: spawned compute-bound HSCP, momentum check.
bool run_nbody(dsy::DeepSystem& system, const Options& opt,
              const std::function<void()>& drive) {
  da::NBodyConfig cfg;
  cfg.bodies_per_rank = 32;
  cfg.steps = opt.steps;
  bool ok = false;
  system.programs().add("hscp", [&, cfg](dsy::ProgramEnv& env) {
    const auto r = da::run_nbody(env.mpi, env.mpi.world(), cfg);
    if (env.mpi.rank() == 0) {
      const double out[2] = {r.momentum[0], r.checksum};
      env.mpi.send<double>(*env.mpi.parent(), 0, kResTag,
                           std::span<const double>(out, 2));
    }
  });
  system.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, opt.procs);
    double res[2];
    env.mpi.recv<double>(inter, 0, kResTag, res);
    std::printf("nbody: %d steps, |px| = %.2e, checksum %.4f\n", opt.steps,
                std::abs(res[0]), res[1]);
    ok = std::abs(res[0]) < 1e-9 && res[1] > 0;
  });
  system.launch("main", 1);
  drive();
  return ok;
}

/// spmv: spawned banded power iteration, Rayleigh-quotient check.
bool run_spmv(dsy::DeepSystem& system, const Options& opt,
             const std::function<void()>& drive) {
  da::SpmvConfig cfg;
  cfg.rows_per_rank = 256;
  cfg.iterations = std::max(2, opt.steps);
  bool ok = false;
  system.programs().add("hscp", [&, cfg](dsy::ProgramEnv& env) {
    const auto r = da::run_spmv_power(env.mpi, env.mpi.world(), cfg);
    if (env.mpi.rank() == 0) {
      const double out[2] = {r.eigenvalue, r.checksum};
      env.mpi.send<double>(*env.mpi.parent(), 0, kResTag,
                           std::span<const double>(out, 2));
    }
  });
  system.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "hscp", {}, opt.procs);
    double res[2];
    env.mpi.recv<double>(inter, 0, kResTag, res);
    std::printf("spmv: eigenvalue estimate %.6f, checksum %.6f\n", res[0],
                res[1]);
    ok = res[0] > 0;
  });
  system.launch("main", 1);
  drive();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (opt.serve) {
    // deepsimd's protocol loop on one worker: jobs run one at a time in
    // submission order, so a repeated spec hits the cache its first run
    // filled.  The queue is unbounded because a scripted pipe of specs
    // expects every job to run, never a queue_full shed.
    deep::svc::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = std::numeric_limits<std::size_t>::max();
    deep::svc::Service service(cfg);
    deep::svc::serve_stream(service, std::cin, std::cout);
    return 0;
  }

  dsy::SystemConfig config;
  if (!dsy::parse_topology(opt.topology, config.topology)) {
    std::fprintf(stderr,
                 "unknown topology '%s' (expected deep|fattree|dragonfly)\n",
                 opt.topology.c_str());
    return 2;
  }
  config.adaptive_routing = opt.adaptive;
  config.cluster_nodes = opt.cluster;
  config.booster_nodes = opt.booster;
  config.gateways = opt.gateways;
  config.metrics.enabled =
      !opt.metrics_file.empty() || opt.metrics_interval_us > 0;
  if (opt.partitions == "auto") {
    // One partition per available core (the booster blocks parallelise;
    // partition 0 carries the cluster side), capped so tiny machines do not
    // get sliced thinner than their booster.
    const int host = static_cast<int>(std::thread::hardware_concurrency());
    config.partitions =
        std::max(1, std::min({host, 1 + opt.booster, 8}));
    std::printf("auto partitions: %d (host cpus %d)\n", config.partitions,
                host);
  } else {
    config.partitions = std::atoi(opt.partitions.c_str());
    if (config.partitions < 1) {
      std::fprintf(stderr, "--partitions must be >= 1 or 'auto'\n");
      return 2;
    }
  }
  if (opt.workers == "auto") {
    // One worker per host core, clamped to the partition count — extra
    // workers would only park at the window barriers.
    const int host = static_cast<int>(std::thread::hardware_concurrency());
    config.workers = dsy::auto_workers(host, config.partitions);
    std::printf("auto workers: %d (host cpus %d, %d partitions)\n",
                config.workers, host, config.partitions);
  } else {
    config.workers = std::atoi(opt.workers.c_str());
    if (config.workers < 1) {
      std::fprintf(stderr, "--workers must be >= 1 or 'auto'\n");
      return 2;
    }
  }
  if (opt.static_partitions)
    config.alloc_policy = dsy::AllocPolicy::StaticPartition;
  dsy::DeepSystem system(config);
  if (opt.wallclock_metrics) system.engine().set_wallclock_metrics(true);

  ds::Tracer tracer;
  if (!opt.trace_file.empty()) system.engine().set_tracer(&tracer);

  // Periodic sampling cannot self-reschedule engine events (the queue would
  // never drain and run() would not terminate), so the workloads call this
  // driver instead of system.run(): it steps the engine one interval at a
  // time and snapshots the registry between steps.
  deep::util::Table samples(
      opt.metrics_interval_us > 0 && system.metrics() != nullptr
          ? system.metrics()->sample_columns()
          : std::vector<std::string>{"time_ps"});
  const std::function<void()> drive = [&] {
    if (opt.metrics_interval_us <= 0 || system.metrics() == nullptr) {
      system.run();
      return;
    }
    const ds::Duration step =
        ds::from_micros(static_cast<double>(opt.metrics_interval_us));
    bool more = true;
    while (more) {
      more = system.engine().run_until(system.engine().now() + step);
      system.metrics()->append_sample(samples, system.engine().now());
    }
  };

  bool ok = false;
  try {
    if (opt.workload == "stencil") {
      ok = run_stencil(system, opt, drive);
    } else if (opt.workload == "cholesky") {
      ok = run_cholesky(system, opt, drive);
    } else if (opt.workload == "nbody") {
      ok = run_nbody(system, opt, drive);
    } else if (opt.workload == "spmv") {
      ok = run_spmv(system, opt, drive);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      usage();
      return 2;
    }
  } catch (const deep::util::SimError& e) {
    std::fprintf(stderr, "simulation failed: %s\n", e.what());
    return 1;
  }

  std::printf("simulated %s, %zu events\n", system.engine().now().str().c_str(),
              system.engine().events_executed());
  if (opt.report) std::printf("\n%s", dsy::format_report(system).c_str());
  if (!opt.trace_file.empty()) {
    tracer.write_chrome_json(opt.trace_file);
    std::printf("trace written to %s (%zu events)\n", opt.trace_file.c_str(),
                tracer.num_events());
  }
  if (!opt.metrics_file.empty() && system.metrics() != nullptr) {
    std::ofstream out(opt.metrics_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.metrics_file.c_str());
      return 1;
    }
    const bool csv = opt.metrics_file.size() >= 4 &&
                     opt.metrics_file.compare(opt.metrics_file.size() - 4, 4,
                                              ".csv") == 0;
    if (csv && opt.metrics_interval_us > 0) {
      out << samples.to_csv();  // wide time series, one row per interval
    } else if (csv) {
      out << system.metrics()->to_csv_table().to_csv();
    } else {
      out << system.metrics()->to_json() << '\n';
    }
    std::printf("metrics written to %s (%zu instruments)\n",
                opt.metrics_file.c_str(), system.metrics()->size());
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
