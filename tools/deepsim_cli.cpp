// deepsim — command-line driver for the simulated DEEP machine.
//
// Turns its flags into a svc::JobSpec, runs the spec's bundled workload
// through the same svc::launch_workload() a service job uses, and prints
// the system report (optionally a Perfetto trace).  The line-delimited
// JSON service is deepsimd (docs/service.md).
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
// The spec flags are checked by the same JobSpec::validate() as a service
// spec: a rejected spec prints its code (bad_workload, bad_topology,
// bad_spec or too_large), field and message, and exits 2, as does a flag
// whose value is missing or not an integer.  --static-partitions,
// --wallclock-metrics, --trace and --metrics-interval are CLI-only: they
// act on the config or the system the spec builds.
//
// Exit code 0 on success (workload-specific verification included), 1 on
// a failed simulation or verification.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "svc/session.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"
#include "flags.hpp"
#include "util/csv.hpp"

namespace ds = deep::sim;
namespace dsv = deep::svc;
namespace dsy = deep::sys;
using deep::tools::flag_int;
using deep::tools::flag_text;

namespace {

/// A longer sampling interval would overflow the engine's picosecond clock
/// and sample forever; about 11.6 days of simulated time.
constexpr long kMaxIntervalUs = 1'000'000'000'000;

struct Options {
  dsv::JobSpec spec;             // metrics is set from the metrics flags
  bool auto_workers = false;     // --workers auto
  bool auto_partitions = false;  // --partitions auto
  bool wallclock_metrics = false;
  bool static_partitions = false;
  std::string trace_file;
  bool report = false;
  std::string metrics_file;
  long metrics_interval_us = 0;  // 0 = final snapshot only
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
      "  --metrics-out FILE (.json|.csv)   --metrics-interval US   --help\n"
      "spec flags are checked like a service spec; a reject (bad_workload,\n"
      "bad_topology, bad_spec, too_large) exits 2\n"
      "the JSON line service is deepsimd");
}

/// `--workers`/`--partitions`: an integer, or `auto` to resolve later.
bool int_or_auto(int argc, char** argv, int& i, int& out, bool& is_auto) {
  std::string text;
  if (!flag_text(argc, argv, i, text)) return false;
  is_auto = text == "auto";
  return is_auto || deep::tools::parse_int(argv[i - 1], text, out);
}

bool parse(int argc, char** argv, Options& opt) {
  dsv::JobSpec& spec = opt.spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--help") return false;
    if (arg == "--report") {
      opt.report = true;
    } else if (arg == "--static-partitions") {
      opt.static_partitions = true;
    } else if (arg == "--adaptive") {
      spec.adaptive = true;
    } else if (arg == "--wallclock-metrics") {
      opt.wallclock_metrics = true;
    } else if (arg == "--cluster") {
      ok = flag_int(argc, argv, i, spec.cluster);
    } else if (arg == "--booster") {
      ok = flag_int(argc, argv, i, spec.booster);
    } else if (arg == "--gateways") {
      ok = flag_int(argc, argv, i, spec.gateways);
    } else if (arg == "--procs") {
      ok = flag_int(argc, argv, i, spec.procs);
    } else if (arg == "--steps") {
      ok = flag_int(argc, argv, i, spec.steps);
    } else if (arg == "--metrics-interval") {
      ok = flag_int(argc, argv, i, opt.metrics_interval_us);
      if (ok && opt.metrics_interval_us > kMaxIntervalUs) {
        std::fprintf(stderr, "--metrics-interval: at most %ld us\n",
                     kMaxIntervalUs);
        ok = false;
      }
    } else if (arg == "--workers") {
      ok = int_or_auto(argc, argv, i, spec.workers, opt.auto_workers);
    } else if (arg == "--partitions") {
      ok = int_or_auto(argc, argv, i, spec.partitions, opt.auto_partitions);
    } else if (arg == "--topology") {
      ok = flag_text(argc, argv, i, spec.topology);
    } else if (arg == "--workload") {
      ok = flag_text(argc, argv, i, spec.workload);
    } else if (arg == "--trace") {
      ok = flag_text(argc, argv, i, opt.trace_file);
    } else if (arg == "--metrics-out") {
      ok = flag_text(argc, argv, i, opt.metrics_file);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

/// Fills the `auto` engine settings and the metrics switch, then validates
/// the spec; prints the reject and returns false when it is refused.
bool resolve(Options& opt) {
  dsv::JobSpec& spec = opt.spec;
  spec.metrics = !opt.metrics_file.empty() || opt.metrics_interval_us > 0;
  const int host = static_cast<int>(std::thread::hardware_concurrency());
  if (opt.auto_partitions) {
    // One partition per available core (the booster blocks parallelise;
    // partition 0 carries the cluster side), capped so tiny machines do not
    // get sliced thinner than their booster.
    spec.partitions = static_cast<int>(std::max<long long>(
        1, std::min<long long>({host, 1LL + spec.booster, 8})));
    std::printf("auto partitions: %d (host cpus %d)\n", spec.partitions, host);
  }
  if (opt.auto_workers) {
    // One worker per host core, clamped to the partition count — extra
    // workers would only park at the window barriers.
    spec.workers = dsy::auto_workers(host, spec.partitions);
    std::printf("auto workers: %d (host cpus %d, %d partitions)\n",
                spec.workers, host, spec.partitions);
  }
  dsv::Reject reject;
  if (spec.validate(reject)) return true;
  std::fprintf(stderr, "rejected: %s (field '%s'): %s\n", reject.code.c_str(),
               reject.field.c_str(), reject.message.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (!resolve(opt)) return 2;

  const dsv::JobSpec& spec = opt.spec;
  dsy::SystemConfig config = spec.to_config();
  if (opt.static_partitions)
    config.alloc_policy = dsy::AllocPolicy::StaticPartition;
  // Both outlive the system, whose programs and engine point at them.
  dsv::WorkloadOutcome out;
  ds::Tracer tracer;
  dsy::DeepSystem system(config);
  if (opt.wallclock_metrics) system.engine().set_wallclock_metrics(true);
  if (!opt.trace_file.empty()) system.engine().set_tracer(&tracer);

  dsv::launch_workload(system, spec, out);
  // Periodic sampling cannot self-reschedule engine events (the queue would
  // never drain and run() would not terminate), so with an interval the
  // engine steps one interval at a time and the registry is snapshotted
  // between steps.
  const bool sampled = opt.metrics_interval_us > 0;
  deep::util::Table samples(sampled ? system.metrics()->sample_columns()
                                    : std::vector<std::string>{"time_ps"});
  try {
    if (!sampled) {
      system.run();
    } else {
      const ds::Duration step =
          ds::from_micros(static_cast<double>(opt.metrics_interval_us));
      bool more = true;
      while (more) {
        more = system.engine().run_until(system.engine().now() + step);
        system.metrics()->append_sample(samples, system.engine().now());
      }
    }
  } catch (const deep::util::SimError& e) {
    std::fprintf(stderr, "simulation failed: %s\n", e.what());
    return 1;
  }
  const bool ok = out.verified && out.mpi_errors == 0;

  std::printf("%s: %d procs, %d steps, checksum %.9g, %s\n",
              spec.workload.c_str(), spec.procs, spec.steps, out.checksum,
              ok ? "verified" : "NOT verified");
  std::printf("simulated %s, %zu events\n", system.engine().now().str().c_str(),
              system.engine().events_executed());
  if (opt.report) std::printf("\n%s", dsy::format_report(system).c_str());
  if (!opt.trace_file.empty()) {
    tracer.write_chrome_json(opt.trace_file);
    std::printf("trace written to %s (%zu events)\n", opt.trace_file.c_str(),
                tracer.num_events());
  }
  if (!opt.metrics_file.empty()) {
    std::ofstream metrics_out(opt.metrics_file);
    if (!metrics_out) {
      std::fprintf(stderr, "cannot write %s\n", opt.metrics_file.c_str());
      return 1;
    }
    const bool csv = opt.metrics_file.size() >= 4 &&
                     opt.metrics_file.compare(opt.metrics_file.size() - 4, 4,
                                              ".csv") == 0;
    if (csv && sampled) {
      metrics_out << samples.to_csv();  // wide time series, one row per interval
    } else if (csv) {
      metrics_out << system.metrics()->to_csv_table().to_csv();
    } else {
      metrics_out << system.metrics()->to_json() << '\n';
    }
    std::printf("metrics written to %s (%zu instruments)\n",
                opt.metrics_file.c_str(), system.metrics()->size());
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
