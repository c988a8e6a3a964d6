// perfbench: host-time benchmark of the DEEP simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--pins <file>] [--trace-dir <dir>]
//
// Prints report lines, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics.  Exits 1 when an output check
// fails, 2 on bad arguments or a debug/sanitizer build.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "stats.hpp"
#include "svc/json.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--pins <file>] [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else if (arg == "--pins") {
      o.pins_path = val;
    } else if (arg == "--trace-dir") {
      o.trace_dir = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == o.workload;
  if (!known) return usage(("unknown workload " + o.workload).c_str());

  std::string why;
  if (!perfbench::optimised_build(why)) {
    std::fprintf(stderr, "perfbench: refusing to record numbers from a %s\n",
                 why.c_str());
    return 2;
  }

  std::printf("meta %s\n", perfbench::host_meta_json().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  const perfbench::Outcome out = perfbench::run_workload(o);
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  for (const std::string& e : out.errors) std::printf("CHECK FAILED %s\n", e.c_str());
  for (const auto& m : out.metrics)
    std::printf("metric %-22s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  deep::svc::Json metrics = deep::svc::Json::object();
  for (const auto& m : out.metrics) {
    deep::svc::Json entry = deep::svc::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  deep::svc::Json result = deep::svc::Json::object();
  result.set("correct", out.correct);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return out.correct ? 0 : 1;
}
