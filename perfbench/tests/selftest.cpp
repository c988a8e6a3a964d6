// Self-tests of the benchmark's output checker.  Each case runs a real,
// short benchmark run with one broken output injected, and expects the run
// to fail; a clean run of the same workload must pass.
//
//   perfbench_selftest [pins.json]     (python3 perfbench/run.py --selftest)

#include <cstdio>
#include <functional>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Fault;
using perfbench::Options;
using perfbench::Outcome;

std::string g_pins = "perfbench/pins.json";
int g_failures = 0;

Outcome run(const std::string& workload, Fault fault, bool trace = false) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.5;
  o.trace = trace;
  o.pins_path = g_pins;
  o.trace_dir = ".bench_build/perfbench/selftest-traces";
  o.fault = fault;
  return perfbench::run_workload(o);
}

void expect(const char* name, bool ok, const Outcome& out) {
  std::printf("[%s] %s (correct=%d attempted=%lld failed=%lld)\n",
              ok ? "PASS" : "FAIL", name, out.correct ? 1 : 0,
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < out.errors.size() && i < 3; ++i)
    std::printf("    %s\n", out.errors[i].c_str());
  if (!ok) ++g_failures;
}

bool mentions(const Outcome& out, const std::string& what) {
  for (const std::string& e : out.errors)
    if (e.find(what) != std::string::npos) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) g_pins = argv[1];

  const Outcome clean = run("stencil_paper", Fault::None);
  expect("clean stencil_paper run passes", clean.correct && clean.failed == 0, clean);

  const Outcome checksum = run("stencil_paper", Fault::Checksum);
  expect("checksum moved by 1e-6 fails the pin and the serial reference",
         !checksum.correct && mentions(checksum, "checksum bits") &&
             mentions(checksum, "serial Jacobi"),
         checksum);

  const Outcome final_ps = run("stencil_paper", Fault::FinalPs);
  expect("final_ps moved by 1 ps fails the run",
         !final_ps.correct && mentions(final_ps, "final_ps"), final_ps);

  const Outcome not_ok = run("spmv_paper", Fault::NotOk);
  expect("a session with ok == false fails the run",
         !not_ok.correct && mentions(not_ok, "session not ok"), not_ok);

  const Outcome rebuilt = run("stencil_paper", Fault::RebuiltFingerprint, true);
  expect("a rebuilt session whose fingerprint differs fails the traced run",
         !rebuilt.correct && mentions(rebuilt, "rebuilt session"), rebuilt);

  const Outcome clean_mix = run("service_mix", Fault::None);
  expect("clean service_mix run passes with no failed jobs",
         clean_mix.correct && clean_mix.failed == 0, clean_mix);

  const Outcome mix_checksum = run("service_mix", Fault::Checksum);
  expect("service_mix: checksums moved by 1e-6 fail the class pins",
         !mix_checksum.correct && mentions(mix_checksum, "pin service_mix/stencil/") &&
             mentions(mix_checksum, "checksum bits"),
         mix_checksum);

  const Outcome mix_final_ps = run("service_mix", Fault::FinalPs);
  // nbody has no serial reference: only its pin catches this.
  expect("service_mix: final_ps moved by 1 ps fails the class pins",
         !mix_final_ps.correct && mentions(mix_final_ps, "pin service_mix/nbody/") &&
             mentions(mix_final_ps, "final_ps"),
         mix_final_ps);

  const Outcome shed = run("service_mix", Fault::QueueFull);
  expect("queue_full rejects raise failed_frac and fail the run",
         !shed.correct && shed.failed > 0 && shed.attempted > shed.failed &&
             mentions(shed, "job rejected: queue_full"),
         shed);

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
