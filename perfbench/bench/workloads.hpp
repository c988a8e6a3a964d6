#pragma once
// The benchmark's workloads (perfbench/README.md has the rationale):
//   stencil_paper        paper-scale stencil: Jacobi arithmetic dominates
//   spmv_paper           paper-scale power iteration: engine, MPI, torus
//   service_mix          open-loop stream of small jobs to svc::Service
// Every run checks its outputs before any timing counts.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "svc/jobspec.hpp"

namespace perfbench {

/// Broken outputs the checker self-tests inject into a real run; never set
/// by the command line.
enum class Fault {
  None,
  Checksum,            // every session's checksum scaled by 1 + 1e-6
  FinalPs,             // every session's final virtual time moved by 1 ps
  NotOk,               // every session reports ok == false
  RebuiltFingerprint,  // every rebuilt session's report altered
  QueueFull,           // service_mix queue of one slot, burst arrivals
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string pins_path = "perfbench/pins.json";
  std::string trace_dir = ".bench_build/perfbench/traces";
  Fault fault = Fault::None;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // output-check failures
  std::vector<std::string> notes;   // human-readable report lines
};

const std::vector<std::string>& workload_names();

/// The job spec a paper-scale workload runs; nullopt for other names.
std::optional<deep::svc::JobSpec> paper_spec(const std::string& workload,
                                             std::uint64_t seed);

/// The distinct job specs of service_mix for `seed`.
std::vector<deep::svc::JobSpec> mix_specs(std::uint64_t seed);

/// Name of a service_mix spec's pin: its workload, topology and routing.
/// The spec's seed is not part of it: it arms no faults, so it changes no
/// output.
std::string mix_class(const deep::svc::JobSpec& spec);

Outcome run_workload(const Options& options);

}  // namespace perfbench
