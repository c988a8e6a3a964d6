#pragma once
// The bundled workloads and the service session that runs them.
//
// launch_workload() is the only home of the four workload drivers:
// run_session() and the deepsim CLI both call it, so a CLI run and a
// service job of the same spec simulate the same events.
//
// One service session = one complete simulation: build the DeepSystem a
// validated JobSpec describes, run its workload to completion, capture the
// observable outputs, tear everything down.  The whole lifetime executes
// under a claimed util::SessionSlot so concurrent sessions in one process
// resolve their pool arenas through disjoint shards — the isolation
// contract (docs/service.md) is that a session's outputs are byte-identical
// to the same spec run alone in a fresh process.
//
// Failure is data, not control flow: simulation errors (deadlock reports,
// construction guards tripping, ranks bailing out on surfaced message
// loss) land in the SessionResult so the service can answer with a typed
// job-failure — a worker never dies with its job.

#include <cstdint>
#include <string>

#include "svc/jobspec.hpp"

namespace deep::sys {
class DeepSystem;
}

namespace deep::svc {

/// What a workload reports back when its run completes: did verification
/// pass, its scalar result, how many ranks abandoned it on a surfaced
/// message loss.
struct WorkloadOutcome {
  bool verified = false;
  double checksum = 0.0;
  int mpi_errors = 0;
};

/// Registers the programs of `spec`'s workload (and, for cholesky, its
/// offload kernel) on `system` and launches `main` on one cluster rank.
/// The caller then runs the engine; the programs fill `out` as they finish,
/// so it must outlive `system`, which holds them.  `spec` must be validated.
void launch_workload(sys::DeepSystem& system, const JobSpec& spec,
                     WorkloadOutcome& out);

/// Everything observable about one completed (or failed) session.
struct SessionResult {
  bool ok = false;     // workload completed AND its verification passed
  std::string error;   // non-empty when the simulation itself failed
  int mpi_errors = 0;  // ranks that abandoned the workload on surfaced loss
  double checksum = 0.0;       // workload-specific scalar result
  std::string report;          // sys::format_report() of the final system
  std::string metrics_json;    // obs::Registry::to_json(), "" if disabled
  std::int64_t final_ps = 0;   // virtual time when the run ended
  std::uint64_t events = 0;    // engine events executed

  /// One comparable string covering every observable field.  Two sessions
  /// with equal fingerprints were indistinguishable — the isolation and
  /// cache tests compare these bytes.
  std::string fingerprint() const;

  /// Result as a JSON object (the wire shape inside a job response).
  Json to_json() const;

  /// Inverse of to_json() — reconstructs the result a forked worker child
  /// serialised over its pipe.  Round-trips exactly (shortest-roundtrip
  /// double rendering), so fingerprints survive the crossing.
  static SessionResult from_json(const Json& j);
};

/// Runs the job a validated spec describes, in an isolated session, and
/// never throws: every failure mode is folded into the result.
SessionResult run_session(const JobSpec& spec);

}  // namespace deep::svc
