#pragma once
// Sessions rebuilt from the public sys::DeepSystem API, so the traced run
// can time each layer a session passes through: sys.construct, sim.run
// (launch + run), sys.report, obs.snapshot and sys.teardown.  A rebuilt
// session mirrors svc::run_session's stencil and spmv drivers, and its
// fingerprint must equal run_session's byte for byte — the traced run
// checks that for every session it times.

#include <cstdint>

#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "svc/jobspec.hpp"
#include "svc/session.hpp"
#include "trace.hpp"

namespace perfbench {

/// Kernel shapes svc::run_session gives its stencil and spmv workloads.
deep::apps::StencilConfig session_stencil_config();
deep::apps::SpmvConfig session_spmv_config(const deep::svc::JobSpec& spec);

struct RebuiltOptions {
  /// Turns on the engine's wall-clock instruments (sim.barrier_wait_ns.w<N>);
  /// they land in the metrics snapshot, so such a session's fingerprint
  /// differs from run_session's by design.
  bool wallclock_metrics = false;
};

/// Runs a stencil or spmv spec like svc::run_session, recording one span
/// per layer under a root span named "session" with id `job`.
deep::svc::SessionResult rebuilt_session(const deep::svc::JobSpec& spec,
                                         Tracer& tracer, std::uint64_t job,
                                         RebuiltOptions options = {});

}  // namespace perfbench
