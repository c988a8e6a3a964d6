#pragma once
// Layer probes for the traced run: each calls one public function of one
// layer in a loop, at the shape a workload uses, and reports host
// nanoseconds per operation.  Where a probe cannot avoid driving the layers
// below it (an MPI message needs the engine and a fabric), the cost of
// those layers, measured by their own probes, is subtracted so each figure
// is the layer's self cost.

#include <string>
#include <vector>

#include "svc/jobspec.hpp"

namespace perfbench {

struct ProbeShape {
  int cluster = 4;
  int booster = 8;
  int gateways = 2;
  int procs = 4;            // ranks of the collective probe
  int message_bytes = 2048;  // payload of the point-to-point probes
};

/// Shape of a workload's traffic: its machine and its halo message size.
ProbeShape probe_shape(const deep::svc::JobSpec& spec);

struct ProbeCosts {
  double dispatch_ns = 0;        // sim: one engine event
  double switch_ns = 0;          // sim: one fiber slice and the event resuming it
  double torus_send_ns = 0;      // net: one torus message, engine excluded
  double eager_ns = 0;           // mpi: one eager message, engine/net excluded
  double allreduce_ns = 0;       // mpi: one allreduce over `procs` ranks
  double cbp_forward_ns = 0;     // cbp: extra cost of crossing a gateway
  double jacobi_sweep_ns = 0;    // apps: one nx 256 x 64-row Jacobi sweep
  double spmv_iter_ns = 0;       // apps: one 256-row power-iteration step
  double ompss_task_ns = 0;      // ompss: submit + run one task
  double parse_us = 0;           // svc: JobSpec::from_text of one spec
};

/// Runs every probe at `shape`; `spec_texts` feed the parse probe.
ProbeCosts run_probes(const ProbeShape& shape,
                      const std::vector<std::string>& spec_texts);

}  // namespace perfbench
