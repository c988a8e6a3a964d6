#pragma once
// Scenario specs for the simulation service (docs/service.md).
//
// A JobSpec is the description of one simulation job: which bundled
// workload to run, on what machine shape, with which engine and fault
// knobs, under which seed.  The service parses it from JSON; the deepsim
// CLI fills one from its flags.  Parsing and validation NEVER throw —
// every way a spec can be wrong is surfaced as a structured Reject (code +
// field + message) so the daemon can answer bad requests deterministically
// and keep serving, and the CLI can exit 2 naming the field.  The checks
// mirror the DEEP_EXPECT guards DeepSystem enforces at construction time —
// a spec that validates here will not trip a UsageError inside the worker —
// and add admission caps (`too_large`) that bound what one job may
// allocate.
//
// The result cache keys on canonical_key(): the spec re-rendered as a
// canonical JSON document with EVERY field present (defaults filled in) and
// keys sorted, so two requests that mean the same job hash identically no
// matter how sparse or reordered their JSON was.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "svc/json.hpp"
#include "sys/config.hpp"

namespace deep::svc {

/// Structured rejection: why a request was refused, deterministically.
struct Reject {
  std::string code;     // machine-readable: "bad_spec", "bad_topology", ...
  std::string field;    // offending spec field, "" when not field-specific
  std::string message;  // human-readable detail

  Json to_json() const {
    Json j = Json::object();
    j.set("code", code);
    j.set("field", field);
    j.set("message", message);
    return j;
  }
};

/// Declarative fault schedule (subset of net::FaultSpec, JSON-friendly).
struct SpecFaults {
  double drop_probability = 0.0;
  /// Gateway kill/heal events: index into the job's gateways.
  struct GatewayEvent {
    std::int64_t at_us = 0;
    int gateway = 0;
    bool up = false;
  };
  std::vector<GatewayEvent> gateways;
  /// Link kill/heal events between booster nodes (indices into the job's
  /// booster nodes; the torus attaches them in id order).
  struct LinkEvent {
    std::int64_t at_us = 0;
    int a = 0;
    int b = 0;
    bool up = false;
  };
  std::vector<LinkEvent> links;

  bool active() const {
    return drop_probability > 0.0 || !gateways.empty() || !links.empty();
  }
};

struct JobSpec {
  /// Admission caps: validate() refuses a spec past any of them with a
  /// `too_large` reject before anything is allocated, so one job cannot
  /// exhaust the host that runs it.  Measured peak RSS (deepsim, x86-64):
  /// about 1.1 KB per booster node, under 1 KB per cluster node, 1.6 KB per
  /// gateway; ranks cost more and grow faster than linearly in cholesky and
  /// nbody (an nbody rank holds every body).  At every cap at once, one job
  /// of any workload peaked at 109-432 MB.  procs x steps bounds its work.
  static constexpr int kMaxCluster = 16'384;
  static constexpr int kMaxBooster = 65'536;
  static constexpr int kMaxGateways = 1'024;
  static constexpr int kMaxProcs = 512;
  static constexpr int kMaxSteps = 10'000;
  static constexpr int kMaxWorkers = 64;  // engine threads
  static constexpr std::int64_t kMaxRankSteps = 65'536;  // procs x steps

  std::string workload = "stencil";  // stencil | spmv | nbody | cholesky
  std::string topology = "deep";     // deep | fattree | dragonfly
  bool adaptive = false;  // congestion-aware routing on the booster fabric
  int cluster = 4;
  int booster = 8;
  int gateways = 2;
  int procs = 4;
  int steps = 3;
  int partitions = 1;
  int workers = 1;
  bool metrics = true;
  std::uint64_t seed = 0;  // folded into the fault spec and the cache key
  SpecFaults faults;

  /// Parses and validates a spec object ({"workload": ..., ...}).  On
  /// failure `reject` is filled and nullopt returned; never throws.  A key
  /// to_json() does not write — in the spec, `faults` or a fault event — is
  /// a bad_spec reject whose field names it.
  static std::optional<JobSpec> from_json(const Json& j, Reject& reject);

  /// Parses a spec from raw text (convenience for the wire protocol).
  static std::optional<JobSpec> from_text(std::string_view text,
                                          Reject& reject);

  /// Semantic validation (topology shapes, engine guards, fault/partition
  /// composition, admission caps).  Mirrors DeepSystem's construction-time
  /// DEEP_EXPECTs.
  bool validate(Reject& reject) const;

  /// The spec as a fully-populated canonical JSON object (defaults
  /// materialised, keys sorted).
  Json to_json() const;

  /// Canonical cache key: dump of to_json().  Byte-identical for any two
  /// specs describing the same job.
  std::string canonical_key() const { return to_json().dump(); }

  /// FNV-1a hash of canonical_key(), hex-rendered — the short form used in
  /// responses, logs and the cache index.
  std::string key_hash() const { return hex64(fnv1a64(canonical_key())); }

  /// Materialises the sys::SystemConfig this spec describes.  Only call on
  /// a validated spec.
  sys::SystemConfig to_config() const;
};

}  // namespace deep::svc
