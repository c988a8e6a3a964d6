#pragma once
// Output checks.  Every session the benchmark times is checked before its
// timing counts:
//   * against its pinned outputs (perfbench/pins.json, one pin per paper
//     workload and per service_mix class): ok, the checksum's exact bits,
//     final virtual time, events and message/byte counts of every fabric
//     the session used;
//   * against a reference that does not run the simulator (reference.hpp),
//     within a stated relative tolerance;
//   * byte for byte against a reference fingerprint (a solo run_session).
// Each check returns the list of failures; empty means the output passed.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "svc/jobspec.hpp"
#include "svc/session.hpp"

namespace perfbench {

/// Relative tolerance of a checksum against its serial reference.  The
/// simulated ranks sum in a different order (local sums, then a reduction
/// tree), so the last few bits may differ; any modelling error is far
/// larger.
inline constexpr double kReferenceTolerance = 1e-9;

struct FabricCounts {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
};

struct Pin {
  bool ok = true;
  std::uint64_t checksum_bits = 0;
  std::int64_t final_ps = 0;
  std::uint64_t events = 0;
  std::map<std::string, FabricCounts> fabrics;  // by fabric name
};

using Pins = std::map<std::string, Pin>;  // by pin name

/// Reads every pin of a pins file; nullopt (with `error`) when the file or
/// an entry is missing or malformed.
std::optional<Pins> load_pins(const std::string& path, std::string& error);

/// Pin of an observed result, in the pins-file JSON shape.
std::string pin_json(const deep::svc::SessionResult& result);

/// Scalar instruments of a registry snapshot: counter and gauge values,
/// and the sample count (name + ".count") and sum (name + ".sum") of every
/// histogram.
std::map<std::string, std::int64_t> snapshot_values(const std::string& metrics_json);

std::uint64_t double_bits(double v);

std::vector<std::string> check_pin(const deep::svc::SessionResult& result,
                                   const Pin& pin);

/// Checks the workload's checksum against the serial reference for stencil
/// and spmv specs, and `ok` for every spec (cholesky and nbody verify their
/// own results inside the session: factor error and momentum).
std::vector<std::string> check_reference(const deep::svc::JobSpec& spec,
                                         const deep::svc::SessionResult& result);

/// Byte-for-byte fingerprint comparison.
std::vector<std::string> check_same(const deep::svc::SessionResult& got,
                                    const std::string& want_fingerprint,
                                    const std::string& what);

}  // namespace perfbench
