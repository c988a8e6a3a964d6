#pragma once
// Sample statistics, host clocks and host/build metadata for the
// benchmark's reports.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile (as a fraction) that still has at least ten
/// samples beyond it among `n` samples, floored at the median.
double tail_fraction(std::size_t n);

/// "p50 <x> | p<tail> <y> | n <n>" line for a sample of timings.
std::string describe_timing(const std::vector<double>& v, double scale,
                            const char* unit);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// One-line JSON object: nproc, load average, compiler, build type and git
/// commit of the running binary.
std::string host_meta_json();

/// False (with the reason in `why`) when the binary is a debug or sanitizer
/// build, whose timings the benchmark refuses to record.
bool optimised_build(std::string& why);

}  // namespace perfbench
