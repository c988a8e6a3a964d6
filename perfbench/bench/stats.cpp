#include "stats.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double tail_fraction(std::size_t n) {
  if (n <= 20) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::floor(q * 1000.0) / 1000.0;
}

std::string describe_timing(const std::vector<double>& v, double scale,
                            const char* unit) {
  const double tail = tail_fraction(v.size());
  char buf[160];
  std::snprintf(buf, sizeof buf, "p50 %.6g %s | p%.1f %.6g %s | n %zu",
                quantile(v, 0.5) * scale, unit, tail * 100.0,
                quantile(v, tail) * scale, unit, v.size());
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_meta_json() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %ld, \"loadavg\": [%.2f, %.2f, %.2f], "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"git_commit\": \"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2],
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                PERFBENCH_BUILD_TYPE, PERFBENCH_GIT_COMMIT);
  return buf;
}

bool optimised_build(std::string& why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  why = "sanitizer build";
  return false;
#endif
#endif
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  why = std::string("unoptimised or assert-enabled build (build type ") +
        PERFBENCH_BUILD_TYPE + ")";
  return false;
#endif
  (void)why;
  return true;
}

}  // namespace perfbench
