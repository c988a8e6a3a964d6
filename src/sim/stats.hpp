#pragma once
// Lightweight statistics accumulators used by fabrics, runtimes and benches.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace deep::sim {

/// Online min/max/mean/stddev accumulator (Welford).
class Summary {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::int64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  /// Folds another accumulator in (Chan et al. parallel Welford update), as
  /// if every sample added to `other` had been added here.  Used to combine
  /// per-partition shards kept by partition-aware fabrics.
  void merge(const Summary& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    mean_ += delta * nb / (na + nb);
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace deep::sim
