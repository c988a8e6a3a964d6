#pragma once
// In-memory span recorder for the traced run.  Spans are taken around the
// benchmark's own calls into each layer (never inside the simulator), kept
// in memory and written out as JSON when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t job = 0;  // spans of one job share this id
  int parent = -1;        // index of the causing span, -1 for a root
  double start_s = 0.0;   // seconds since the tracer was created
  double end_s = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its index for close() and as a child's parent.
  int open(std::string name, std::uint64_t job, int parent = -1);
  void close(int index);

  std::vector<Span> spans() const;

  /// Durations (s) of every closed span, grouped by name.
  std::map<std::string, std::vector<double>> durations() const;

  /// Total self time (s) per span name: duration minus the part of it that
  /// child spans cover.
  std::map<std::string, double> self_seconds() const;

  /// Writes every span as a JSON array; false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::uint64_t job, int parent = -1)
      : tracer_(tracer), index_(tracer.open(std::move(name), job, parent)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
