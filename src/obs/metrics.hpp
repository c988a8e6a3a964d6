#pragma once
// deep::obs — the metrics layer: a Registry of named counters, gauges and
// log-bucketed latency histograms, designed for the engine's zero-allocation
// hot path (docs/observability.md).
//
// Contract (same as sim::Tracer): layers register their instruments once, at
// construction time, and keep the returned *handle*.  A handle is a registry
// pointer plus a stable cell index; recording through it is a null check
// plus plain integer arithmetic — no hashing, no allocation, no floating
// point.  When no registry is attached the handles are null and every
// record call collapses to one predictable branch.
//
// Parallel engine support (docs/parallel_engine.md): cell storage is
// *lane-indexed*.  A lane corresponds to an engine partition; the executor
// sets the thread's lane (util::exec_lane) before running a partition's
// events, so concurrent partitions record into disjoint cells with no
// atomics and no locks.  Snapshots merge lanes in lane order — counters and
// histogram buckets are commutative sums, so the merged snapshot is
// independent of both the worker count and the execution interleaving.
// Gauges are level samples, not sums: they are only meaningful when written
// from lane 0 (the main/commit thread), which is where the engine writes
// them.  A plain serial simulation only ever touches lane 0 and behaves
// exactly as before.
//
// Determinism: every cell holds only integers, histogram bucket boundaries
// are fixed powers of two (bucket index = bit_width of the value), and
// percentiles are derived from bucket counts with integer ranks.  Two
// replays of a deterministic simulation therefore produce byte-identical
// snapshots (to_json/to_csv_table), which the metrics determinism suite
// asserts across seeds, chaos plans and worker counts.
//
// Registration is idempotent: asking for an existing name (same kind)
// returns a handle to the same cell, which is how per-rank instruments share
// system-wide aggregates.  Registration is also legal from any lane at any
// time — per-rank instruments register when rank fibers start, which on a
// partitioned engine happens on worker threads: the entry table is guarded
// by a mutex and cells live in pointer-stable chunked storage, so growth
// never relocates a cell another lane is recording into.  Because the
// *order* in which workers first touch a name is scheduling-dependent,
// snapshot exporters (to_json/to_csv_table) list entries sorted by name —
// independent of both worker count and interleaving.  The time-series
// sampler (sample_columns/append_sample) keeps first-registration order,
// whose append-only property it relies on for stable column prefixes.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace deep::util {
class Table;
}

namespace deep::obs {

class Registry;

/// Pointer-stable cell storage: slots address fixed-size heap chunks through
/// a preallocated chunk-pointer table (the EndpointTable pattern).  Growth
/// allocates new chunks but never moves existing cells, so registration —
/// serialised by the registry mutex — is safe while workers concurrently
/// record into slots that were already handed out (a handle only reaches a
/// worker after its chunk exists, via the engine's synchronised queues).
template <typename T>
class CellStore {
 public:
  static constexpr std::size_t kChunkBits = 6;  // 64 cells per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = 1024;  // 65,536 instruments

  T& operator[](std::size_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  const T& operator[](std::size_t slot) const {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  std::size_t size() const { return size_; }

  /// Grows to hold at least `count` value-initialised cells.
  void ensure(std::size_t count) {
    DEEP_EXPECT(count <= kChunkSize * kMaxChunks,
                "CellStore: instrument limit exceeded");
    for (std::size_t c = 0; c * kChunkSize < count; ++c)
      if (!chunks_[c]) chunks_[c] = std::make_unique<T[]>(kChunkSize);
    if (count > size_) size_ = count;
  }

 private:
  std::array<std::unique_ptr<T[]>, kMaxChunks> chunks_;
  std::size_t size_ = 0;
};

/// Monotonic event count (messages sent, retries, busy picoseconds...).
struct CounterCell {
  std::int64_t value = 0;
};

/// Last-written level plus its high-water mark (queue depth, occupancy).
struct GaugeCell {
  std::int64_t value = 0;
  std::int64_t peak = 0;
};

/// Log-bucketed distribution of non-negative integer samples (latencies in
/// ns, sizes in bytes).  Bucket 0 collects v <= 0; bucket b in [1, 62]
/// collects bit_width(v) == b, i.e. v in [2^(b-1), 2^b - 1]; bucket 63 is
/// the overflow bucket (v >= 2^62).  min/max/sum/count are exact.
struct HistogramCell {
  static constexpr int kNumBuckets = 64;
  static constexpr int kOverflowBucket = kNumBuckets - 1;

  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::array<std::int64_t, kNumBuckets> buckets{};

  static int bucket_of(std::int64_t v) {
    if (v <= 0) return 0;
    const int b = std::bit_width(static_cast<std::uint64_t>(v));
    return b < kOverflowBucket ? b : kOverflowBucket;
  }

  /// Largest value bucket `b` can hold (its inclusive upper boundary).
  static std::int64_t bucket_upper(int b) {
    if (b <= 0) return 0;
    if (b >= kOverflowBucket) return INT64_MAX;
    return (std::int64_t{1} << b) - 1;
  }

  void record(std::int64_t v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
    ++buckets[static_cast<std::size_t>(bucket_of(v))];
  }

  void merge(const HistogramCell& other) {
    if (other.count == 0) return;
    if (count == 0) {
      min = other.min;
      max = other.max;
    } else {
      if (other.min < min) min = other.min;
      if (other.max > max) max = other.max;
    }
    count += other.count;
    sum += other.sum;
    for (int b = 0; b < kNumBuckets; ++b)
      buckets[static_cast<std::size_t>(b)] +=
          other.buckets[static_cast<std::size_t>(b)];
  }

  /// Value at percentile `pct` in [0, 100]: the upper boundary of the first
  /// bucket whose cumulative count reaches ceil(count * pct / 100), clamped
  /// to the exact observed max.  Pure integer arithmetic — deterministic.
  std::int64_t value_at_percentile(int pct) const {
    if (count == 0) return 0;
    std::int64_t rank = (count * pct + 99) / 100;
    if (rank < 1) rank = 1;
    std::int64_t cum = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      cum += buckets[static_cast<std::size_t>(b)];
      if (cum >= rank) return std::min(bucket_upper(b), max);
    }
    return max;
  }
};

/// Handle to a counter cell; default-constructed handles are detached and
/// add() is a single branch.
class Counter {
 public:
  Counter() = default;
  // Recording mutates the registry's cell, not the handle, so the methods
  // are const: layers may record through const references.
  inline void add(std::int64_t v) const;
  void inc() const { add(1); }
  bool attached() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

class Gauge {
 public:
  Gauge() = default;
  inline void set(std::int64_t v) const;
  bool attached() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

class Histogram {
 public:
  Histogram() = default;
  inline void record(std::int64_t v) const;
  /// Folds `other`'s samples into this histogram (both must be attached).
  /// Operates on the current lane's cells.
  inline void merge_from(const Histogram& other) const;
  bool attached() const { return reg_ != nullptr; }
  /// Read access for tests/exporters; null when detached.  Returns the
  /// current lane's cell (lane 0 in serial runs — the only lane there is).
  inline const HistogramCell* cell() const;

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// The instrument registry.  Owns all cells; attach to an Engine with
/// set_metrics() *before* constructing the layers so they can register
/// handles in their constructors.
class Registry {
 public:
  Registry() { lanes_.push_back(std::make_unique<Lane>()); }
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or finds) the named instrument.  Re-registering an existing
  /// name with the same kind returns a handle to the same cell; a kind
  /// mismatch is a usage error.  Safe from any lane, including worker
  /// threads mid-run (see file comment).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Grows lane storage so partitions [0, n) can record concurrently.
  /// Called by the engine before a multi-partition run; existing cells keep
  /// their values (new lanes start zeroed).  Main thread only.
  void ensure_lanes(std::uint32_t n);
  std::uint32_t lanes() const { return static_cast<std::uint32_t>(lanes_.size()); }

  /// Reads a registered instrument's primary value by name (counter/gauge
  /// value, histogram count), merged across lanes; 0 when absent.  Slow
  /// path, for tests/reports.
  std::int64_t value(std::string_view name) const;

  /// JSON snapshot, entries sorted by name, integers only — two replays of
  /// a deterministic run produce byte-identical documents.  Lanes are
  /// merged in lane order and the name sort erases registration-order
  /// differences, so the document is independent of both the worker count
  /// and the thread interleaving that produced it.
  std::string to_json() const;

  /// Long-format snapshot table (columns: metric, field, value), sorted by
  /// metric name — the CSV exporter and the report section build on this.
  util::Table to_csv_table() const;

  /// Column names for a wide time-series table: "time_ps" then one column
  /// per counter value, gauge value/peak, histogram count/sum/p50/p99/max.
  std::vector<std::string> sample_columns() const;
  /// Appends one sample row (matching sample_columns()) to `table`.
  void append_sample(util::Table& table, sim::TimePoint now) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

  struct Entry {
    std::string name;
    Kind kind;
    std::uint32_t slot;  // index into the per-lane array of this kind
  };

  /// One lane's cells, indexed by Entry::slot.  Chunked pointer-stable
  /// storage: growth during registration never relocates cells other lanes
  /// are recording into (see CellStore).
  struct Lane {
    CellStore<CounterCell> counters;
    CellStore<GaugeCell> gauges;
    CellStore<HistogramCell> hists;
  };

  // Callers hold mu_.
  const Entry* find_locked(std::string_view name) const;
  /// Returns the entry's slot by value: a reference into entries_ would
  /// dangle the moment the registration lock is released (a concurrent
  /// registration can reallocate the vector).
  std::uint32_t get_or_create(std::string_view name, Kind kind);
  /// Entry indices sorted by name, for the snapshot exporters.
  std::vector<std::size_t> sorted_order_locked() const;

  Lane& lane() {
    const std::uint32_t l = util::exec_lane();
    DEEP_ASSERT(l < lanes_.size() || l == 0,
                "Registry: recording from a lane without storage");
    return l < lanes_.size() ? *lanes_[l] : *lanes_[0];
  }

  // Merged (cross-lane) views; see file comment for the merge rules.
  std::int64_t merged_counter(std::uint32_t slot) const;
  const GaugeCell& merged_gauge(std::uint32_t slot) const;
  HistogramCell merged_hist(std::uint32_t slot) const;

  // Guards entries_ and cell-storage growth: registration can arrive from
  // any lane (rank fibers starting on worker threads).  Recording never
  // takes it — lanes are disjoint and cells never move.
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // registration order
  std::vector<std::unique_ptr<Lane>> lanes_;  // lanes_[0] always exists
};

inline void Counter::add(std::int64_t v) const {
  if (reg_) reg_->lane().counters[slot_].value += v;
}

inline void Gauge::set(std::int64_t v) const {
  if (reg_) {
    GaugeCell& cell = reg_->lane().gauges[slot_];
    cell.value = v;
    if (v > cell.peak) cell.peak = v;
  }
}

inline void Histogram::record(std::int64_t v) const {
  if (reg_) reg_->lane().hists[slot_].record(v);
}

inline void Histogram::merge_from(const Histogram& other) const {
  if (reg_ && other.reg_)
    reg_->lane().hists[slot_].merge(other.reg_->lane().hists[other.slot_]);
}

inline const HistogramCell* Histogram::cell() const {
  return reg_ ? &reg_->lane().hists[slot_] : nullptr;
}

}  // namespace deep::obs
