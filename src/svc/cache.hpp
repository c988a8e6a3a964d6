#pragma once
// Determinism-dividend result cache (docs/service.md).
//
// Because a (spec, seed) pair replays bit-identically, the service can
// answer a repeated job with the stored outputs of its first run and the
// client cannot tell the difference — the session-isolation suite pins
// this by comparing fingerprints byte-for-byte.  Keys are the canonical
// spec rendering (JobSpec::canonical_key): every field present, keys
// sorted, so equivalent sparse/reordered requests hit the same entry.
//
// Bounded LRU with a single mutex.  Entries hold immutable results behind
// shared pointers: a lookup hands out a pointer copy under the lock, which
// keeps the result alive through a later eviction, and the caller copies
// the result itself (about 200 KB on a paper-scale spmv job) outside any
// lock, if at all.  Hit/miss/eviction
// tallies are kept under the same mutex; the service materialises them
// into its obs::Registry snapshot as svc.cache_hits / svc.cache_misses /
// svc.cache_evictions (obs::Counter cells are lane-local and unlocked, so
// they cannot be bumped concurrently from arbitrary service threads).  A
// lookup counts its hit; a miss is counted by the caller, which alone
// knows whether the missed job runs, joins a run in flight or is shed.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "svc/session.hpp"

namespace deep::svc {

/// LRU cache of SessionResults keyed by canonical spec rendering.
class ResultCache {
 public:
  /// `capacity` bounds the entry count; 0 disables storage (every lookup
  /// misses) while still counting, so the bench's cold mode is honest.
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the stored result and refreshes recency, counting a hit, or
  /// null on miss.
  std::shared_ptr<const SessionResult> lookup(const std::string& key);
  /// Counts one miss: a job that found no entry and runs.
  void count_miss();

  /// Stores (or refreshes) `result` under `key`, evicting the least
  /// recently used entry when full.  A failed simulation is cacheable too,
  /// its outcome is just as deterministic; the service never stores a host
  /// failure (fork, pipe, a killed child), which is not.
  void insert(const std::string& key,
              std::shared_ptr<const SessionResult> result);

  std::size_t size() const;
  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t evictions() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const SessionResult> result;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace deep::svc
