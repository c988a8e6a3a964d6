#pragma once
// The multi-tenant simulation service (docs/service.md).
//
// A Service owns a bounded job queue, a pool of worker threads each running
// one isolated session at a time, and the determinism-dividend result
// cache.  Requests enter as raw JSON text; every way a request can end —
// served from cache, simulated fresh, failed inside the simulation,
// rejected before it ever touched a worker — is a structured JobResult.
// submit() answers a cache hit on the caller's thread, and a miss whose
// key is already queued or running joins that run (single flight), so only
// a job that needs a simulation of its own takes a queue slot.  The queue
// never blocks the submitter: when it is full such a job is shed
// immediately with a typed "queue_full" reject.  The line loop
// (svc/serve.hpp) keeps each conversation inside the queue capacity by not
// reading, so only direct API callers see that reject.
//
// Two isolation levels:
//   threads (default)  — one util::SessionSlot per in-flight job keeps the
//                        pool arenas disjoint; cheapest, shares the cache.
//   fork-per-job       — each job simulates in a forked child and ships its
//                        result back over a pipe; a crashing job (or a
//                        hostile spec) cannot take the daemon down.  The
//                        parent caches the shipped result, but not a
//                        host failure (fork, pipe, a killed child).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/cache.hpp"
#include "svc/jobspec.hpp"
#include "svc/session.hpp"

namespace deep::svc {

struct ServiceConfig {
  int workers = 2;                  // worker threads (clamped to the
                                    // claimable session-slot count)
  std::size_t queue_capacity = 16;  // pending jobs before load shedding
  std::size_t cache_entries = 64;   // result-cache capacity (0 disables)
  bool fork_per_job = false;        // hard isolation: fork() per job
};

/// Terminal state of one submitted job.
struct JobResult {
  std::uint64_t job_id = 0;
  std::string status;  // "ok" | "failed" | "rejected"
  Reject reject;       // filled when status == "rejected"
  bool cache_hit = false;  // served without a simulation of its own
  std::string key;        // spec key hash (hex), "" when rejected
  SessionResult session;  // filled when the job was served

  Json to_json() const;
};

class Service {
 public:
  explicit Service(ServiceConfig cfg);
  ~Service();  // drains the queue, joins the workers
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits one raw JSON spec.  Always returns a job id.  A cache hit and
  /// a parse/validation failure or queue saturation (status "rejected")
  /// complete the job before submit returns, so wait() on the id returns
  /// without touching a worker.  A miss whose key is already queued or
  /// running completes with that run, as a cache hit.  With cache_entries
  /// 0 every accepted job simulates.
  std::uint64_t submit(const std::string& spec_text);

  /// Blocks until the job completes and returns (moves out) its result;
  /// the completion wakes only this caller.  Each id may be waited on
  /// once: an id never issued, already collected or already being waited
  /// on throws util::UsageError.
  JobResult wait(std::uint64_t job_id);

  /// Synchronous convenience: submit + wait.
  JobResult run(const std::string& spec_text) { return wait(submit(spec_text)); }

  /// Service-level instrument snapshot (svc.* names) as registry JSON —
  /// same sorted-names contract as every other metrics snapshot.  Counter
  /// values are materialised from the authoritative tallies at call time.
  std::string stats_json() const;

  int workers() const { return static_cast<int>(threads_.size()); }
  std::size_t queue_capacity() const { return cfg_.queue_capacity; }
  const ResultCache& cache() const { return cache_; }

 private:
  struct PendingJob {
    std::uint64_t id = 0;
    JobSpec spec;
    std::string cache_key;  // spec.canonical_key()
    std::string key;        // its hash, JobResult::key
  };

  /// A job issued and not yet collected.  Its session result is shared
  /// with the cache and with every job that joined the same run; wait()
  /// copies it into the JobResult outside the lock.
  struct Ticket {
    std::optional<JobResult> result;  // set, session left empty, when the
                                      // job completes
    std::shared_ptr<const SessionResult> session;  // null for a reject
    std::condition_variable* waiter = nullptr;  // the wait() blocked on it
  };

  void worker_loop();
  /// Simulates the job and caches its result unless the host failed it.
  std::shared_ptr<const SessionResult> execute(const PendingJob& job);
  /// Simulates `spec` in a forked child; sets `host_failed` when the host,
  /// not the simulation, ended the job (its result must not be cached).
  SessionResult run_forked(const JobSpec& spec, bool& host_failed);
  /// Files `result` and its `session` under its ticket and wakes that
  /// ticket's waiter, if any.  Requires mu_.
  void complete_locked(JobResult result,
                       std::shared_ptr<const SessionResult> session = nullptr);
  void reject_locked(std::uint64_t id, Reject reject);

  ServiceConfig cfg_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // workers: queue non-empty / stop
  std::deque<PendingJob> queue_;
  std::unordered_map<std::uint64_t, Ticket> tickets_;
  // Cache key of each queued or running job -> the ids of the jobs that
  // joined it.  An entry is erased only after its result is in the cache,
  // so a duplicate finds one or the other.  Empty without a cache.
  std::unordered_map<std::string, std::vector<std::uint64_t>> in_flight_;
  std::uint64_t next_id_ = 1;
  std::int64_t jobs_ok_ = 0;
  std::int64_t jobs_failed_ = 0;
  std::int64_t jobs_rejected_ = 0;
  std::int64_t jobs_coalesced_ = 0;
  std::int64_t queue_rejects_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace deep::svc
