#include "svc/service.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace deep::svc {

Json JobResult::to_json() const {
  Json j = Json::object();
  j.set("job_id", static_cast<std::int64_t>(job_id));
  j.set("status", status);
  if (status == "rejected") {
    j.set("reject", reject.to_json());
  } else {
    j.set("cache_hit", cache_hit);
    j.set("key", key);
    j.set("result", session.to_json());
  }
  return j;
}

Service::Service(ServiceConfig cfg) : cfg_(cfg), cache_(cfg.cache_entries) {
  // One in-flight job per worker, each under its own claimed SessionSlot;
  // slot 0 is the default session and never handed out, hence the bound.
  const int max_workers = static_cast<int>(util::kMaxSessions) - 1;
  const int n = std::clamp(cfg_.workers, 1, max_workers);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

Service::~Service() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

namespace {

const char* status_of(const SessionResult& session) {
  return session.error.empty() && session.ok ? "ok" : "failed";
}

}  // namespace

std::uint64_t Service::submit(const std::string& spec_text) {
  Reject reject;
  std::optional<JobSpec> spec = JobSpec::from_text(spec_text, reject);
  std::string cache_key, key;
  if (spec) {
    cache_key = spec->canonical_key();
    key = hex64(fnv1a64(cache_key));
  }
  const bool caching = cfg_.cache_entries > 0;

  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  tickets_.try_emplace(id);
  if (!spec) {
    reject_locked(id, std::move(reject));
    return id;
  }
  if (caching) {
    // One lock over both checks: a worker erases its in-flight entry only
    // after caching the result, so a duplicate finds one or the other.
    if (auto it = in_flight_.find(cache_key); it != in_flight_.end()) {
      it->second.push_back(id);
      ++jobs_coalesced_;
      return id;
    }
    if (std::shared_ptr<const SessionResult> hit = cache_.lookup(cache_key)) {
      JobResult r;
      r.job_id = id;
      r.status = status_of(*hit);
      r.cache_hit = true;
      r.key = std::move(key);
      complete_locked(std::move(r), std::move(hit));
      return id;
    }
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    // Shed load instead of blocking the submitter: the reject is the
    // back-pressure signal.
    ++queue_rejects_;
    reject_locked(id, {"queue_full", "",
                       "job queue at capacity (" +
                           std::to_string(cfg_.queue_capacity) +
                           "); retry later"});
    return id;
  }
  cache_.count_miss();
  if (caching) in_flight_.try_emplace(cache_key);
  queue_.push_back(
      PendingJob{id, std::move(*spec), std::move(cache_key), std::move(key)});
  lock.unlock();
  queue_cv_.notify_one();
  return id;
}

JobResult Service::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = tickets_.find(job_id);
  if (it == tickets_.end())
    throw util::UsageError(std::string("Service::wait: job ")
                               .append(std::to_string(job_id))
                               .append(" was never issued or was already "
                                       "collected"));
  Ticket& ticket = it->second;  // a reference survives rehashing
  if (ticket.waiter != nullptr)
    throw util::UsageError(std::string("Service::wait: job ")
                               .append(std::to_string(job_id))
                               .append(" is already being waited on"));
  if (!ticket.result) {
    std::condition_variable woken;
    ticket.waiter = &woken;
    woken.wait(lock, [&] { return ticket.result.has_value(); });
  }
  JobResult r = std::move(*ticket.result);
  const std::shared_ptr<const SessionResult> session =
      std::move(ticket.session);
  tickets_.erase(job_id);
  lock.unlock();
  if (session != nullptr) r.session = *session;
  return r;
}

void Service::worker_loop() {
  for (;;) {
    PendingJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    std::shared_ptr<const SessionResult> session = execute(job);
    JobResult r;
    r.job_id = job.id;
    r.status = status_of(*session);
    r.key = job.key;
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = in_flight_.find(job.cache_key); it != in_flight_.end()) {
      // The jobs that joined this run get its result, host failure or not.
      for (const std::uint64_t follower : it->second) {
        JobResult copy = r;
        copy.job_id = follower;
        copy.cache_hit = true;
        complete_locked(std::move(copy), session);
      }
      in_flight_.erase(it);
    }
    complete_locked(std::move(r), std::move(session));
  }
}

std::shared_ptr<const SessionResult> Service::execute(const PendingJob& job) {
  // A failed simulation replays bit-identically, so it is cached like a
  // success; a host failure (fork, pipe, a killed child) is not replayed.
  bool host_failed = false;
  auto session = std::make_shared<const SessionResult>(
      cfg_.fork_per_job ? run_forked(job.spec, host_failed)
                        : run_session(job.spec));
  if (!host_failed) cache_.insert(job.cache_key, session);
  return session;
}

SessionResult Service::run_forked(const JobSpec& spec, bool& host_failed) {
  const auto host_error = [&host_failed](std::string message) {
    host_failed = true;
    SessionResult r;
    r.error = std::move(message);
    return r;
  };
  int fds[2];
  if (pipe(fds) != 0)
    return host_error(std::string("pipe: ") + std::strerror(errno));
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return host_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: simulate, ship the result as one JSON document, and _exit —
    // no stdio flushing, no destructors touching shared parent state.
    close(fds[0]);
    const std::string doc = run_session(spec).to_json().dump();
    std::size_t off = 0;
    while (off < doc.size()) {
      const ssize_t n = write(fds[1], doc.data() + off, doc.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  // Parent: read until the child closes its end, then reap it.
  close(fds[1]);
  std::string doc;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    doc.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (WIFSIGNALED(wstatus))
    return host_error("worker child killed by signal " +
                      std::to_string(WTERMSIG(wstatus)));
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0 || doc.empty())
    return host_error("worker child exited abnormally (status " +
                      std::to_string(WEXITSTATUS(wstatus)) + ")");
  const Json::ParseResult parsed = Json::parse(doc);
  if (!parsed.ok)
    return host_error("worker child result unparsable: " + parsed.error);
  return SessionResult::from_json(parsed.value);
}

void Service::complete_locked(JobResult result,
                              std::shared_ptr<const SessionResult> session) {
  if (result.status == "ok") {
    ++jobs_ok_;
  } else if (result.status == "failed") {
    ++jobs_failed_;
  } else {
    ++jobs_rejected_;
  }
  Ticket& ticket = tickets_.at(result.job_id);
  ticket.result = std::move(result);
  ticket.session = std::move(session);
  // Notified under mu_: the condition variable lives in the waiting
  // wait() call and is gone as soon as that call returns.
  if (ticket.waiter != nullptr) ticket.waiter->notify_one();
}

void Service::reject_locked(std::uint64_t id, Reject reject) {
  JobResult r;
  r.job_id = id;
  r.status = "rejected";
  r.reject = std::move(reject);
  complete_locked(std::move(r));
}

std::string Service::stats_json() const {
  // Materialise the authoritative tallies into a fresh registry at call
  // time: obs::Counter cells are lane-local and unlocked, so they cannot be
  // bumped live from arbitrary service threads — but a snapshot built here,
  // single-threaded, honours the same sorted-names determinism contract.
  obs::Registry reg;
  std::int64_t ok, failed, rejected, coalesced, shed, depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ok = jobs_ok_;
    failed = jobs_failed_;
    rejected = jobs_rejected_;
    coalesced = jobs_coalesced_;
    shed = queue_rejects_;
    depth = static_cast<std::int64_t>(queue_.size());
  }
  reg.counter("svc.cache_evictions").add(cache_.evictions());
  reg.counter("svc.cache_hits").add(cache_.hits());
  reg.counter("svc.cache_misses").add(cache_.misses());
  reg.counter("svc.jobs_coalesced").add(coalesced);
  reg.counter("svc.jobs_failed").add(failed);
  reg.counter("svc.jobs_ok").add(ok);
  reg.counter("svc.jobs_rejected").add(rejected);
  reg.gauge("svc.queue_depth").set(depth);
  reg.counter("svc.queue_rejects").add(shed);
  return reg.to_json();
}

}  // namespace deep::svc
