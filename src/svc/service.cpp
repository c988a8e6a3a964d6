#include "svc/service.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "obs/metrics.hpp"
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

std::uint64_t Service::submit(const std::string& spec_text) {
  Reject reject;
  std::optional<JobSpec> spec = JobSpec::from_text(spec_text, reject);

  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  if (!spec) {
    JobResult r;
    r.job_id = id;
    r.status = "rejected";
    r.reject = reject;
    ++jobs_rejected_;
    results_.emplace(id, std::move(r));
    lock.unlock();
    results_cv_.notify_all();
    return id;
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    // Shed load instead of blocking the submitter: the reject is the
    // back-pressure signal.
    JobResult r;
    r.job_id = id;
    r.status = "rejected";
    r.reject = {"queue_full", "",
                "job queue at capacity (" +
                    std::to_string(cfg_.queue_capacity) + "); retry later"};
    ++jobs_rejected_;
    ++queue_rejects_;
    results_.emplace(id, std::move(r));
    lock.unlock();
    results_cv_.notify_all();
    return id;
  }
  queue_.push_back(PendingJob{id, std::move(*spec)});
  lock.unlock();
  queue_cv_.notify_one();
  return id;
}

JobResult Service::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  results_cv_.wait(lock, [&] { return results_.count(job_id) != 0; });
  auto it = results_.find(job_id);
  JobResult r = std::move(it->second);
  results_.erase(it);
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
    complete(execute(std::move(job)));
  }
}

JobResult Service::execute(PendingJob job) {
  JobResult r;
  r.job_id = job.id;
  r.key = job.spec.key_hash();

  const std::string cache_key = job.spec.canonical_key();
  if (std::optional<SessionResult> hit = cache_.lookup(cache_key)) {
    r.cache_hit = true;
    r.session = std::move(*hit);
    r.status = r.session.error.empty() && r.session.ok ? "ok" : "failed";
    return r;
  }

  // A failed simulation replays bit-identically, so it is cached like a
  // success; a host failure (fork, pipe, a killed child) is not replayed.
  bool host_failed = false;
  r.session = cfg_.fork_per_job ? run_forked(job.spec, host_failed)
                                : run_session(job.spec);
  r.status = r.session.error.empty() && r.session.ok ? "ok" : "failed";
  if (!host_failed) cache_.insert(cache_key, r.session);
  return r;
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

void Service::complete(JobResult result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.status == "ok") {
      ++jobs_ok_;
    } else {
      ++jobs_failed_;
    }
    results_.emplace(result.job_id, std::move(result));
  }
  results_cv_.notify_all();
}

std::string Service::stats_json() const {
  // Materialise the authoritative tallies into a fresh registry at call
  // time: obs::Counter cells are lane-local and unlocked, so they cannot be
  // bumped live from arbitrary service threads — but a snapshot built here,
  // single-threaded, honours the same sorted-names determinism contract.
  obs::Registry reg;
  std::int64_t ok, failed, rejected, shed, depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ok = jobs_ok_;
    failed = jobs_failed_;
    rejected = jobs_rejected_;
    shed = queue_rejects_;
    depth = static_cast<std::int64_t>(queue_.size());
  }
  reg.counter("svc.cache_evictions").add(cache_.evictions());
  reg.counter("svc.cache_hits").add(cache_.hits());
  reg.counter("svc.cache_misses").add(cache_.misses());
  reg.counter("svc.jobs_failed").add(failed);
  reg.counter("svc.jobs_ok").add(ok);
  reg.counter("svc.jobs_rejected").add(rejected);
  reg.gauge("svc.queue_depth").set(depth);
  reg.counter("svc.queue_rejects").add(shed);
  return reg.to_json();
}

}  // namespace deep::svc
