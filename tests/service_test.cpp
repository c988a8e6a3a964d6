// Session-isolation property suite for the multi-tenant simulation service
// (docs/service.md).  The contracts pinned here:
//
//   * Re-entrancy: running the same SystemConfig twice in one process is
//     byte-identical to two fresh processes (report + metrics snapshot) —
//     the pool arenas carry no observable warm-up state across runs.
//   * Isolation: N sessions simulating concurrently produce results
//     bit-identical to each spec run solo.
//   * Determinism dividend: a cache hit is byte-identical to a fresh run,
//     and the cache key canonicalisation makes reordered/sparse JSON
//     variants of the same job hit the same entry.
//   * Serving at submit: a hit is answered on the caller's thread, a
//     duplicate of a job still queued or running joins that run (exactly
//     one simulation per key), and each completion wakes only its waiter.
//   * Typed failure: bad specs are rejected deterministically and leak
//     nothing; a chaos job that kills its own gateways fails cleanly and
//     leaves its worker healthy; a saturated queue sheds load with a typed
//     reject instead of blocking or dropping silently.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/jobspec.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"
#include "util/error.hpp"

namespace dsv = deep::svc;
namespace dsy = deep::sys;

namespace {

dsv::JobSpec small_spec(const std::string& workload, std::uint64_t seed) {
  dsv::JobSpec spec;
  spec.workload = workload;
  spec.cluster = 2;
  spec.booster = 4;
  spec.gateways = 2;
  spec.procs = 2;
  spec.steps = 2;
  spec.seed = seed;
  return spec;
}

std::string spec_text(const dsv::JobSpec& spec) {
  return spec.to_json().dump();
}

// One instrument's value from Service::stats_json().
std::int64_t stat(const dsv::Service& service, const std::string& name) {
  const dsv::ParseResult parsed = dsv::Json::parse(service.stats_json());
  for (const dsv::Json& m : parsed.value.find("metrics")->items())
    if (m.find("name")->as_string() == name) return m.find("value")->as_int();
  ADD_FAILURE() << "no instrument " << name;
  return -1;
}

// Every job that reaches the cache is counted exactly once.
void expect_each_job_counted_once(const dsv::Service& service) {
  EXPECT_EQ(stat(service, "svc.cache_hits") +
                stat(service, "svc.jobs_coalesced") +
                stat(service, "svc.cache_misses"),
            stat(service, "svc.jobs_ok") + stat(service, "svc.jobs_failed"));
}

// --- Re-entrancy -----------------------------------------------------------

// The red-to-green smoke for the tentpole: construct, run and tear down the
// same scenario twice in ONE process and require byte-identical outputs.
// Before pool arenas were session-aware this was the first place any warm
// free-list state would have shown through.
TEST(ServiceReentrancy, DoubleRunIsByteIdentical) {
  const dsv::JobSpec spec = small_spec("stencil", 7);
  const dsv::SessionResult first = dsv::run_session(spec);
  const dsv::SessionResult second = dsv::run_session(spec);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

// Same property straight at the sys:: layer, without the service wrapping:
// two DeepSystems in sequence, reports and registry snapshots byte-equal.
TEST(ServiceReentrancy, BareSystemDoubleRun) {
  auto one_run = [] {
    dsy::SystemConfig cfg;
    cfg.cluster_nodes = 2;
    cfg.booster_nodes = 4;
    cfg.gateways = 2;
    cfg.metrics.enabled = true;
    dsy::DeepSystem system(cfg);
    system.programs().add("main", [](dsy::ProgramEnv& env) {
      env.mpi.compute({1e9, 0, 0.05}, env.mpi.node().spec().cores);
    });
    system.launch("main", 2);
    system.run();
    return dsy::format_report(system) + "|" + system.metrics()->to_json();
  };
  EXPECT_EQ(one_run(), one_run());
}

// Also with metrics off: the registry counts either way and only its
// publication differs, so the simulation itself must not move.
TEST(ServiceReentrancy, AllWorkloadsRunTwiceIdentically) {
  for (const char* w : {"stencil", "spmv", "nbody", "cholesky"}) {
    dsv::JobSpec spec = small_spec(w, 11);
    const dsv::SessionResult a = dsv::run_session(spec);
    const dsv::SessionResult b = dsv::run_session(spec);
    ASSERT_TRUE(a.ok) << w << ": " << a.error;
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << w;
    spec.metrics = false;
    const dsv::SessionResult off = dsv::run_session(spec);
    ASSERT_TRUE(off.ok) << w << ": " << off.error;
    EXPECT_TRUE(off.metrics_json.empty()) << w;
    EXPECT_EQ(off.final_ps, a.final_ps) << w;
    EXPECT_EQ(off.events, a.events) << w;
    EXPECT_EQ(off.checksum, a.checksum) << w;
    EXPECT_EQ(off.mpi_errors, a.mpi_errors) << w;
  }
}

// --- Isolation -------------------------------------------------------------

// N different jobs simulating concurrently, each in its own session, must
// be indistinguishable from each job run solo.
TEST(ServiceIsolation, ConcurrentSessionsMatchSolo) {
  std::vector<dsv::JobSpec> specs;
  specs.push_back(small_spec("stencil", 1));
  specs.push_back(small_spec("spmv", 2));
  specs.push_back(small_spec("nbody", 3));
  specs.push_back(small_spec("cholesky", 4));

  std::vector<std::string> solo;
  for (const dsv::JobSpec& spec : specs)
    solo.push_back(dsv::run_session(spec).fingerprint());

  // Raw concurrent sessions (no service, no cache): one thread per spec.
  std::vector<std::string> concurrent(specs.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < specs.size(); ++i)
      threads.emplace_back([&, i] {
        concurrent[i] = dsv::run_session(specs[i]).fingerprint();
      });
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(solo[i], concurrent[i]) << specs[i].workload;

  // Through the service worker pool, cache disabled so every job simulates.
  dsv::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.cache_entries = 0;
  dsv::Service service(cfg);
  std::vector<std::uint64_t> ids;
  for (const dsv::JobSpec& spec : specs)
    ids.push_back(service.submit(spec_text(spec)));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const dsv::JobResult r = service.wait(ids[i]);
    EXPECT_EQ(r.status, "ok") << specs[i].workload;
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(solo[i], r.session.fingerprint()) << specs[i].workload;
  }
}

// Sessions whose engines spawn their own worker threads (partitioned runs)
// still isolate: the engine workers inherit the launching session.
TEST(ServiceIsolation, ConcurrentPartitionedSessionsMatchSolo) {
  dsv::JobSpec a = small_spec("stencil", 21);
  a.booster = 8;
  a.procs = 4;
  a.partitions = 3;
  a.workers = 2;
  dsv::JobSpec b = small_spec("nbody", 22);
  b.booster = 8;
  b.procs = 4;
  b.partitions = 3;
  b.workers = 2;

  const std::string solo_a = dsv::run_session(a).fingerprint();
  const std::string solo_b = dsv::run_session(b).fingerprint();

  std::string conc_a, conc_b;
  std::thread ta([&] { conc_a = dsv::run_session(a).fingerprint(); });
  std::thread tb([&] { conc_b = dsv::run_session(b).fingerprint(); });
  ta.join();
  tb.join();
  EXPECT_EQ(solo_a, conc_a);
  EXPECT_EQ(solo_b, conc_b);
}

// Session slots recycle: far more sequential jobs than kMaxSessions.
TEST(ServiceIsolation, SlotsRecycleAcrossManyJobs) {
  dsv::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cache_entries = 0;
  dsv::Service service(cfg);
  const std::string text = spec_text(small_spec("nbody", 5));
  std::string first;
  for (int i = 0; i < 40; ++i) {
    const dsv::JobResult r = service.run(text);
    ASSERT_EQ(r.status, "ok") << r.session.error;
    if (i == 0) {
      first = r.session.fingerprint();
    } else {
      ASSERT_EQ(first, r.session.fingerprint()) << "iteration " << i;
    }
  }
}

// --- Determinism dividend --------------------------------------------------

TEST(ServiceCache, HitIsByteIdenticalToFreshRun) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const std::string text = spec_text(small_spec("spmv", 9));
  const dsv::JobResult fresh = service.run(text);
  const dsv::JobResult hit = service.run(text);
  ASSERT_EQ(fresh.status, "ok") << fresh.session.error;
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(fresh.key, hit.key);
  EXPECT_EQ(fresh.session.fingerprint(), hit.session.fingerprint());
  EXPECT_EQ(fresh.to_json().members().at("result").dump(),
            hit.to_json().members().at("result").dump());
}

// Key canonicalisation: sparse and reordered JSON variants of the same job
// produce the same canonical key, so the second request hits.
TEST(ServiceCache, CanonicalKeyIgnoresSpellings) {
  dsv::Reject reject;
  const auto a = dsv::JobSpec::from_text(
      R"({"workload":"nbody","seed":3,"steps":3})", reject);
  ASSERT_TRUE(a.has_value()) << reject.message;
  const auto b = dsv::JobSpec::from_text(
      R"({"steps":3,"seed":3,"workload":"nbody","metrics":true,"cluster":4})",
      reject);
  ASSERT_TRUE(b.has_value()) << reject.message;
  EXPECT_EQ(a->canonical_key(), b->canonical_key());
  EXPECT_EQ(a->key_hash(), b->key_hash());

  // And a different seed is a different job.
  const auto c = dsv::JobSpec::from_text(
      R"({"workload":"nbody","seed":4,"steps":3})", reject);
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(a->canonical_key(), c->canonical_key());

  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const dsv::JobResult first =
      service.run(R"({"workload":"nbody","seed":3,"steps":3})");
  const dsv::JobResult second = service.run(
      R"({"steps":3,"seed":3,"workload":"nbody","metrics":true,"cluster":4})");
  ASSERT_EQ(first.status, "ok") << first.session.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.session.fingerprint(), second.session.fingerprint());
}

TEST(ServiceCache, LruEvictsAndCounts) {
  dsv::ResultCache cache(2);
  dsv::SessionResult ok;
  ok.ok = true;
  const auto r = std::make_shared<const dsv::SessionResult>(ok);
  cache.insert("a", r);
  cache.insert("b", r);
  EXPECT_NE(cache.lookup("a"), nullptr);  // refreshes a
  cache.insert("c", r);                   // evicts b (LRU)
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_EQ(cache.misses(), 0);  // the caller counts a miss that runs
  cache.count_miss();
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 2u);
}

// The service metrics snapshot obeys the registry contract: sorted names,
// counts consistent with the cache's authoritative tallies.
TEST(ServiceCache, StatsSnapshotIsDeterministic) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const std::string text = spec_text(small_spec("nbody", 13));
  (void)service.run(text);
  (void)service.run(text);
  const std::string snap = service.stats_json();
  EXPECT_EQ(snap, service.stats_json());  // idempotent
  EXPECT_NE(snap.find("\"svc.cache_hits\",\"kind\":\"counter\",\"value\":1"),
            std::string::npos)
      << snap;
  EXPECT_NE(snap.find("\"svc.cache_misses\",\"kind\":\"counter\",\"value\":1"),
            std::string::npos)
      << snap;
  EXPECT_NE(snap.find("\"svc.jobs_ok\",\"kind\":\"counter\",\"value\":2"),
            std::string::npos)
      << snap;
}

// --- Serving at submit -----------------------------------------------------

// A hit is answered on the submitting thread: it does not queue behind the
// one worker, which is busy with a slow uncached job.
TEST(ServiceSubmit, HitIsAnsweredWhileTheOnlyWorkerIsBusy) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const std::string warm = spec_text(small_spec("spmv", 43));
  ASSERT_FALSE(service.run(warm).cache_hit);

  dsv::JobSpec slow_spec = small_spec("nbody", 43);
  slow_spec.booster = 8;
  slow_spec.procs = 8;
  slow_spec.steps = 300;
  const std::uint64_t slow = service.submit(spec_text(slow_spec));
  const dsv::JobResult hit = service.run(warm);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.status, "ok");
  EXPECT_EQ(stat(service, "svc.jobs_ok"), 2)  // the slow job is still running
      << "the hit waited for the worker";
  const dsv::JobResult r = service.wait(slow);
  EXPECT_EQ(r.status, "ok") << r.session.error;
  EXPECT_FALSE(r.cache_hit);
  expect_each_job_counted_once(service);
}

// Eight threads submit one uncached key at once: one simulation serves all
// eight, every copy byte-identical to a solo run.
TEST(ServiceSubmit, ConcurrentDuplicatesRunOneSimulation) {
  const dsv::JobSpec spec = small_spec("cholesky", 47);
  const std::string solo = dsv::run_session(spec).fingerprint();
  dsv::ServiceConfig cfg;
  cfg.workers = 2;
  dsv::Service service(cfg);

  const std::string text = spec_text(spec);
  constexpr int kThreads = 8;
  std::vector<dsv::JobResult> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[i] = service.run(text);
    });
  for (std::thread& t : threads) t.join();

  int simulated = 0;
  for (const dsv::JobResult& r : results) {
    EXPECT_EQ(r.status, "ok") << r.session.error;
    EXPECT_EQ(solo, r.session.fingerprint());
    if (!r.cache_hit) ++simulated;
  }
  EXPECT_EQ(simulated, 1);
  EXPECT_EQ(stat(service, "svc.cache_misses"), 1);
  expect_each_job_counted_once(service);
}

// Duplicates keep arriving while each run completes: a key is never
// simulated twice, so no duplicate falls between the end of the run and
// its cache entry.  The submitters pause between submits, spinning, so
// that they reach the service lock at any moment rather than queue on it.
TEST(ServiceSubmit, DuplicatesDuringCompletionNeverRerun) {
  dsv::ServiceConfig cfg;
  cfg.workers = 2;
  dsv::Service service(cfg);
  constexpr int kKeys = 150;
  constexpr int kThreads = 3;
  std::vector<std::uint64_t> ids;
  for (int k = 0; k < kKeys; ++k) {
    const std::string text = spec_text(small_spec("nbody", 100 + k));
    const std::int64_t hits_before = service.cache().hits();
    std::vector<std::vector<std::uint64_t>> submitted(kThreads);
    submitted[0].push_back(service.submit(text));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        // Until the run is over and a duplicate has hit its cache entry.
        while (service.cache().hits() == hits_before) {
          submitted[t].push_back(service.submit(text));
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::microseconds(15 + 20 * t);
          while (std::chrono::steady_clock::now() < until) {
          }
        }
      });
    for (std::thread& t : threads) t.join();
    for (const auto& v : submitted) ids.insert(ids.end(), v.begin(), v.end());
  }
  for (const std::uint64_t id : ids) EXPECT_EQ(service.wait(id).status, "ok");
  EXPECT_EQ(stat(service, "svc.cache_misses"), kKeys);
  EXPECT_EQ(stat(service, "svc.jobs_rejected"), 0);
  expect_each_job_counted_once(service);
}

// Each wait returns its own job, whatever the order of completion and
// however many threads wait at once.
TEST(ServiceSubmit, EachWaitReturnsItsOwnJob) {
  std::vector<dsv::JobSpec> specs;
  std::vector<std::string> solo;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(small_spec(i % 2 == 0 ? "spmv" : "nbody", 60 + i));
    solo.push_back(dsv::run_session(specs.back()).fingerprint());
  }
  dsv::ServiceConfig cfg;
  cfg.workers = 2;
  dsv::Service service(cfg);

  // One thread, waiting in reverse submission order.
  std::vector<std::uint64_t> ids;
  for (const dsv::JobSpec& spec : specs) ids.push_back(service.submit(spec_text(spec)));
  for (std::size_t i = ids.size(); i-- > 0;) {
    const dsv::JobResult r = service.wait(ids[i]);
    EXPECT_EQ(r.job_id, ids[i]);
    EXPECT_EQ(solo[i], r.session.fingerprint()) << i;
  }

  // Eight threads, each blocked on one job before it completes.
  dsv::ServiceConfig cold = cfg;
  cold.cache_entries = 0;
  dsv::Service fresh(cold);
  ids.clear();
  for (const dsv::JobSpec& spec : specs) ids.push_back(fresh.submit(spec_text(spec)));
  std::vector<dsv::JobResult> results(ids.size());
  std::vector<std::thread> waiters;
  for (std::size_t i = 0; i < ids.size(); ++i)
    waiters.emplace_back([&, i] { results[i] = fresh.wait(ids[i]); });
  for (std::thread& t : waiters) t.join();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(results[i].job_id, ids[i]);
    EXPECT_EQ(solo[i], results[i].session.fingerprint()) << i;
  }
}

// With the cache disabled there are no hits and no single flight: every
// duplicate simulates.
TEST(ServiceSubmit, WithoutCacheEveryDuplicateRuns) {
  dsv::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cache_entries = 0;
  dsv::Service service(cfg);
  const std::string text = spec_text(small_spec("spmv", 53));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(service.submit(text));
  for (const std::uint64_t id : ids) {
    const dsv::JobResult r = service.wait(id);
    EXPECT_EQ(r.status, "ok") << r.session.error;
    EXPECT_FALSE(r.cache_hit);
  }
  EXPECT_EQ(stat(service, "svc.cache_misses"), 4);
  EXPECT_EQ(stat(service, "svc.cache_hits"), 0);
  EXPECT_EQ(stat(service, "svc.jobs_coalesced"), 0);
}

// A shed or malformed job is rejected and reaches no cache counter.
TEST(ServiceSubmit, RejectedJobsAreNotCounted) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  dsv::Service service(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(service.submit(spec_text(small_spec("stencil", 70 + i))));
  ids.push_back(service.submit(spec_text(small_spec("stencil", 70))));
  ids.push_back(service.submit("{"));
  for (const std::uint64_t id : ids) (void)service.wait(id);
  EXPECT_GE(stat(service, "svc.queue_rejects"), 1);
  EXPECT_EQ(stat(service, "svc.jobs_rejected"),
            stat(service, "svc.queue_rejects") + 1);
  expect_each_job_counted_once(service);
}

// wait() on an id that was never issued, or was already collected, is a
// caller error rather than a hang.
TEST(ServiceSubmit, WaitOnABadIdThrows) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  EXPECT_THROW((void)service.wait(0), deep::util::UsageError);
  EXPECT_THROW((void)service.wait(99), deep::util::UsageError);
  const std::uint64_t id = service.submit("{");
  EXPECT_EQ(service.wait(id).status, "rejected");
  EXPECT_THROW((void)service.wait(id), deep::util::UsageError);
}

// --- Typed rejection and failure -------------------------------------------

TEST(ServiceRejects, DeterministicAndLeakFree) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  struct Case {
    std::string text, code, field;
  };
  const std::vector<Case> cases = {
      {R"({"workload":"warp"})", "bad_workload", "workload"},
      {R"({"booster":0})", "bad_topology", "booster"},
      {R"({"procs":9})", "bad_spec", "procs"},
      {R"({"partitions":99})", "bad_topology", "partitions"},
      {R"({"speculation":8})", "bad_spec", "speculation"},
      {R"({"boster":4})", "bad_spec", "boster"},
      {R"({"partitions":2,"faults":{"drop_probability":0.5}})",
       "faults_with_partitions", "partitions"},
      {R"({"workload":"spmv","booster":1000000000})", "too_large", "booster"},
      // Integers outside the int range are never truncated into range:
      // 4294967304 once ran (and was cached) as booster 8.
      {R"({"workload":"spmv","booster":4294967304,"procs":2,"steps":1})",
       "too_large", "booster"},
      {R"({"procs":-4294967295})", "bad_spec", "procs"},
      {R"({"faults":{"gateways":[{"at_us":0,"gateway":4294967296}]}})",
       "too_large", "faults.gateways"},
      {R"({"faults":{"links":[{"at_us":0,"a":0,"b":-4294967295}]}})",
       "bad_spec", "faults.links"},
      // Past the engine clock: microseconds to picoseconds would overflow.
      {R"({"faults":{"links":[{"at_us":9223372036854775807,"a":0,"b":1}]}})",
       "too_large", "faults.links"},
      // A non-boolean `up` once meant false: a kill.
      {R"({"faults":{"gateways":[{"at_us":0,"gateway":0,"up":1}]}})",
       "bad_spec", "faults.gateways"},
      {R"({"faults":{"links":[{"at_us":0,"a":0,"b":1,"up":"yes"}]}})",
       "bad_spec", "faults.links"},
      {R"({"workload":)", "bad_json", ""},
      {R"(]])", "bad_json", ""},
  };
  for (const auto& [text, code, field] : cases) {
    const dsv::JobResult first = service.run(text);
    const dsv::JobResult second = service.run(text);
    EXPECT_EQ(first.status, "rejected") << text;
    EXPECT_EQ(first.reject.code, code) << text;
    EXPECT_EQ(first.reject.field, field) << text;
    // Deterministic: identical reject, byte for byte.
    EXPECT_EQ(first.reject.to_json().dump(), second.reject.to_json().dump());
    // Leak-free: no report, no metrics, no key, no partial result.
    EXPECT_TRUE(first.session.report.empty());
    EXPECT_TRUE(first.session.metrics_json.empty());
    EXPECT_TRUE(first.key.empty());
    const std::string wire = first.to_json().dump();
    EXPECT_EQ(wire.find("report"), std::string::npos) << wire;
    EXPECT_EQ(wire.find("metrics"), std::string::npos) << wire;
  }
}

// Unknown keys are rejected, never silently dropped: a stale client's
// retired field or a typo would otherwise run the default job.  The reject
// names the key by its path, in the spec object, `faults` and each fault
// event alike.
TEST(ServiceRejects, UnknownKeyNamesTheField) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"boster":4})", "boster"},
      {R"({"workload":"spmv","partition":2})", "partition"},
      {R"({"faults":{"drop_probabilty":0.1}})", "faults.drop_probabilty"},
      {R"({"faults":{"gateways":[{"at_us":1,"gateway":0,"upp":true}]}})",
       "faults.gateways.upp"},
      {R"({"faults":{"links":[{"at_us":1,"a":0,"b":1,"c":2}]}})",
       "faults.links.c"},
  };
  for (const auto& [text, field] : cases) {
    dsv::Reject reject;
    EXPECT_FALSE(dsv::JobSpec::from_text(text, reject).has_value()) << text;
    EXPECT_EQ(reject.code, "bad_spec") << text;
    EXPECT_EQ(reject.field, field) << text;
  }
  // Every key to_json() writes is a known key: specs round-trip.
  dsv::Reject reject;
  dsv::JobSpec spec = small_spec("nbody", 3);
  spec.faults.gateways.push_back({5, 1, false});
  spec.faults.links.push_back({7, 0, 1, true});
  const auto back = dsv::JobSpec::from_text(spec_text(spec), reject);
  ASSERT_TRUE(back.has_value()) << reject.message;
  EXPECT_EQ(spec_text(*back), spec_text(spec));
}

// A reject quotes only a prefix of the offending value: a 1 MB workload
// name or key must not come back whole in the response.
TEST(ServiceRejects, HugeValuesAreQuotedByPrefix) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const std::string huge(1 << 20, 'w');
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"workload":")" + huge + R"("})", "bad_workload"},
      {R"({"topology":")" + huge + R"("})", "bad_topology"},
      {"{\"" + huge + "\":1}", "bad_spec"},
      {R"({"faults":{")" + huge + R"(":1}})", "bad_spec"},
  };
  for (const auto& [text, code] : cases) {
    const dsv::JobResult result = service.run(text);
    EXPECT_EQ(result.status, "rejected");
    EXPECT_EQ(result.reject.code, code);
    const std::string wire = result.to_json().dump();
    EXPECT_LT(wire.size(), 512u) << wire.substr(0, 256);
    EXPECT_NE(wire.find("www..."), std::string::npos) << wire;
  }
}

TEST(ServiceRejects, QueueSaturationShedsTypedReject) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.cache_entries = 0;  // every job simulates: the queue actually fills
  dsv::Service service(cfg);
  const std::string text = spec_text(small_spec("stencil", 17));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(service.submit(text));
  int ok = 0, shed = 0;
  for (const std::uint64_t id : ids) {
    const dsv::JobResult r = service.wait(id);
    if (r.status == "ok") {
      ++ok;
    } else {
      ASSERT_EQ(r.status, "rejected");
      EXPECT_EQ(r.reject.code, "queue_full");
      ++shed;
    }
  }
  // Load shedding is timing-dependent in degree but never in kind: every
  // job terminates, sheds are typed, and the first job always runs.
  EXPECT_EQ(ok + shed, 12);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "queue of 2 with 12 instant submits must shed";
}

// A job whose FaultPlan kills its own gateways (and never heals them) fails
// cleanly as data — and the SAME worker then serves an untouched job with a
// solo-identical result.  Run under ASan by scripts/run_chaos.sh.
TEST(ServiceChaos, GatewayKillFailsCleanlyWorkerSurvives) {
  dsv::JobSpec chaos = small_spec("stencil", 31);
  chaos.faults.gateways.push_back({100, 0, false});  // kill gw 0 at 100 us
  chaos.faults.gateways.push_back({100, 1, false});  // kill gw 1 at 100 us

  const dsv::SessionResult solo_chaos = dsv::run_session(chaos);
  EXPECT_FALSE(solo_chaos.ok);  // bridge down: the workload cannot verify

  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const dsv::JobResult failed = service.run(spec_text(chaos));
  EXPECT_EQ(failed.status, "failed");
  EXPECT_EQ(solo_chaos.fingerprint(), failed.session.fingerprint());

  // A failed simulation is deterministic, so its repeat is a cache hit.
  const dsv::JobResult repeat = service.run(spec_text(chaos));
  EXPECT_EQ(repeat.status, "failed");
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.session.fingerprint(), failed.session.fingerprint());

  // Same worker, next job: unaffected.
  const dsv::JobSpec clean = small_spec("stencil", 31);
  const std::string solo_clean = dsv::run_session(clean).fingerprint();
  const dsv::JobResult after = service.run(spec_text(clean));
  EXPECT_EQ(after.status, "ok") << after.session.error;
  EXPECT_EQ(solo_clean, after.session.fingerprint());
}

// Fork-per-job hard isolation returns bit-identical results too: the child
// ships its outcome over a pipe and the fingerprint survives the crossing.
TEST(ServiceChaos, ForkPerJobMatchesInProcess) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.fork_per_job = true;
  cfg.cache_entries = 0;
  dsv::Service service(cfg);

  const dsv::JobSpec spec = small_spec("spmv", 37);
  const std::string solo = dsv::run_session(spec).fingerprint();
  const dsv::JobResult forked = service.run(spec_text(spec));
  ASSERT_EQ(forked.status, "ok") << forked.session.error;
  EXPECT_EQ(solo, forked.session.fingerprint());

  // Chaos in the child cannot take the daemon down either.
  dsv::JobSpec chaos = small_spec("stencil", 41);
  chaos.faults.gateways.push_back({100, 0, false});
  chaos.faults.gateways.push_back({100, 1, false});
  const dsv::JobResult failed = service.run(spec_text(chaos));
  EXPECT_EQ(failed.status, "failed");
  const dsv::JobResult again = service.run(spec_text(spec));
  EXPECT_EQ(again.status, "ok");
  EXPECT_EQ(solo, again.session.fingerprint());
}

// --- JSON / canonicalisation unit coverage ---------------------------------

TEST(ServiceJson, CanonicalDumpSortsAndRoundTrips) {
  const auto parsed =
      dsv::Json::parse(R"({"b": 2, "a": [1, 2.5, "x\n", true, null], "c":{}})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.dump(), R"({"a":[1,2.5,"x\n",true,null],"b":2,"c":{}})");
  // Dump of a parse of a dump is a fixed point.
  const auto reparsed = dsv::Json::parse(parsed.value.dump());
  ASSERT_TRUE(reparsed.ok);
  EXPECT_EQ(parsed.value.dump(), reparsed.value.dump());
}

TEST(ServiceJson, ExactIntegersSurviveAndErrorsCarryOffsets) {
  const auto big = dsv::Json::parse("9007199254740993");  // 2^53 + 1
  ASSERT_TRUE(big.ok);
  EXPECT_TRUE(big.value.is_int());
  EXPECT_EQ(big.value.dump(), "9007199254740993");

  const auto bad = dsv::Json::parse(R"({"a": )");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_EQ(bad.offset, 6u);

  EXPECT_FALSE(dsv::Json::parse("{} trailing").ok);
  EXPECT_FALSE(dsv::Json::parse("nul").ok);
}

TEST(ServiceJson, NestingPastTheCapIsATypedRejectWithOffset) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  // At the cap: parses, and dumps back unchanged.
  const auto at_cap = dsv::Json::parse(nested(dsv::Json::kMaxDepth));
  ASSERT_TRUE(at_cap.ok) << at_cap.error;
  EXPECT_EQ(at_cap.value.dump(), nested(dsv::Json::kMaxDepth));
  // One past: fails at the first bracket beyond the cap, for arrays and
  // objects alike.
  const auto past = dsv::Json::parse(nested(dsv::Json::kMaxDepth + 1));
  EXPECT_FALSE(past.ok);
  EXPECT_EQ(past.offset, static_cast<std::size_t>(dsv::Json::kMaxDepth));
  std::string objects;
  for (int i = 0; i <= dsv::Json::kMaxDepth; ++i) objects += R"({"a":)";
  const auto deep_objects = dsv::Json::parse(objects);
  EXPECT_FALSE(deep_objects.ok);
  EXPECT_EQ(deep_objects.offset, 5u * dsv::Json::kMaxDepth);
  // The line that used to overflow the stack.
  const std::string line(200000, '[');
  const auto flood = dsv::Json::parse(line);
  EXPECT_FALSE(flood.ok);
  EXPECT_EQ(flood.offset, static_cast<std::size_t>(dsv::Json::kMaxDepth));

  // Through the service: a bad_json reject naming the byte offset.
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const dsv::JobResult r = service.run(line);
  EXPECT_EQ(r.status, "rejected");
  EXPECT_EQ(r.reject.code, "bad_json");
  EXPECT_NE(r.reject.message.find("at byte 64"), std::string::npos)
      << r.reject.message;
}

TEST(ServiceJson, HashIsStable) {
  // Pinned FNV-1a vector: stable across platforms, so cache keys recorded
  // in CI artifacts stay comparable.
  EXPECT_EQ(dsv::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(dsv::hex64(dsv::fnv1a64("deep")), "a5c90667425fe82f");
}

}  // namespace
