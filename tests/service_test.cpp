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
//   * Typed failure: bad specs are rejected deterministically and leak
//     nothing; a chaos job that kills its own gateways fails cleanly and
//     leaves its worker healthy; a saturated queue sheds load with a typed
//     reject instead of blocking or dropping silently.

#include <gtest/gtest.h>

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

TEST(ServiceReentrancy, AllWorkloadsRunTwiceIdentically) {
  for (const char* w : {"stencil", "spmv", "nbody", "cholesky"}) {
    const dsv::JobSpec spec = small_spec(w, 11);
    const dsv::SessionResult a = dsv::run_session(spec);
    const dsv::SessionResult b = dsv::run_session(spec);
    ASSERT_TRUE(a.ok) << w << ": " << a.error;
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << w;
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
  dsv::SessionResult r;
  r.ok = true;
  cache.insert("a", r);
  cache.insert("b", r);
  EXPECT_TRUE(cache.lookup("a").has_value());  // refreshes a
  cache.insert("c", r);                        // evicts b (LRU)
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
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

// --- Typed rejection and failure -------------------------------------------

TEST(ServiceRejects, DeterministicAndLeakFree) {
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  dsv::Service service(cfg);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"workload":"warp"})", "bad_workload"},
      {R"({"booster":0})", "bad_topology"},
      {R"({"procs":9})", "bad_spec"},
      {R"({"partitions":99})", "bad_topology"},
      {R"({"speculation":8})", "bad_spec"},
      {R"({"boster":4})", "bad_spec"},
      {R"({"partitions":2,"faults":{"drop_probability":0.5}})",
       "faults_with_partitions"},
      {R"({"workload":)", "bad_json"},
      {R"(]])", "bad_json"},
  };
  for (const auto& [text, code] : cases) {
    const dsv::JobResult first = service.run(text);
    const dsv::JobResult second = service.run(text);
    EXPECT_EQ(first.status, "rejected") << text;
    EXPECT_EQ(first.reject.code, code) << text;
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
