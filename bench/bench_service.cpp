// Service throughput and the determinism dividend (docs/service.md).
//
// Drives the multi-tenant simulation service the way a front-end would —
// raw JSON submissions against the worker pool — in three scenarios:
//
//   cold   — every job a distinct (spec, seed): every lookup misses, every
//            job simulates; this is the service's sustainable fresh-work
//            rate and the denominator of the dividend;
//   hot    — one spec repeated after a single warming run: every job is
//            answered from the result cache, byte-identical to a fresh
//            simulation (the suite pins that; here it is the claim
//            "hot repeat >= 10x cold" that is gated);
//   mixed  — alternating repeat/fresh, the realistic sweep-with-reruns
//            profile.
//
// Also records the host-independent fingerprint gate: the FNV-1a hash of
// the probe job's SessionResult fingerprint obtained three ways — solo
// in-process run, service cache miss, service cache hit — which must all
// be equal, and (being pure virtual-time outputs) equal across hosts, so
// CI compares it against the checked-in baseline.
//
// Prints the table; --json PATH records the machine-readable result
// (scripts/bench.py run service reduces it to rows of results/BENCH.json);
// --smoke shrinks the job counts for CI. --workers N sizes the pool.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "util/csv.hpp"

namespace db = deep::bench;
namespace dsv = deep::svc;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

dsv::JobSpec probe_spec(std::uint64_t seed) {
  dsv::JobSpec spec;
  spec.workload = "stencil";
  spec.cluster = 2;
  spec.booster = 4;
  spec.gateways = 2;
  spec.procs = 2;
  spec.steps = 2;
  spec.seed = seed;
  return spec;
}

struct ScenarioResult {
  std::string name;
  int jobs = 0;
  double wall_ms = 0;
  double jobs_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

/// Submits every spec open-loop, waits in submission order, and returns the
/// timing profile.  Latency of job i is completion-observed-minus-submit —
/// an upper bound for jobs collected behind slower predecessors, which is
/// the latency a protocol client on the ordered wire actually sees.
ScenarioResult drive(dsv::Service& service, const std::string& name,
                     const std::vector<std::string>& texts) {
  ScenarioResult r;
  r.name = name;
  r.jobs = static_cast<int>(texts.size());
  const std::int64_t hits0 = service.cache().hits();
  const std::int64_t misses0 = service.cache().misses();

  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint64_t> ids;
  std::vector<Clock::time_point> submitted;
  ids.reserve(texts.size());
  submitted.reserve(texts.size());
  for (const std::string& text : texts) {
    submitted.push_back(Clock::now());
    ids.push_back(service.submit(text));
  }
  std::vector<double> latencies;
  latencies.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const dsv::JobResult res = service.wait(ids[i]);
    if (res.status == "rejected") {
      std::fprintf(stderr, "bench_service: unexpected reject: %s\n",
                   res.reject.message.c_str());
      std::exit(1);
    }
    latencies.push_back(ms_since(submitted[i]));
  }
  r.wall_ms = ms_since(t0);
  r.jobs_per_s = r.wall_ms > 0 ? 1000.0 * r.jobs / r.wall_ms : 0;
  std::sort(latencies.begin(), latencies.end());
  r.p50_ms = latencies[latencies.size() / 2];
  r.p99_ms = latencies[std::min(latencies.size() - 1,
                                latencies.size() * 99 / 100)];
  r.hits = service.cache().hits() - hits0;
  r.misses = service.cache().misses() - misses0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int workers = 2;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const int cold_jobs = smoke ? 8 : 48;
  const int hot_jobs = smoke ? 32 : 256;

  db::banner("service throughput: the determinism dividend");
  std::printf("workers %d, cold %d jobs, hot %d jobs%s\n", workers, cold_jobs,
              hot_jobs, smoke ? " (smoke)" : "");

  // Fingerprint gate: the probe job three ways.  A fingerprint is a pure
  // function of the virtual-time simulation, so its hash is comparable
  // across hosts and against the checked-in baseline.
  const dsv::JobSpec probe = probe_spec(0);
  const std::string solo_fp = dsv::run_session(probe).fingerprint();
  std::string miss_fp, hit_fp;
  {
    dsv::ServiceConfig cfg;
    cfg.workers = 1;
    dsv::Service service(cfg);
    const dsv::JobResult miss = service.run(probe.canonical_key());
    const dsv::JobResult hit = service.run(probe.canonical_key());
    if (!miss.cache_hit && hit.cache_hit) {
      miss_fp = miss.session.fingerprint();
      hit_fp = hit.session.fingerprint();
    }
  }
  const bool fingerprints_equal = !solo_fp.empty() && solo_fp == miss_fp &&
                                  miss_fp == hit_fp;
  const std::string fingerprint_hash =
      dsv::hex64(dsv::fnv1a64(solo_fp));
  std::printf("probe fingerprint (solo==miss==hit): %s [%s]\n",
              fingerprint_hash.c_str(), fingerprints_equal ? "equal" : "DIVERGED");

  std::vector<ScenarioResult> scenarios;
  {
    dsv::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = static_cast<std::size_t>(cold_jobs + hot_jobs) * 2;
    cfg.cache_entries = static_cast<std::size_t>(cold_jobs + hot_jobs) * 2;
    dsv::Service service(cfg);

    // cold: distinct seeds, nothing cacheable.
    std::vector<std::string> cold_texts;
    for (int i = 0; i < cold_jobs; ++i)
      cold_texts.push_back(probe_spec(1000 + i).to_json().dump());
    scenarios.push_back(drive(service, "cold", cold_texts));

    // hot: one warming run, then pure repeats.
    const std::string hot_text = probe_spec(2000).to_json().dump();
    (void)service.run(hot_text);
    std::vector<std::string> hot_texts(static_cast<std::size_t>(hot_jobs),
                                       hot_text);
    scenarios.push_back(drive(service, "hot", hot_texts));

    // mixed: alternate a warmed repeat with a fresh seed.
    std::vector<std::string> mixed_texts;
    for (int i = 0; i < cold_jobs; ++i) {
      mixed_texts.push_back(hot_text);
      mixed_texts.push_back(probe_spec(3000 + i).to_json().dump());
    }
    scenarios.push_back(drive(service, "mixed", mixed_texts));
  }

  deep::util::Table table(
      {"scenario", "jobs", "wall_ms", "jobs_per_s", "p50_ms", "p99_ms",
       "hits", "misses"});
  for (const ScenarioResult& s : scenarios)
    table.row()
        .add(s.name)
        .add(s.jobs)
        .add(s.wall_ms)
        .add(s.jobs_per_s)
        .add(s.p50_ms)
        .add(s.p99_ms)
        .add(s.hits)
        .add(s.misses);
  db::print_table(table, db::want_csv(argc, argv));

  const double hot_over_cold =
      scenarios[0].jobs_per_s > 0
          ? scenarios[1].jobs_per_s / scenarios[0].jobs_per_s
          : 0;
  std::printf("\nhot/cold throughput ratio: %.1fx\n", hot_over_cold);

  if (!json_path.empty()) {
    dsv::Json j = dsv::Json::object();
    j.set("bench", "service");
    j.set("smoke", smoke);
    j.set("workers", workers);
    j.set("host_cpus",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    j.set("probe_spec", probe.to_json());
    j.set("fingerprint", fingerprint_hash);
    j.set("fingerprints_equal", fingerprints_equal);
    j.set("hot_over_cold", hot_over_cold);
    dsv::Json arr = dsv::Json::array();
    for (const ScenarioResult& s : scenarios) {
      dsv::Json e = dsv::Json::object();
      e.set("name", s.name);
      e.set("jobs", s.jobs);
      e.set("wall_ms", s.wall_ms);
      e.set("jobs_per_s", s.jobs_per_s);
      e.set("p50_ms", s.p50_ms);
      e.set("p99_ms", s.p99_ms);
      e.set("cache_hits", s.hits);
      e.set("cache_misses", s.misses);
      arr.push_back(std::move(e));
    }
    j.set("scenarios", std::move(arr));
    std::ofstream out(json_path);
    out << j.dump() << '\n';
    std::printf("json written to %s\n", json_path.c_str());
  }

  const bool reproduced = fingerprints_equal && hot_over_cold >= 10.0;
  return db::verdict(
      "hot repeats are served >= 10x faster than cold simulations, "
      "byte-identical to fresh runs",
      reproduced);
}
