#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "check.hpp"
#include "probes.hpp"
#include "sessions.hpp"
#include "stats.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "sys/system.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace perfbench {

namespace {

using deep::svc::JobResult;
using deep::svc::JobSpec;
using deep::svc::SessionResult;

// service_mix shape.  The repository records no traffic of real service
// users (docs/service.md), so the rate, the repeat share, the recency
// window and the job sizes (mix_size) are assumptions, chosen for steady
// medians; perfbench/README.md gives the measurements.  The repeat share is
// below the 50% of bench_service's "mixed" scenario: at 50% about as many
// jobs hit as miss, and the median of all jobs falls in the gap between
// the two.  The offered rate is fixed so that two builds are compared
// under the same load: on a 4-core host it keeps each worker about a fifth
// busy, so latency reflects each job's own cost more than the host's
// scheduling noise, which queueing would amplify.
constexpr double kMixRate = 35.0;        // jobs per second, open loop
constexpr int kMixRepeatPercent = 30;    // exact repeats of a recent job
constexpr int kMixRecent = 6;            // repeats draw from the last N fresh jobs
constexpr int kMixVariants = 2;          // distinct keys per class
constexpr std::size_t kMixCache = 16;    // < distinct specs: evictions occur
constexpr std::size_t kMixQueue = 32;
constexpr int kMixWorkers = 2;
constexpr std::size_t kSaturationInFlight = 8;  // < kMixQueue: never sheds
// One collector for each job the service can hold, queued or running; more
// outstanding jobs than that means jobs were shed, which fails the run.
constexpr std::size_t kMaxCollectors = kMixQueue + kMixWorkers;
constexpr double kSaturationShare = 0.3;  // of --seconds; the rest is open loop

constexpr int kSetupRepeats = 21;
// Paper workloads construct their system this many times after every timed
// session.  Construction takes a fraction of a millisecond, and on a shared
// host its cost shifts by half for stretches of a few milliseconds, so
// samples taken in one burst read whatever the host did at that moment.
constexpr int kSetupPerSession = 3;
// The parallel-engine shape whose windows and barriers the traced stencil
// run reports.
constexpr int kParallelPartitions = 5;
constexpr int kParallelWorkers = 2;
constexpr int kSoloRepeats = 8;
// Paper workloads' cache hits run with the caller and the service worker on
// one CPU.  Across CPUs, each hit waits for two wake-ups of an idle vCPU,
// which on a shared host cost 40 to 70 us from run to run; on one CPU the
// hit costs its parse, lookup, result copy and two context switches.
constexpr int kHitsPerSession = 20;

// End-to-end metrics in BENCHMARK.json order.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"session_s", "s"},    {"peak_rss_mb", "MiB"},
    {"jobs_per_s", "1/s"},  {"job_p50_ms", "ms"},
    {"miss_p50_ms", "ms"},  {"hit_p50_us", "us"},
};
constexpr MetricDef kPerLayer[] = {
    {"sys.construct_s", "s"},      {"sys.teardown_s", "s"},
    {"sys.report_s", "s"},         {"sim.events", "count"},
    {"sim.fiber_switches", "count"}, {"sim.dispatch_ns", "ns"},
    {"sim.switch_ns", "ns"},       {"sim.run_s", "s"},
    {"sim.windows", "count"},      {"sim.cross_events", "count"},
    {"sim.barrier_wait_s", "s"},   {"net.extoll.messages", "count"},
    {"net.extoll.bytes", "bytes"}, {"net.torus_send_ns", "ns"},
    {"cbp.forwarded", "count"},    {"cbp.forward_ns", "ns"},
    {"mpi.eager_sends", "count"},  {"mpi.rendezvous_sends", "count"},
    {"mpi.eager_ns", "ns"},        {"mpi.allreduce_ns", "ns"},
    {"apps.jacobi_sweep_ns", "ns"}, {"apps.spmv_iter_ns", "ns"},
    {"apps.jacobi_share", "frac"}, {"ompss.tasks", "count"},
    {"ompss.offloads", "count"},   {"ompss.task_ns", "ns"},
    {"obs.snapshot_s", "s"},       {"svc.parse_us", "us"},
    {"svc.cache_hits", "count"},   {"svc.cache_misses", "count"},
    {"svc.hit_ratio", "frac"},     {"svc.cache_evictions", "count"},
    {"svc.redundant_runs", "count"}, {"unattributed_share", "frac"},
};

/// Registry counters the per-layer table reads from session snapshots.
constexpr const char* kSnapshotCounters[] = {
    "sim.events",          "sim.fiber_switches", "sim.windows",
    "sim.cross_events",    "net.extoll.messages", "net.extoll.bytes",
    "cbp.forwarded",       "mpi.eager_sends",    "mpi.rendezvous_sends",
    "ompss.tasks",         "ompss.offloads",
};

using Values = std::map<std::string, double>;

void emit(Outcome& out, const MetricDef* defs, std::size_t n, const Values& v) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = v.find(defs[i].name);
    out.metrics.push_back({defs[i].name, it == v.end() ? 0.0 : it->second,
                           defs[i].unit});
  }
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

void fail(Outcome& out, const std::vector<std::string>& errors,
          const std::string& what) {
  for (const std::string& e : errors) {
    out.correct = false;
    if (out.errors.size() < 100) out.errors.push_back(what + ": " + e);
  }
}

void inject(Fault fault, SessionResult& r) {
  switch (fault) {
    case Fault::Checksum:
      r.checksum *= 1.0 + 1e-6;
      break;
    case Fault::FinalPs:
      r.final_ps += 1;
      break;
    case Fault::NotOk:
      r.ok = false;
      break;
    default:
      break;
  }
}

std::string spec_text(const JobSpec& spec) { return spec.to_json().dump(); }

/// Checks `r` against the pin named `name`.  A missing pin is a failure
/// that also prints the observed one, so a pin can be recorded.
std::vector<std::string> pin_errors(const std::optional<Pins>& pins,
                                    const std::string& load_error,
                                    const std::string& name,
                                    const SessionResult& r, Outcome& out) {
  if (!pins) return {load_error};
  const auto it = pins->find(name);
  if (it != pins->end()) return check_pin(r, it->second);
  out.notes.push_back("observed pin \"" + name + "\": " + pin_json(r));
  return {"pins file has no entry for " + name};
}

/// Pins the calling thread to one CPU while in scope and then restores its
/// CPU set.  Threads it starts meanwhile keep the pin.  Where the CPU set
/// cannot be changed the thread runs unpinned.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) == 0 &&
              pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Host seconds of `repeats` constructions of the system a spec describes
/// (the destructor runs outside the timing).
std::vector<double> construct_seconds(const JobSpec& spec, int repeats) {
  std::vector<double> t;
  const deep::sys::SystemConfig cfg = spec.to_config();
  // The first construction pays for cold caches and fresh pages.
  for (int i = 0; i <= repeats; ++i) {
    deep::util::SessionSlot slot;
    deep::util::SessionGuard in_session(slot.slot());
    const auto t0 = Clock::now();
    deep::sys::DeepSystem system(cfg);
    if (i > 0) t.push_back(seconds_between(t0, Clock::now()));
  }
  return t;
}

Values snapshot_counts(const SessionResult& r) {
  const auto all = snapshot_values(r.metrics_json);
  Values v;
  for (const char* name : kSnapshotCounters) {
    const auto it = all.find(name);
    v[name] = it == all.end() ? 0.0 : static_cast<double>(it->second);
  }
  return v;
}

double barrier_wait_seconds(const SessionResult& r) {
  double ns = 0;
  for (const auto& [name, value] : snapshot_values(r.metrics_json))
    if (name.starts_with("sim.barrier_wait_ns.w") && name.ends_with(".sum"))
      ns += static_cast<double>(value);
  return ns * 1e-9;
}

void add_service_counts(const deep::svc::Service& service, Values& v) {
  const auto s = snapshot_values(service.stats_json());
  const auto get = [&](const char* n) {
    const auto it = s.find(n);
    return it == s.end() ? 0.0 : static_cast<double>(it->second);
  };
  v["svc.cache_hits"] = get("svc.cache_hits");
  v["svc.cache_misses"] = get("svc.cache_misses");
  v["svc.cache_evictions"] = get("svc.cache_evictions");
  const double lookups = v["svc.cache_hits"] + v["svc.cache_misses"];
  v["svc.hit_ratio"] = lookups > 0 ? v["svc.cache_hits"] / lookups : 0.0;
}

/// Per-layer values the probes give.
void add_probe_values(const ProbeCosts& c, Values& v) {
  v["sim.dispatch_ns"] = c.dispatch_ns;
  v["sim.switch_ns"] = c.switch_ns;
  v["net.torus_send_ns"] = c.torus_send_ns;
  v["mpi.eager_ns"] = c.eager_ns;
  v["mpi.allreduce_ns"] = c.allreduce_ns;
  v["cbp.forward_ns"] = c.cbp_forward_ns;
  v["apps.jacobi_sweep_ns"] = c.jacobi_sweep_ns;
  v["apps.spmv_iter_ns"] = c.spmv_iter_ns;
  v["ompss.task_ns"] = c.ompss_task_ns;
  v["svc.parse_us"] = c.parse_us;
}

/// Prints the estimated host-time share of each layer in one session
/// (probe cost x the layer's count in `v`, taken from the session's
/// snapshot; span medians for sys and obs) against `session_s`, its
/// untraced host time, and fills apps.jacobi_share and unattributed_share.
void share_table(const JobSpec& spec, const ProbeCosts& c, Values& v,
                 double session_s, Outcome& out) {
  const double kernels =
      spec.workload == "stencil"
          ? spec.procs * double(session_stencil_config().iterations) * spec.steps
          : spec.procs * double(session_spmv_config(spec).iterations);
  const double apps_s =
      kernels * (spec.workload == "stencil" ? c.jacobi_sweep_ns : c.spmv_iter_ns) * 1e-9;
  const std::pair<const char*, double> rows[] = {
      {"apps", apps_s},
      // A fiber slice's cost includes the event that resumed it.
      {"sim", (std::max(0.0, v["sim.events"] - v["sim.fiber_switches"]) * c.dispatch_ns +
               v["sim.fiber_switches"] * c.switch_ns) * 1e-9},
      {"net", v["net.extoll.messages"] * c.torus_send_ns * 1e-9},
      {"mpi", (v["mpi.eager_sends"] + v["mpi.rendezvous_sends"]) * c.eager_ns * 1e-9},
      {"cbp", v["cbp.forwarded"] * c.cbp_forward_ns * 1e-9},
      {"sys", v["sys.construct_s"] + v["sys.report_s"] + v["sys.teardown_s"]},
      {"obs", v["obs.snapshot_s"]},
  };
  double attributed = 0;
  out.notes.push_back("estimated host-time share of one session (probe cost x count), "
                      "session " + fmt("%.6f s", session_s) + ":");
  for (const auto& [layer, s] : rows) {
    attributed += s;
    out.notes.push_back(std::string("  share ") + layer +
                        fmt("  %.6f s  %.4f", s, session_s > 0 ? s / session_s : 0));
  }
  const double rest = session_s - attributed;
  // Collectives are made of the messages counted above; their inclusive
  // cost is shown for scale and not added.
  const double allreduces = spec.workload == "stencil"
                                ? 2.0 * spec.steps
                                : session_spmv_config(spec).iterations + 1.0;
  out.notes.push_back(fmt("  (allreduce, inclusive of its messages: %.0f x %.0f ns = %.6f s)",
                          allreduces, c.allreduce_ns, allreduces * c.allreduce_ns * 1e-9));
  out.notes.push_back(fmt("  share unattributed  %.6f s  %.4f", rest,
                          session_s > 0 ? rest / session_s : 0));
  v["apps.jacobi_share"] =
      spec.workload == "stencil" && session_s > 0 ? apps_s / session_s : 0.0;
  v["unattributed_share"] = session_s > 0 ? rest / session_s : 0.0;
}

void add_span_values(const Tracer& tracer, Values& v, Outcome& out) {
  const auto d = tracer.durations();
  const auto med = [&](const char* name) {
    const auto it = d.find(name);
    return it == d.end() ? 0.0 : median(it->second);
  };
  v["sys.construct_s"] = med("sys.construct");
  v["sys.teardown_s"] = med("sys.teardown");
  v["sys.report_s"] = med("sys.report");
  v["sim.run_s"] = med("sim.run");
  v["obs.snapshot_s"] = med("obs.snapshot");
  out.notes.push_back("span self time (total s over the traced run):");
  for (const auto& [name, s] : tracer.self_seconds())
    out.notes.push_back(fmt("  self %.6f s  ", s) + name);
}

void write_trace(const Tracer& tracer, const Options& o, Outcome& out) {
  std::error_code ec;
  std::filesystem::create_directories(o.trace_dir, ec);
  const std::string path = o.trace_dir + "/trace_" + o.workload + "_" +
                           std::to_string(o.seed) + ".json";
  out.notes.push_back(tracer.write(path) ? "spans written to " + path
                                         : "could not write spans to " + path);
}

// ---------------------------------------------------------------------------
// Paper-scale workloads: one big session at a time.

Outcome run_paper(const Options& o, const JobSpec& spec) {
  Outcome out;
  Values e2e, layer;


  // Reference: a solo run_session, checked against the pins and the serial
  // reference; every later session must reproduce its fingerprint.
  SessionResult ref = deep::svc::run_session(spec);
  inject(o.fault, ref);
  ++out.attempted;
  std::string load_error;
  const auto pins = load_pins(o.pins_path, load_error);
  const auto pin_errs = pin_errors(pins, load_error, o.workload, ref, out);
  const auto ref_errors = check_reference(spec, ref);
  if (!pin_errs.empty() || !ref_errors.empty()) ++out.failed;
  fail(out, pin_errs, "pin");
  fail(out, ref_errors, "reference");
  const std::string ref_fp = ref.fingerprint();
  out.notes.push_back(fmt("outputs: checksum %.17g, final_ps %.0f, events %.0f", ref.checksum,
                          double(ref.final_ps), double(ref.events)));

  // The same job through svc::Service: one miss now, then a burst of cache
  // hits after every timed session, so hits sample the same host
  // conditions as the sessions.  The worker starts pinned to `hit_cpu`, and
  // the caller pins itself there for each request (see kHitsPerSession).
  const int hit_cpu = std::max(0, sched_getcpu());
  const auto service = [&] {
    PinnedToCpu pin(hit_cpu);
    return std::make_unique<deep::svc::Service>(deep::svc::ServiceConfig{
        .workers = 1, .queue_capacity = 4, .cache_entries = 4, .fork_per_job = false});
  }();
  const std::string text = spec_text(spec);
  std::vector<double> hit_s;
  auto serve = [&](bool expect_hit) {
    PinnedToCpu pin(hit_cpu);
    const auto t0 = Clock::now();
    const JobResult r = service->run(text);
    const double dt = seconds_between(t0, Clock::now());
    ++out.attempted;
    if (r.status != "ok" || r.cache_hit != expect_hit) {
      ++out.failed;
      fail(out, {"status " + r.status + (r.cache_hit ? ", hit" : ", miss")}, "service");
      return;
    }
    const auto errs = check_same(r.session, ref_fp, "service job");
    if (!errs.empty()) ++out.failed;
    fail(out, errs, "service");
    if (expect_hit) hit_s.push_back(dt);
  };
  serve(false);

  // Timed closed loop: one session in flight.
  std::vector<double> session_s, traced_s, construct_s;
  Tracer tracer;
  const auto start = Clock::now();
  std::uint64_t job = 0;
  while (seconds_between(start, Clock::now()) < o.seconds || session_s.size() < 3) {
    const auto t0 = Clock::now();
    SessionResult r = deep::svc::run_session(spec);
    session_s.push_back(seconds_between(t0, Clock::now()));
    inject(o.fault, r);
    ++out.attempted;
    const auto errs = check_same(r, ref_fp, "run_session");
    if (!errs.empty() || !r.ok) ++out.failed;
    fail(out, errs, "session");
    for (int i = 0; i < kHitsPerSession; ++i) serve(true);
    for (const double t : construct_seconds(spec, kSetupPerSession)) construct_s.push_back(t);
    if (o.trace) {
      // Rebuilt from sys::DeepSystem with one span per layer; must match
      // run_session byte for byte.
      const auto t1 = Clock::now();
      SessionResult rebuilt = rebuilt_session(spec, tracer, ++job);
      traced_s.push_back(seconds_between(t1, Clock::now()));
      if (o.fault == Fault::RebuiltFingerprint) rebuilt.report += " ";
      ++out.attempted;
      const auto rerrs = check_same(rebuilt, ref_fp, "rebuilt session");
      if (!rerrs.empty()) ++out.failed;
      fail(out, rerrs, "rebuilt");
    }
  }
  add_service_counts(*service, layer);
  e2e["setup_s"] = median(construct_s);
  out.notes.push_back("setup_s: " + describe_timing(construct_s, 1e6, "us"));
  const double p50 = median(session_s);
  e2e["session_s"] = p50;
  // Sessions completed per second of session time (the hit bursts and the
  // checks between sessions are not part of it).
  e2e["jobs_per_s"] = static_cast<double>(session_s.size()) /
                      std::accumulate(session_s.begin(), session_s.end(), 0.0);
  e2e["job_p50_ms"] = p50 * 1e3;
  e2e["miss_p50_ms"] = p50 * 1e3;
  e2e["hit_p50_us"] = median(hit_s) * 1e6;
  out.notes.push_back("session_s: " + describe_timing(session_s, 1.0, "s"));
  out.notes.push_back("hit latency: " + describe_timing(hit_s, 1e6, "us"));

  if (o.trace) {
    const Values counts = snapshot_counts(ref);
    layer.insert(counts.begin(), counts.end());
    add_span_values(tracer, layer, out);
    if (spec.workload == "stencil") {
      // The parallel engine's host time is too unsteady on a shared host to
      // gate end to end, so its windows and barriers are reported here from
      // one run of the same job on partitions, with wall-clock instruments.
      JobSpec parallel = spec;
      parallel.partitions = kParallelPartitions;
      parallel.workers = kParallelWorkers;
      Tracer scratch;
      const SessionResult r =
          rebuilt_session(parallel, scratch, 0, {.wallclock_metrics = true});
      ++out.attempted;
      const auto errs = check_reference(parallel, r);
      if (!errs.empty() || r.final_ps != ref.final_ps) ++out.failed;
      fail(out, errs, "parallel session");
      if (r.final_ps != ref.final_ps)
        fail(out, {"final_ps differs from the serial engine's"}, "parallel session");
      const Values pc = snapshot_counts(r);
      layer["sim.windows"] = pc.at("sim.windows");
      layer["sim.cross_events"] = pc.at("sim.cross_events");
      layer["sim.barrier_wait_s"] = barrier_wait_seconds(r);
    }
    const ProbeCosts costs = run_probes(probe_shape(spec), {spec_text(spec)});
    add_probe_values(costs, layer);
    share_table(spec, costs, layer, p50, out);
    out.notes.push_back(fmt("tracing overhead: traced %.6f s - untraced %.6f s = %.6f s per session",
                            median(traced_s), p50, median(traced_s) - p50));
    write_trace(tracer, o, out);
    emit(out, kPerLayer, std::size(kPerLayer), layer);
  } else {
    e2e["peak_rss_mb"] = peak_rss_mb();
    emit(out, kEndToEnd, std::size(kEndToEnd), e2e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// service_mix: a seeded stream of small jobs, some exact repeats, served by
// a two-worker svc::Service.

/// Deterministic job stream over the distinct specs: mostly the next spec
/// of a seeded cyclic order (a key that comes round again has been evicted
/// by then), sometimes an exact repeat of one of the last kMixRecent fresh
/// jobs (usually a hit).
class Stream {
 public:
  Stream(std::size_t distinct, std::uint64_t seed) : rng_(seed), order_(distinct) {
    for (std::size_t i = 0; i < distinct; ++i) order_[i] = i;
  }

  std::size_t next() {
    if (!recent_.empty() && rng_() % 100 < kMixRepeatPercent)
      return recent_[rng_() % recent_.size()];
    if (pos_ % order_.size() == 0) shuffle();
    const std::size_t idx = order_[pos_++ % order_.size()];
    recent_.push_back(idx);
    if (recent_.size() > kMixRecent) recent_.pop_front();
    return idx;
  }

 private:
  void shuffle() {
    for (std::size_t i = order_.size() - 1; i > 0; --i)
      std::swap(order_[i], order_[rng_() % (i + 1)]);
  }

  std::mt19937_64 rng_;
  std::vector<std::size_t> order_;
  std::deque<std::size_t> recent_;
  std::size_t pos_ = 0;
};

struct MixRef {
  JobSpec spec;
  std::string text;
  std::string fingerprint;
};

struct JobTally {
  std::vector<double> all_s, hit_s, miss_s;
  std::int64_t redundant = 0;
};

/// Checks one served job against its solo reference and files its latency.
/// A shed or failed job fails the run: the latencies would otherwise
/// describe only the jobs the service chose to serve.
void collect(const JobResult& r, const MixRef& ref, bool seen_before,
             double latency_s, JobTally& tally, Outcome& out) {
  ++out.attempted;
  if (r.status != "ok") {
    ++out.failed;
    fail(out, {r.status == "rejected" ? "job rejected: " + r.reject.code
                                      : "job failed: " + r.session.error},
         "service_mix");
    return;
  }
  const auto errs = check_same(r.session, ref.fingerprint, "served job");
  if (!errs.empty()) {
    ++out.failed;
    fail(out, errs, "service_mix");
    return;
  }
  tally.all_s.push_back(latency_s);
  (r.cache_hit ? tally.hit_s : tally.miss_s).push_back(latency_s);
  if (!r.cache_hit && seen_before) ++tally.redundant;
}

deep::svc::ServiceConfig mix_config(const Options& o) {
  deep::svc::ServiceConfig cfg;
  cfg.workers = kMixWorkers;
  cfg.queue_capacity = o.fault == Fault::QueueFull ? 1 : kMixQueue;
  cfg.cache_entries = kMixCache;
  return cfg;
}

struct PhaseResult {
  JobTally tally;
  double jobs_per_s = 0;
  std::vector<double> lateness_s;  // open loop: submit time minus due time
  std::size_t max_outstanding = 0;
};

/// Feeds the stream to a fresh service for `seconds`.  Open loop
/// (`closed` false): this thread submits each job at its due time, one
/// every 1/rate s, whatever the backlog.  Closed loop: it keeps
/// kSaturationInFlight jobs outstanding, so the queue stays non-empty and
/// never sheds.  Collector threads wait for the results, check them and
/// time each job from its due time.  There is always one collector per
/// outstanding job (a new one starts when every collector is busy), so a
/// job's latency is not held up by an earlier, slower one.
PhaseResult serve_phase(const Options& o, const std::vector<MixRef>& refs,
                        double seconds, bool closed, std::uint64_t stream_seed,
                        Tracer* tracer, Values& layer, Outcome& out) {
  deep::svc::Service service(mix_config(o));
  const double rate = o.fault == Fault::QueueFull ? 20000.0 : kMixRate;
  Stream stream(refs.size(), stream_seed);

  struct Pending {
    std::uint64_t id;
    std::size_t idx;
    bool seen_before;
    Clock::time_point due;
    int span;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;  // guarded by mu
  std::size_t in_flight = 0;    // guarded by mu
  std::size_t idle = 0;         // collectors waiting for a job; guarded by mu
  bool finished = false;        // guarded by mu
  PhaseResult res;
  Outcome collected;            // guarded by mu

  auto collector = [&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        ++idle;
        cv.wait(lock, [&] { return finished || !pending.empty(); });
        --idle;
        if (pending.empty()) return;
        p = pending.front();
        pending.pop_front();
      }
      JobResult r;
      {
        std::optional<Scope> s;
        if (tracer) s.emplace(*tracer, "svc.wait", p.id, p.span);
        r = service.wait(p.id);
      }
      const double latency = seconds_between(p.due, Clock::now());
      if (tracer) tracer->close(p.span);
      {
        std::lock_guard<std::mutex> lock(mu);
        collect(r, refs[p.idx], p.seen_before, latency, res.tally, collected);
        --in_flight;
      }
      cv.notify_all();
    }
  };
  std::vector<std::thread> collectors;

  std::set<std::size_t> seen;
  const auto start = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    Clock::time_point due;
    if (closed) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < kSaturationInFlight; });
      due = Clock::now();
      if (seconds_between(start, due) >= seconds) break;
    } else {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / rate));
      if (seconds_between(start, due) >= seconds) break;
      std::this_thread::sleep_until(due);
      res.lateness_s.push_back(seconds_between(due, Clock::now()));
    }
    const std::size_t idx = stream.next();
    const bool seen_before = !seen.insert(idx).second;
    const auto job = static_cast<std::uint64_t>(i);
    const int span = tracer ? tracer->open("job", job) : -1;
    std::uint64_t id = 0;
    {
      std::optional<Scope> s;
      if (tracer) s.emplace(*tracer, "svc.submit", job, span);
      id = service.submit(refs[idx].text);
    }
    bool more_collectors = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({id, idx, seen_before, due, span});
      ++in_flight;
      res.max_outstanding = std::max(res.max_outstanding, in_flight);
      more_collectors = pending.size() > idle && collectors.size() < kMaxCollectors;
    }
    if (more_collectors) collectors.emplace_back(collector);
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  for (std::thread& t : collectors) t.join();
  res.jobs_per_s = static_cast<double>(res.tally.all_s.size()) /
                   seconds_between(start, Clock::now());

  out.attempted += collected.attempted;
  out.failed += collected.failed;
  if (!collected.correct) out.correct = false;
  out.errors.insert(out.errors.end(), collected.errors.begin(), collected.errors.end());
  if (!closed) {
    add_service_counts(service, layer);
    layer["svc.redundant_runs"] = static_cast<double>(res.tally.redundant);
  }
  return res;
}

Outcome run_mix(const Options& o) {
  Outcome out;
  Values e2e, layer;
  Tracer tracer;

  std::vector<MixRef> refs;
  std::vector<std::string> texts;
  std::vector<double> construct_s;
  for (const JobSpec& spec : mix_specs(o.seed)) {
    construct_s.push_back(median(construct_seconds(spec, 3)));
    refs.push_back({spec, spec_text(spec), {}});
    texts.push_back(refs.back().text);
  }

  // Solo references, outside any timed phase.  Each spec runs once untimed
  // (the process's first sessions pay for fresh heap pages), then
  // kSoloRepeats timed times, in passes over the whole set so that a slow
  // spell of the host does not land on one spec.  Half the passes run
  // before the service phases and half after, so session_s samples the
  // host at both ends of the run rather than in one stretch of a few
  // seconds.  Every run must agree with the reference.
  std::vector<SessionResult> solos(refs.size());
  std::vector<std::string> solo_fingerprints;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    solos[i] = deep::svc::run_session(refs[i].spec);
    solo_fingerprints.push_back(solos[i].fingerprint());
  }
  std::vector<double> solo_s;
  const auto timed_passes = [&](int passes) {
    for (int pass = 0; pass < passes; ++pass)
      for (std::size_t i = 0; i < refs.size(); ++i) {
        const auto t0 = Clock::now();
        const SessionResult r = deep::svc::run_session(refs[i].spec);
        solo_s.push_back(seconds_between(t0, Clock::now()));
        fail(out, check_same(r, solo_fingerprints[i], "repeated solo run"), "service_mix");
      }
  };
  timed_passes(kSoloRepeats / 2);
  std::string load_error;
  const auto pins = load_pins(o.pins_path, load_error);
  Values counts;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    SessionResult& solo = solos[i];
    const JobSpec& spec = refs[i].spec;
    inject(o.fault, solo);
    const auto pin_errs = pin_errors(pins, load_error, mix_class(spec), solo, out);
    const auto errs = check_reference(spec, solo);
    ++out.attempted;
    if (!errs.empty() || !pin_errs.empty()) ++out.failed;
    fail(out, pin_errs, "pin " + mix_class(spec));
    fail(out, errs, spec.workload + " reference");
    refs[i].fingerprint = solo.fingerprint();
    for (const auto& [name, v] : snapshot_counts(solo)) counts[name] += v;
    if (o.trace && (spec.workload == "stencil" || spec.workload == "spmv")) {
      SessionResult rebuilt = rebuilt_session(spec, tracer, i);
      if (o.fault == Fault::RebuiltFingerprint) rebuilt.report += " ";
      fail(out, check_same(rebuilt, refs[i].fingerprint, "rebuilt session"), "rebuilt");
    }
  }
  std::vector<double> start_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    deep::svc::Service service(mix_config(o));
    start_s.push_back(seconds_between(t0, Clock::now()));
  }
  e2e["setup_s"] = median(construct_s) + median(start_s);

  // The saturation phase runs in two halves, before and after the open
  // loop, so jobs_per_s samples the host at both ends of the run: two
  // workers' throughput follows the host's load, which shifts within tens
  // of seconds.
  const auto saturated = [&] {
    return serve_phase(o, refs, 0.5 * kSaturationShare * o.seconds, true,
                       o.seed ^ 0x5A5A5A5AULL, nullptr, layer, out)
        .jobs_per_s;
  };
  const double first_jobs_per_s = saturated();
  const PhaseResult open = serve_phase(o, refs, (1.0 - kSaturationShare) * o.seconds,
                                       false, o.seed, o.trace ? &tracer : nullptr,
                                       layer, out);
  e2e["jobs_per_s"] = 0.5 * (first_jobs_per_s + saturated());
  timed_passes(kSoloRepeats - kSoloRepeats / 2);
  e2e["session_s"] = median(solo_s);
  out.notes.push_back("solo session_s over " + std::to_string(refs.size()) +
                      " distinct specs: " + describe_timing(solo_s, 1.0, "s"));
  const JobTally& tally = open.tally;
  const auto& late = open.lateness_s;
  out.notes.push_back(fmt("open loop: %.0f jobs/s offered; generator lateness p50 %.1f us, max %.1f us",
                          kMixRate, median(late) * 1e6,
                          late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()) * 1e6));
  out.notes.push_back(fmt("open loop: at most %.0f jobs outstanding",
                          double(open.max_outstanding)));
  e2e["job_p50_ms"] = median(tally.all_s) * 1e3;
  e2e["miss_p50_ms"] = median(tally.miss_s) * 1e3;
  e2e["hit_p50_us"] = median(tally.hit_s) * 1e6;
  out.notes.push_back("job latency: " + describe_timing(tally.all_s, 1e3, "ms"));
  out.notes.push_back("miss latency: " + describe_timing(tally.miss_s, 1e3, "ms"));
  out.notes.push_back("hit latency: " + describe_timing(tally.hit_s, 1e6, "us"));
  out.notes.push_back(fmt("failed_frac %.6f (failed %.0f of %.0f attempted)",
                          out.attempted > 0 ? double(out.failed) / double(out.attempted) : 0.0,
                          double(out.failed), double(out.attempted)));

  if (o.trace) {
    for (auto& [name, v] : counts) layer[name] = v / static_cast<double>(refs.size());
    add_span_values(tracer, layer, out);
    const ProbeCosts costs = run_probes(probe_shape(refs.front().spec), texts);
    add_probe_values(costs, layer);
    write_trace(tracer, o, out);
    emit(out, kPerLayer, std::size(kPerLayer), layer);
  } else {
    e2e["peak_rss_mb"] = peak_rss_mb();
    emit(out, kEndToEnd, std::size(kEndToEnd), e2e);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stencil_paper", "spmv_paper",
                                                 "service_mix"};
  return names;
}

std::optional<JobSpec> paper_spec(const std::string& workload, std::uint64_t seed) {
  JobSpec spec;
  spec.topology = "deep";
  spec.cluster = 128;
  spec.booster = 384;
  spec.seed = seed;  // enters the cache key only: no faults are armed
  if (workload == "stencil_paper") {
    spec.workload = "stencil";
    spec.procs = 256;
    spec.steps = 1;
  } else if (workload == "spmv_paper") {
    spec.workload = "spmv";
    spec.procs = 384;
    spec.steps = 40;
  } else {
    return std::nullopt;
  }
  return spec;
}

namespace {

struct MixSize {
  int procs;
  int steps;
};

/// Job sizes that cost each workload about the same host time (about 15 ms
/// on a 4-vCPU Xeon; cholesky's fixed 8x8-tile factorisation sets it).  With one cost mode, latency medians sit inside it
/// rather than on the edge between a cheap and an expensive workload,
/// where a small shift in the mix would move them a lot.
const MixSize& mix_size(const std::string& workload) {
  static const MixSize nbody{8, 30}, spmv{8, 120}, stencil{4, 4}, cholesky{4, 1};
  if (workload == "nbody") return nbody;
  if (workload == "spmv") return spmv;
  if (workload == "stencil") return stencil;
  return cholesky;
}

}  // namespace

std::vector<JobSpec> mix_specs(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<JobSpec> specs;
  for (const char* workload : {"stencil", "spmv", "nbody", "cholesky"})
    for (const char* topology : {"deep", "fattree", "dragonfly"})
      for (const bool adaptive : {false, true})
        for (int v = 0; v < kMixVariants; ++v) {
          JobSpec spec;
          spec.workload = workload;
          spec.topology = topology;
          spec.adaptive = adaptive;
          // Sizes are fixed so every seed offers the same work; the seed
          // picks the keys, the order and the repeats.
          const MixSize& size = mix_size(spec.workload);
          spec.procs = size.procs;
          spec.steps = size.steps;
          spec.seed = rng() % 1000000;
          specs.push_back(spec);
        }
  return specs;
}

std::string mix_class(const JobSpec& spec) {
  return "service_mix/" + spec.workload + "/" + spec.topology +
         (spec.adaptive ? "/adaptive" : "/minimal");
}

Outcome run_workload(const Options& o) {
  if (o.workload == "service_mix") return run_mix(o);
  const auto spec = paper_spec(o.workload, o.seed);
  DEEP_EXPECT(spec.has_value(), "unknown workload " + o.workload);
  return run_paper(o, *spec);
}

}  // namespace perfbench
