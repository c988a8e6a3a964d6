#include "svc/jobspec.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string_view>

namespace deep::svc {

namespace {

constexpr std::int64_t kPsPerUs = 1'000'000;
/// Latest fault-event time whose picosecond value fits the engine clock.
constexpr std::int64_t kMaxEventUs =
    std::numeric_limits<std::int64_t>::max() / kPsPerUs;

/// A reject quotes at most this many bytes of a client-supplied value, so a
/// huge name or key is never echoed back onto the wire.
constexpr std::size_t kQuoteBytes = 64;

/// `value`, cut to kQuoteBytes on a UTF-8 boundary and marked "..." when cut.
std::string quote(std::string_view value) {
  if (value.size() <= kQuoteBytes) return std::string(value);
  std::size_t cut = kQuoteBytes;
  while (cut > 0 && (static_cast<unsigned char>(value[cut]) & 0xC0) == 0x80)
    --cut;
  return std::string(value.substr(0, cut)) + "...";
}

bool known_workload(const std::string& w) {
  return w == "stencil" || w == "spmv" || w == "nbody" || w == "cholesky";
}

/// Narrows integer `v`, the member `name` of spec field `field`, into
/// `out`: above the int range is too_large, below it bad_spec.
bool narrow(const Json& v, const std::string& field, const char* name,
            int& out, Reject& reject) {
  const std::int64_t x = v.as_int();
  const bool above = x > std::numeric_limits<int>::max();
  if (above || x < std::numeric_limits<int>::min()) {
    reject = {above ? "too_large" : "bad_spec", field,
              std::string("'") + name + "' (" + std::to_string(x) + ") is " +
                  (above ? "above" : "below") + " the int range"};
    return false;
  }
  out = static_cast<int>(x);
  return true;
}

/// Reads an integer member into `out`; false + reject on a non-integer or
/// one outside the int range.
bool read_int(const Json& j, const char* key, int& out, Reject& reject) {
  const Json* v = j.find(key);
  if (v == nullptr) return true;  // keep default
  if (!v->is_int()) {
    reject = {"bad_spec", key, std::string("'") + key + "' must be an integer"};
    return false;
  }
  return narrow(*v, key, key, out, reject);
}

/// Reads a fault event's optional `up` member (absent means down); false +
/// reject naming `field` when it is not a boolean.
bool read_up(const Json& e, const char* field, bool& out, Reject& reject) {
  const Json* up = e.find("up");
  if (up == nullptr) return true;
  if (!up->is_bool()) {
    reject = {"bad_spec", field, "'up' must be a boolean"};
    return false;
  }
  out = up->as_bool();
  return true;
}

bool read_bool(const Json& j, const char* key, bool& out, Reject& reject) {
  const Json* v = j.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    reject = {"bad_spec", key, std::string("'") + key + "' must be a boolean"};
    return false;
  }
  out = v->as_bool();
  return true;
}

/// Rejects the first member of object `j` (in key order) that is not in
/// `known`: a stale or misspelt key must not silently fall back to the
/// default.  `prefix` is the object's path in the spec ("" or "faults.").
bool known_keys(const Json& j, std::initializer_list<std::string_view> known,
                const std::string& prefix, Reject& reject) {
  for (const auto& member : j.members()) {
    if (std::find(known.begin(), known.end(), member.first) != known.end())
      continue;
    const std::string field = prefix + quote(member.first);
    reject = {"bad_spec", field, "unknown key '" + field + "'"};
    return false;
  }
  return true;
}

}  // namespace

std::optional<JobSpec> JobSpec::from_json(const Json& j, Reject& reject) {
  if (!j.is_object()) {
    reject = {"bad_spec", "", "spec must be a JSON object"};
    return std::nullopt;
  }
  if (!known_keys(j,
                  {"workload", "topology", "adaptive", "cluster", "booster",
                   "gateways", "procs", "steps", "partitions", "workers",
                   "metrics", "seed", "faults"},
                  "", reject))
    return std::nullopt;
  JobSpec spec;
  if (const Json* w = j.find("workload")) {
    if (!w->is_string()) {
      reject = {"bad_spec", "workload", "'workload' must be a string"};
      return std::nullopt;
    }
    spec.workload = w->as_string();
  }
  if (const Json* t = j.find("topology")) {
    if (!t->is_string()) {
      reject = {"bad_spec", "topology", "'topology' must be a string"};
      return std::nullopt;
    }
    spec.topology = t->as_string();
  }
  if (!read_bool(j, "adaptive", spec.adaptive, reject)) return std::nullopt;
  if (!read_int(j, "cluster", spec.cluster, reject)) return std::nullopt;
  if (!read_int(j, "booster", spec.booster, reject)) return std::nullopt;
  if (!read_int(j, "gateways", spec.gateways, reject)) return std::nullopt;
  if (!read_int(j, "procs", spec.procs, reject)) return std::nullopt;
  if (!read_int(j, "steps", spec.steps, reject)) return std::nullopt;
  if (!read_int(j, "partitions", spec.partitions, reject)) return std::nullopt;
  if (!read_int(j, "workers", spec.workers, reject)) return std::nullopt;
  if (!read_bool(j, "metrics", spec.metrics, reject)) return std::nullopt;
  if (const Json* s = j.find("seed")) {
    if (!s->is_int()) {
      reject = {"bad_spec", "seed", "'seed' must be an integer"};
      return std::nullopt;
    }
    spec.seed = static_cast<std::uint64_t>(s->as_int());
  }
  if (const Json* f = j.find("faults")) {
    if (!f->is_object()) {
      reject = {"bad_spec", "faults", "'faults' must be an object"};
      return std::nullopt;
    }
    if (!known_keys(*f, {"drop_probability", "gateways", "links"}, "faults.",
                    reject))
      return std::nullopt;
    if (const Json* dp = f->find("drop_probability")) {
      if (!dp->is_number()) {
        reject = {"bad_spec", "faults.drop_probability",
                  "'drop_probability' must be a number"};
        return std::nullopt;
      }
      spec.faults.drop_probability = dp->as_double();
    }
    if (const Json* gws = f->find("gateways")) {
      if (!gws->is_array()) {
        reject = {"bad_spec", "faults.gateways",
                  "'faults.gateways' must be an array"};
        return std::nullopt;
      }
      for (const Json& e : gws->items()) {
        SpecFaults::GatewayEvent ev;
        const Json* at = e.find("at_us");
        const Json* gw = e.find("gateway");
        if (!e.is_object() || at == nullptr || !at->is_int() ||
            gw == nullptr || !gw->is_int()) {
          reject = {"bad_spec", "faults.gateways",
                    "each gateway event needs integer 'at_us' and 'gateway'"};
          return std::nullopt;
        }
        if (!known_keys(e, {"at_us", "gateway", "up"}, "faults.gateways.",
                        reject))
          return std::nullopt;
        ev.at_us = at->as_int();
        if (!narrow(*gw, "faults.gateways", "gateway", ev.gateway, reject) ||
            !read_up(e, "faults.gateways", ev.up, reject))
          return std::nullopt;
        spec.faults.gateways.push_back(ev);
      }
    }
    if (const Json* links = f->find("links")) {
      if (!links->is_array()) {
        reject = {"bad_spec", "faults.links",
                  "'faults.links' must be an array"};
        return std::nullopt;
      }
      for (const Json& e : links->items()) {
        SpecFaults::LinkEvent ev;
        const Json* at = e.find("at_us");
        const Json* a = e.find("a");
        const Json* b = e.find("b");
        if (!e.is_object() || at == nullptr || !at->is_int() || a == nullptr ||
            !a->is_int() || b == nullptr || !b->is_int()) {
          reject = {"bad_spec", "faults.links",
                    "each link event needs integer 'at_us', 'a' and 'b'"};
          return std::nullopt;
        }
        if (!known_keys(e, {"at_us", "a", "b", "up"}, "faults.links.", reject))
          return std::nullopt;
        ev.at_us = at->as_int();
        if (!narrow(*a, "faults.links", "a", ev.a, reject) ||
            !narrow(*b, "faults.links", "b", ev.b, reject) ||
            !read_up(e, "faults.links", ev.up, reject))
          return std::nullopt;
        spec.faults.links.push_back(ev);
      }
    }
  }
  if (!spec.validate(reject)) return std::nullopt;
  return spec;
}

std::optional<JobSpec> JobSpec::from_text(std::string_view text,
                                          Reject& reject) {
  const Json::ParseResult parsed = Json::parse(text);
  if (!parsed.ok) {
    reject = {"bad_json", "",
              parsed.error + " at byte " + std::to_string(parsed.offset)};
    return std::nullopt;
  }
  return from_json(parsed.value, reject);
}

bool JobSpec::validate(Reject& reject) const {
  if (!known_workload(workload)) {
    reject = {"bad_workload", "workload",
              "unknown workload '" + quote(workload) +
                  "' (expected stencil|spmv|nbody|cholesky)"};
    return false;
  }
  {
    sys::Topology t;
    if (!sys::parse_topology(topology, t)) {
      reject = {"bad_topology", "topology",
                "unknown topology '" + quote(topology) +
                    "' (expected deep|fattree|dragonfly)"};
      return false;
    }
  }
  const auto too_small = [&reject](int value, const char* code,
                                   const char* field, const char* what) {
    if (value >= 1) return false;
    reject = {code, field, std::string("need at least one ") + what};
    return true;
  };
  if (too_small(cluster, "bad_topology", "cluster", "cluster node") ||
      too_small(booster, "bad_topology", "booster", "booster node") ||
      too_small(gateways, "bad_topology", "gateways", "gateway") ||
      too_small(procs, "bad_spec", "procs", "booster rank"))
    return false;
  if (procs > booster) {
    reject = {"bad_spec", "procs",
              "procs (" + std::to_string(procs) +
                  ") exceed booster nodes (" + std::to_string(booster) + ")"};
    return false;
  }
  if (too_small(steps, "bad_spec", "steps", "step") ||
      too_small(workers, "bad_spec", "workers", "engine worker") ||
      too_small(partitions, "bad_topology", "partitions", "partition"))
    return false;
  // Admission caps (JobSpec::kMax*), checked before anything sized by them
  // is built.  `what` names a derived quantity when it is not the field.
  const auto too_large = [&reject](const char* field, std::int64_t value,
                                   std::int64_t cap,
                                   const char* what = nullptr) {
    if (value <= cap) return false;
    reject = {"too_large", field,
              std::string(what ? what : field) + " (" + std::to_string(value) +
                  ") exceeds the admission cap of " + std::to_string(cap)};
    return true;
  };
  if (too_large("cluster", cluster, kMaxCluster) ||
      too_large("booster", booster, kMaxBooster) ||
      too_large("gateways", gateways, kMaxGateways) ||
      too_large("procs", procs, kMaxProcs) ||
      too_large("steps", steps, kMaxSteps) ||
      too_large("steps", std::int64_t{procs} * steps, kMaxRankSteps,
                "procs x steps") ||
      too_large("workers", workers, kMaxWorkers))
    return false;
  if (partitions > 1 + booster) {
    reject = {"bad_topology", "partitions",
              "more partitions than booster nodes plus one"};
    return false;
  }
  if (faults.drop_probability < 0.0 || faults.drop_probability > 1.0) {
    reject = {"bad_spec", "faults.drop_probability",
              "drop probability must be in [0, 1]"};
    return false;
  }
  for (const auto& ev : faults.gateways) {
    if (ev.gateway < 0 || ev.gateway >= gateways) {
      reject = {"bad_spec", "faults.gateways",
                "gateway index " + std::to_string(ev.gateway) +
                    " out of range [0, " + std::to_string(gateways) + ")"};
      return false;
    }
    if (ev.at_us < 0) {
      reject = {"bad_spec", "faults.gateways", "event times must be >= 0"};
      return false;
    }
    if (too_large("faults.gateways", ev.at_us, kMaxEventUs, "at_us"))
      return false;
  }
  for (const auto& ev : faults.links) {
    if (ev.a < 0 || ev.a >= booster || ev.b < 0 || ev.b >= booster) {
      reject = {"bad_spec", "faults.links",
                "link endpoints must index booster nodes"};
      return false;
    }
    if (ev.at_us < 0) {
      reject = {"bad_spec", "faults.links", "event times must be >= 0"};
      return false;
    }
    if (too_large("faults.links", ev.at_us, kMaxEventUs, "at_us"))
      return false;
  }
  // The faults/partitions guard DeepSystem enforces at construction:
  // reject it here so the worker never throws.
  if (partitions > 1 && faults.active()) {
    reject = {"faults_with_partitions", "partitions",
              "fault injection requires partitions == 1 (fault state is "
              "shared across partitions; use workers > 1 at partitions == 1 "
              "for parallel chaos coverage)"};
    return false;
  }
  return true;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  j.set("workload", workload);
  j.set("topology", topology);
  j.set("adaptive", adaptive);
  j.set("cluster", cluster);
  j.set("booster", booster);
  j.set("gateways", gateways);
  j.set("procs", procs);
  j.set("steps", steps);
  j.set("partitions", partitions);
  j.set("workers", workers);
  j.set("metrics", metrics);
  j.set("seed", static_cast<std::int64_t>(seed));
  Json f = Json::object();
  f.set("drop_probability", faults.drop_probability);
  Json gws = Json::array();
  for (const auto& ev : faults.gateways) {
    Json e = Json::object();
    e.set("at_us", ev.at_us);
    e.set("gateway", ev.gateway);
    e.set("up", ev.up);
    gws.push_back(std::move(e));
  }
  f.set("gateways", std::move(gws));
  Json links = Json::array();
  for (const auto& ev : faults.links) {
    Json e = Json::object();
    e.set("at_us", ev.at_us);
    e.set("a", ev.a);
    e.set("b", ev.b);
    e.set("up", ev.up);
    links.push_back(std::move(e));
  }
  f.set("links", std::move(links));
  j.set("faults", std::move(f));
  return j;
}

sys::SystemConfig JobSpec::to_config() const {
  sys::SystemConfig config;
  // validate() vetted the name; parse_topology leaves the Deep default on
  // the (unreachable) unknown branch.
  sys::parse_topology(topology, config.topology);
  config.adaptive_routing = adaptive;
  config.cluster_nodes = cluster;
  config.booster_nodes = booster;
  config.gateways = gateways;
  config.partitions = partitions;
  config.workers = workers;
  config.metrics.enabled = metrics;
  if (faults.active()) {
    config.faults.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
    config.faults.drop_probability = faults.drop_probability;
    // Node-id layout in DeepSystem: cluster nodes first, then boosters,
    // then gateways.
    const hw::NodeId booster_base = cluster;
    const hw::NodeId gateway_base = cluster + booster;
    for (const auto& ev : faults.gateways)
      config.faults.gateways.push_back(
          {sim::TimePoint{ev.at_us * kPsPerUs}, gateway_base + ev.gateway,
           ev.up});
    for (const auto& ev : faults.links)
      config.faults.links.push_back({sim::TimePoint{ev.at_us * kPsPerUs},
                                     booster_base + ev.a, booster_base + ev.b,
                                     ev.up});
  }
  return config;
}

}  // namespace deep::svc
