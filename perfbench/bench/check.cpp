#include "check.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "reference.hpp"
#include "sessions.hpp"
#include "svc/json.hpp"

namespace perfbench {

using deep::svc::Json;
using deep::svc::SessionResult;

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

bool relative_close(double got, double want) {
  return std::abs(got - want) <= kReferenceTolerance * std::abs(want);
}

/// Names of the fabrics in a snapshot: every X with a "net.X.messages"
/// counter (extoll, infiniband, fattree or dragonfly).
std::vector<std::string> fabric_names(const std::map<std::string, std::int64_t>& values) {
  std::vector<std::string> names;
  for (const auto& [name, value] : values) {
    if (!name.starts_with("net.") || !name.ends_with(".messages")) continue;
    const std::string fabric = name.substr(4, name.size() - 4 - 9);
    if (!fabric.empty() && fabric.find('.') == std::string::npos) names.push_back(fabric);
  }
  return names;
}

std::string mismatch(const char* what, const std::string& got,
                     const std::string& want) {
  return std::string(what) + ": got " + got + ", want " + want;
}

}  // namespace

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::optional<Pins> load_pins(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read pins file " + path;
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  const auto parsed = Json::parse(text.str());
  if (!parsed.ok || !parsed.value.is_object()) {
    error = "pins file " + path + ": " + (parsed.ok ? "not an object" : parsed.error);
    return std::nullopt;
  }
  Pins pins;
  for (const auto& [name, entry] : parsed.value.members()) {
    error = "pin for " + name + " is malformed";
    const Json* ok = entry.find("ok");
    const Json* bits = entry.find("checksum_bits");
    const Json* final_ps = entry.find("final_ps");
    const Json* events = entry.find("events");
    const Json* fabrics = entry.find("fabrics");
    if (ok == nullptr || !ok->is_bool() || bits == nullptr || !bits->is_string() ||
        final_ps == nullptr || !final_ps->is_int() || events == nullptr ||
        !events->is_int() || fabrics == nullptr || !fabrics->is_object())
      return std::nullopt;
    Pin pin;
    pin.ok = ok->as_bool();
    pin.checksum_bits = std::strtoull(bits->as_string().c_str(), nullptr, 16);
    pin.final_ps = final_ps->as_int();
    pin.events = static_cast<std::uint64_t>(events->as_int());
    for (const auto& [fabric, counts] : fabrics->members()) {
      const Json* m = counts.find("messages");
      const Json* b = counts.find("bytes");
      if (m == nullptr || !m->is_int() || b == nullptr || !b->is_int()) return std::nullopt;
      pin.fabrics[fabric] = {m->as_int(), b->as_int()};
    }
    pins[name] = std::move(pin);
  }
  error.clear();
  return pins;
}

std::string pin_json(const SessionResult& result) {
  const auto values = snapshot_values(result.metrics_json);
  Json j = Json::object();
  j.set("ok", result.ok);
  j.set("checksum_bits", hex(double_bits(result.checksum)));
  j.set("final_ps", result.final_ps);
  j.set("events", static_cast<std::int64_t>(result.events));
  Json fabrics = Json::object();
  for (const std::string& name : fabric_names(values)) {
    const std::string prefix = "net." + name;
    Json f = Json::object();
    const auto m = values.find(prefix + ".messages");
    const auto b = values.find(prefix + ".bytes");
    f.set("messages", m == values.end() ? std::int64_t{0} : m->second);
    f.set("bytes", b == values.end() ? std::int64_t{0} : b->second);
    fabrics.set(name, std::move(f));
  }
  j.set("fabrics", std::move(fabrics));
  return j.dump();
}

std::map<std::string, std::int64_t> snapshot_values(const std::string& metrics_json) {
  std::map<std::string, std::int64_t> out;
  const auto parsed = Json::parse(metrics_json);
  if (!parsed.ok) return out;
  const Json* list = parsed.value.find("metrics");
  if (list == nullptr || !list->is_array()) return out;
  for (const Json& e : list->items()) {
    const Json* name = e.find("name");
    if (name == nullptr || !name->is_string()) continue;
    if (const Json* v = e.find("value"); v != nullptr && v->is_int())
      out[name->as_string()] = v->as_int();
    if (const Json* c = e.find("count"); c != nullptr && c->is_int())
      out[name->as_string() + ".count"] = c->as_int();
    if (const Json* s = e.find("sum"); s != nullptr && s->is_int())
      out[name->as_string() + ".sum"] = s->as_int();
  }
  return out;
}

std::vector<std::string> check_pin(const SessionResult& result, const Pin& pin) {
  std::vector<std::string> fails;
  if (result.ok != pin.ok)
    fails.push_back(mismatch("ok", result.ok ? "true" : "false",
                             pin.ok ? "true" : "false"));
  if (double_bits(result.checksum) != pin.checksum_bits)
    fails.push_back(mismatch("checksum bits", hex(double_bits(result.checksum)),
                             hex(pin.checksum_bits)));
  if (result.final_ps != pin.final_ps)
    fails.push_back(mismatch("final_ps", std::to_string(result.final_ps),
                             std::to_string(pin.final_ps)));
  if (result.events != pin.events)
    fails.push_back(mismatch("events", std::to_string(result.events),
                             std::to_string(pin.events)));
  const auto values = snapshot_values(result.metrics_json);
  for (const std::string& name : fabric_names(values))
    if (!pin.fabrics.contains(name)) fails.push_back("fabric " + name + " is not pinned");
  for (const auto& [name, want] : pin.fabrics) {
    const std::string prefix = "net." + name;
    const auto m = values.find(prefix + ".messages");
    const auto b = values.find(prefix + ".bytes");
    const std::int64_t got_m = m == values.end() ? -1 : m->second;
    const std::int64_t got_b = b == values.end() ? -1 : b->second;
    if (got_m != want.messages)
      fails.push_back(mismatch((prefix + ".messages").c_str(),
                               std::to_string(got_m),
                               std::to_string(want.messages)));
    if (got_b != want.bytes)
      fails.push_back(mismatch((prefix + ".bytes").c_str(), std::to_string(got_b),
                               std::to_string(want.bytes)));
  }
  return fails;
}

std::vector<std::string> check_reference(const deep::svc::JobSpec& spec,
                                         const SessionResult& result) {
  std::vector<std::string> fails;
  if (!result.ok)
    fails.push_back("session not ok" +
                    (result.error.empty() ? std::string() : ": " + result.error));
  char buf[160];
  if (spec.workload == "stencil") {
    const auto cfg = session_stencil_config();
    const double want = serial_jacobi_checksum(cfg.nx, cfg.rows, spec.procs,
                                               cfg.iterations, cfg.top_value);
    if (!relative_close(result.checksum, want)) {
      std::snprintf(buf, sizeof buf,
                    "stencil checksum %.17g vs serial Jacobi %.17g", result.checksum,
                    want);
      fails.push_back(buf);
    }
  } else if (spec.workload == "spmv") {
    const PowerResult want =
        serial_power_iteration(spec.procs, session_spmv_config(spec));
    if (!relative_close(result.checksum, want.eigenvalue)) {
      std::snprintf(buf, sizeof buf,
                    "spmv eigenvalue %.17g vs serial power iteration %.17g",
                    result.checksum, want.eigenvalue);
      fails.push_back(buf);
    }
  }
  return fails;
}

std::vector<std::string> check_same(const SessionResult& got,
                                    const std::string& want_fingerprint,
                                    const std::string& what) {
  if (got.fingerprint() == want_fingerprint) return {};
  return {what + ": fingerprint differs from the solo run_session reference"};
}

}  // namespace perfbench
