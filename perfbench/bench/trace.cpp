#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "svc/json.hpp"

namespace perfbench {

int Tracer::open(std::string name, std::uint64_t job, int parent) {
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), job, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int index) {
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> Tracer::durations() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans()) out[s.name].push_back(s.end_s - s.start_s);
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  // Children of one parent never overlap (every span here is opened and
  // closed on one thread, in nesting order), so their durations add up.
  std::vector<double> child_cover(all.size(), 0.0);
  for (const Span& s : all)
    if (s.parent >= 0)
      child_cover[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i)
    out[all[i].name] +=
        std::max(0.0, all[i].end_s - all[i].start_s - child_cover[i]);
  return out;
}

bool Tracer::write(const std::string& path) const {
  deep::svc::Json arr = deep::svc::Json::array();
  for (const Span& s : spans()) {
    deep::svc::Json j = deep::svc::Json::object();
    j.set("name", s.name);
    j.set("job", static_cast<std::int64_t>(s.job));
    j.set("parent", s.parent);
    j.set("start_s", s.start_s);
    j.set("end_s", s.end_s);
    arr.push_back(std::move(j));
  }
  std::ofstream out(path);
  out << arr.dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
