#include "ompss/runtime.hpp"

#include <algorithm>
#include <unordered_set>

#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace deep::ompss {

Runtime::Runtime(sim::Context& master, hw::Node& node, int workers)
    : master_(&master), node_(&node) {
  if (workers <= 0) workers = node.spec().cores;
  DEEP_EXPECT(workers <= node.spec().cores,
              "Runtime: more workers than cores on node");
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    sim::Process& p = master.engine().spawn(
        node.name() + "-worker" + std::to_string(w),
        [this](sim::Context& ctx) { worker_loop(ctx); });
    p.set_daemon(true);
    workers_.push_back(&p);
  }
  obs::Registry& m = master.engine().metrics();
  m_tasks_ = m.counter("ompss.tasks");
  m_edges_ = m.counter("ompss.dependency_edges");
  m_task_ns_ = m.histogram("ompss.task_ns");
}

Runtime::~Runtime() {
  if (pending_ > 0) {
    util::log_warn("Runtime destroyed with ", pending_,
                   " pending tasks; call taskwait() first");
  }
  shutting_down_ = true;
  for (sim::Process* w : workers_) w->wake();
  // Yield until the (idle) workers observed the flag and exited.
  bool any_alive = true;
  while (any_alive && pending_ == 0) {
    any_alive = false;
    for (sim::Process* w : workers_)
      if (!w->finished()) any_alive = true;
    if (any_alive) master_->delay(sim::Duration{0});
  }
}

TaskId Runtime::submit(std::string name, std::vector<Region> regions,
                       hw::KernelCost cost, std::function<void()> body,
                       int priority) {
  return submit_impl(std::move(name), std::move(regions), cost,
                     std::move(body), /*external=*/false, priority);
}

TaskId Runtime::submit_external(std::string name, std::vector<Region> regions,
                                std::function<void()> body) {
  return submit_impl(std::move(name), std::move(regions), hw::KernelCost{},
                     std::move(body), /*external=*/true, 0);
}

TaskId Runtime::submit_impl(std::string name, std::vector<Region> regions,
                            hw::KernelCost cost, std::function<void()> body,
                            bool external, int priority) {
  DEEP_EXPECT(static_cast<bool>(body), "Runtime::submit: empty task body");
  const TaskId id = next_id_++;
  auto task = std::make_unique<Task>();
  task->id = id;
  task->name = std::move(name);
  task->cost = cost;
  task->body = std::move(body);
  task->external = external;
  task->priority = priority;

  // Dependency discovery: scan every known region state that overlaps one of
  // ours and add the RAW / WAR / WAW edges OmpSs semantics require.
  std::unordered_set<TaskId> preds;
  for (const Region& r : regions) {
    for (RegionState& s : region_states_) {
      if (!s.region.overlaps(r)) continue;
      if (r.reads() && s.last_writer != 0) preds.insert(s.last_writer);
      if (r.writes()) {
        if (s.last_writer != 0) preds.insert(s.last_writer);
        for (const TaskId reader : s.readers_since_write) preds.insert(reader);
      }
    }
  }
  preds.erase(id);

  double depth_in = 0.0;
  for (const TaskId pid : preds) {
    auto it = tasks_.find(pid);
    if (it == tasks_.end()) continue;
    Task& pred = *it->second;
    depth_in = std::max(depth_in, pred.depth_seconds);
    add_edge(pred, *task);
  }
  const double my_seconds = hw::compute_seconds(
      node_->spec(), cost.flops > 0 || cost.mem_bytes > 0 ? cost
                                                          : hw::KernelCost{},
      1);
  task->depth_seconds = depth_in + my_seconds;
  stats_.critical_path_seconds =
      std::max(stats_.critical_path_seconds, task->depth_seconds);
  stats_.total_task_seconds += my_seconds;

  // Update region bookkeeping: one state entry per exact interval.
  for (const Region& r : regions) {
    RegionState* state = nullptr;
    for (RegionState& s : region_states_) {
      if (s.region.base == r.base && s.region.bytes == r.bytes) {
        state = &s;
        break;
      }
    }
    if (state == nullptr) {
      region_states_.push_back(RegionState{r, 0, {}});
      state = &region_states_.back();
    }
    if (r.writes()) {
      state->last_writer = id;
      state->readers_since_write.clear();
    } else {
      state->readers_since_write.push_back(id);
    }
  }

  task->regions = std::move(regions);
  ++stats_.tasks_submitted;
  m_tasks_.add(1);
  ++pending_;
  Task& ref = *task;
  tasks_.emplace(id, std::move(task));
  if (ref.unmet_deps == 0) make_ready(ref);
  return id;
}

void Runtime::add_edge(Task& from, Task& to) {
  if (from.completed) return;
  from.successors.push_back(to.id);
  ++to.unmet_deps;
  ++stats_.dependency_edges;
  m_edges_.add(1);
}

void Runtime::make_ready(Task& task) {
  if (task.external) {
    ready_external_.push_back(task.id);
    master_->process().wake();
  } else {
    ready_.push_back(task.id);
    for (sim::Process* w : workers_) w->wake();
  }
}

void Runtime::run_task(sim::Context& ctx, Task& task, bool on_worker) {
  ++running_now_;
  stats_.max_parallelism = std::max(stats_.max_parallelism, running_now_);
  const sim::TimePoint begin = ctx.now();
  task.body();
  if (on_worker) {
    // Book the modelled cost directly (bypassing Node::compute's trace span
    // so tasks appear under their own name on the worker's track).
    const sim::Duration d = hw::compute_time(node_->spec(), task.cost, 1);
    node_->meter().add_busy(d, 1);
    node_->meter().add_flops(task.cost.flops);
    ctx.delay(d);
  }
  if (auto* tracer = ctx.engine().tracer()) {
    tracer->span(ctx.process().name(), task.name, begin, ctx.now(), "task");
  }
  m_task_ns_.record((ctx.now() - begin).ps / 1000);
  --running_now_;
  on_task_done(task);
}

void Runtime::on_task_done(Task& task) {
  task.completed = true;
  ++stats_.tasks_executed;
  --pending_;
  for (const TaskId sid : task.successors) {
    Task& succ = *tasks_.at(sid);
    DEEP_ASSERT(succ.unmet_deps > 0, "Runtime: dependency underflow");
    if (--succ.unmet_deps == 0) make_ready(succ);
  }
  // Always nudge the master: taskwait()/taskwait_on() re-check their
  // predicates on every completion (wakes are latched and cheap).
  master_->process().wake();
}

TaskId Runtime::pop_ready() {
  DEEP_ASSERT(!ready_.empty(), "pop_ready: queue empty");
  auto best = ready_.begin();
  for (auto it = std::next(ready_.begin()); it != ready_.end(); ++it) {
    if (tasks_.at(*it)->priority > tasks_.at(*best)->priority) best = it;
  }
  const TaskId id = *best;
  ready_.erase(best);
  return id;
}

void Runtime::worker_loop(sim::Context& ctx) {
  for (;;) {
    while (!shutting_down_ && ready_.empty()) ctx.suspend();
    if (shutting_down_) return;
    run_task(ctx, *tasks_.at(pop_ready()), /*on_worker=*/true);
  }
}

void Runtime::taskwait_on(const std::vector<Region>& regions) {
  const auto anything_pending = [&] {
    for (const auto& [id, task] : tasks_) {
      if (task->completed) continue;
      for (const Region& mine : regions)
        for (const Region& theirs : task->regions)
          if (mine.overlaps(theirs)) return true;
    }
    return false;
  };
  while (anything_pending()) {
    // Help with external work while waiting, like taskwait() does.
    if (!ready_external_.empty()) {
      const TaskId id = ready_external_.front();
      ready_external_.pop_front();
      run_task(*master_, *tasks_.at(id), /*on_worker=*/false);
      continue;
    }
    master_->suspend();
  }
}

void Runtime::taskwait() {
  for (;;) {
    if (!ready_external_.empty()) {
      const TaskId id = ready_external_.front();
      ready_external_.pop_front();
      run_task(*master_, *tasks_.at(id), /*on_worker=*/false);
      continue;
    }
    if (pending_ == 0) return;
    master_->suspend();
  }
}

}  // namespace deep::ompss
