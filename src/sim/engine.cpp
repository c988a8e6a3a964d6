#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "sim/parallel.hpp"
#include "util/log.hpp"

namespace deep::sim {

constinit thread_local Engine::ExecTls Engine::t_exec_;

// ---------------------------------------------------------------------------
// Process fiber scheduling
// ---------------------------------------------------------------------------

Process::Process(Engine& engine, std::uint64_t id, std::uint32_t partition,
                 std::string name, std::function<void(Context&)> body)
    : engine_(engine),
      id_(id),
      partition_(partition),
      name_(std::move(name)),
      body_(std::move(body)) {}

Process::~Process() = default;

void Process::start_fiber() {
  fiber_.create(engine_.acquire_stack(), &Process::fiber_entry, this);
}

void Process::fiber_entry(void* arg) {
  auto* self = static_cast<Process*>(arg);
  Context ctx(self->engine_, *self);
  try {
    if (!self->kill_requested_) self->body_(ctx);
  } catch (const ProcessKilled&) {
    // Graceful teardown requested by the engine.
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->state_ = State::Finished;
  self->body_ = nullptr;  // release captured resources eagerly
  self->clear_block_note();  // its subject lived on the unwound stack
  // cur_sched() resolves through the *running thread's* execution context,
  // so a fiber that last ran on a worker unwinds back to whichever scheduler
  // anchor resumed it (possibly the main thread during teardown).
  Fiber::switch_to(self->fiber_, self->engine_.cur_sched(),
                   /*terminating=*/true);
  // A terminated fiber is never resumed.
  std::abort();
}

void Process::run_slice() {
  DEEP_ASSERT(state_ == State::Runnable, "run_slice: process not runnable");
  resume_scheduled_ = false;
  engine_.m_fiber_switches_.add(1);
  Fiber::switch_to(engine_.cur_sched(), fiber_);
  if (state_ == State::Finished && fiber_.created())
    engine_.release_stack(fiber_.take_stack());
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void Process::yield_to_engine() {
  Fiber::switch_to(fiber_, engine_.cur_sched());
  if (kill_requested_) throw ProcessKilled{};
}

void Process::wake() {
  if (state_ == State::Finished) return;
  DEEP_ASSERT(!engine_.parallel_run_ || engine_.cur_part().id == partition_,
              "Process::wake: cross-partition wake during a parallel run "
              "(deliver it through Engine::schedule_on)");
  wake_pending_ = true;
  if (state_ == State::Waiting) engine_.schedule_resume(*this);
}

void Process::request_kill() {
  if (state_ == State::Finished) return;
  DEEP_ASSERT(!engine_.parallel_run_ || engine_.cur_part().id == partition_,
              "Process::request_kill: cross-partition kill during a parallel "
              "run (deliver it through Engine::schedule_on)");
  kill_requested_ = true;
  // Reuse the wake path: a Waiting process gets a resume event at the
  // current time and unwinds (yield_to_engine throws ProcessKilled) when it
  // is dispatched; Sleeping/Runnable processes unwind at their already
  // scheduled resume point; a Created process skips its body entirely.
  wake();
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

void Context::delay(Duration d) {
  DEEP_EXPECT(d.ps >= 0, "Context::delay: negative duration");
  Process& p = *process_;
  p.state_ = Process::State::Sleeping;
  engine_->schedule_process(engine_->partition(p.partition_),
                            engine_->now() + d, EventKind::SleepExpiry, p);
  p.yield_to_engine();
  p.state_ = Process::State::Runnable;
}

void Context::suspend() {
  Process& p = *process_;
  if (p.wake_pending_) {
    p.wake_pending_ = false;
    return;
  }
  p.state_ = Process::State::Waiting;
  p.yield_to_engine();
  p.state_ = Process::State::Runnable;
  p.wake_pending_ = false;
}

bool Context::killed() const { return process_->kill_requested_; }

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() = default;

Engine::~Engine() { kill_all_unfinished(); }

void Engine::schedule_local(Partition& part, TimePoint t, EventFn fn) {
  DEEP_EXPECT(t >= part.now, "Engine::schedule_at: time in the past");
  part.queue.push(t, part.make_key(), EventKind::Callback, nullptr,
                  std::move(fn));
}

void Engine::schedule_at(TimePoint t, EventFn fn) {
  schedule_local(cur_part(), t, std::move(fn));
}

void Engine::schedule_in(Duration d, EventFn fn) {
  schedule_at(now() + d, std::move(fn));
}

void Engine::schedule_on(std::uint32_t p, TimePoint t, EventFn fn) {
  Partition& dst = partition(p);
  if (!parallel_run_) {
    // Outside a parallel run everything is single-threaded: push straight
    // into the target partition's queue with its own key stream.
    DEEP_EXPECT(t >= dst.now, "Engine::schedule_on: time in the past");
    dst.queue.push(t, dst.make_key(), EventKind::Callback, nullptr,
                   std::move(fn));
    return;
  }
  Partition& src = cur_part();
  if (&src == &dst) {
    schedule_local(src, t, std::move(fn));
    return;
  }
  // Conservative correctness: the destination may already be executing
  // anywhere below its safe horizon, so the event must land at or beyond
  // it.  Holds by construction when the modelled src->dst latency is >= the
  // configured (src, dst) pair lookahead: the horizon is
  // min over peers s of (LB(s) + lookahead(s, dst)) <= now + lookahead.
  // dst.limit is written only during the plan step (all executors parked at
  // the barrier) and read-only during execution, so this read is safe.
  DEEP_EXPECT(t >= dst.limit,
              "Engine::schedule_on: cross-partition event inside the "
              "destination's safe window (latency below the configured "
              "lookahead)");
  // The key comes from the *source* stream at call time: heap order among
  // simultaneous events is then a pure function of the simulation, not of
  // which window carried the event across.
  par_->ring(src.id, dst.id)
      .push(ParallelState::CrossEvent{t, src.make_key(), std::move(fn)});
}

void Engine::schedule_on_after(std::uint32_t p, TimePoint t, EventFn fn) {
  if (parallel_run_) {
    Partition& dst = partition(p);
    if (&cur_part() != &dst && t < dst.limit) t = dst.limit;
  }
  schedule_on(p, t, std::move(fn));
}

void Engine::schedule_process(Partition& part, TimePoint t, EventKind kind,
                              Process& p) {
  part.queue.push(t, part.make_key(), kind, &p, EventFn{});
}

void Engine::set_metrics(obs::Registry* metrics) {
  metrics_ = metrics;
  if (metrics_) {
    m_events_ = metrics_->counter("sim.events");
    m_fiber_switches_ = metrics_->counter("sim.fiber_switches");
    m_stale_resumes_ = metrics_->counter("sim.stale_resumes");
    m_queue_depth_ = metrics_->gauge("sim.queue_depth");
    m_windows_ = metrics_->counter("sim.windows");
    m_solo_windows_ = metrics_->counter("sim.solo_windows");
    m_cross_events_ = metrics_->counter("sim.cross_events");
    m_window_events_ = metrics_->histogram("sim.window_events");
  } else {
    m_events_ = {};
    m_fiber_switches_ = {};
    m_stale_resumes_ = {};
    m_queue_depth_ = {};
    m_windows_ = {};
    m_solo_windows_ = {};
    m_cross_events_ = {};
    m_window_events_ = {};
  }
  m_barrier_wait_.clear();
}

void Engine::set_fiber_stack_size(std::size_t bytes) {
  DEEP_EXPECT(processes_.empty(),
              "Engine::set_fiber_stack_size: must be called before spawn");
  stack_pool_.set_stack_size(bytes);
}

void Engine::set_partitions(std::uint32_t count) {
  DEEP_EXPECT(count >= 1 && count <= kMaxPartitions,
              "Engine::set_partitions: count out of range");
  DEEP_EXPECT(!running_, "Engine::set_partitions: engine is running");
  DEEP_EXPECT(processes_.empty() && part0_.queue.empty() && extra_.empty(),
              "Engine::set_partitions: must be called on an empty engine");
  for (std::uint32_t p = 1; p < count; ++p) {
    extra_.push_back(std::make_unique<Partition>());
    extra_.back()->id = p;
  }
  pair_la_.clear();  // sized per partition count
  par_.reset();      // sized per partition count; rebuilt on the next run
}

void Engine::set_workers(std::uint32_t workers) {
  DEEP_EXPECT(workers >= 1, "Engine::set_workers: need at least one worker");
  DEEP_EXPECT(!running_, "Engine::set_workers: engine is running");
  workers_ = workers;
}

void Engine::set_lookahead(Duration lookahead) {
  DEEP_EXPECT(lookahead.ps >= 0, "Engine::set_lookahead: negative lookahead");
  DEEP_EXPECT(!running_, "Engine::set_lookahead: engine is running");
  lookahead_ = lookahead;
}

void Engine::set_lookahead(std::uint32_t src, std::uint32_t dst,
                           Duration lookahead) {
  const std::uint32_t P = partitions();
  DEEP_EXPECT(src < P && dst < P,
              "Engine::set_lookahead: partition index out of range");
  DEEP_EXPECT(lookahead.ps > 0,
              "Engine::set_lookahead: pair lookahead must be positive (use "
              "kUnconstrainedLookahead for pairs with no channel)");
  DEEP_EXPECT(!running_, "Engine::set_lookahead: engine is running");
  if (src == dst) return;  // a partition never constrains itself
  if (pair_la_.empty())
    pair_la_.assign(static_cast<std::size_t>(P) * P, -1);
  pair_la_[static_cast<std::size_t>(src) * P + dst] = lookahead.ps;
}

Duration Engine::lookahead(std::uint32_t src, std::uint32_t dst) const {
  const std::uint32_t P = partitions();
  if (src == dst || src >= P || dst >= P) return Duration{0};
  if (!pair_la_.empty()) {
    const std::int64_t v = pair_la_[static_cast<std::size_t>(src) * P + dst];
    if (v >= 0) return Duration{v};
  }
  return lookahead_.ps > 0 ? lookahead_ : Duration{0};
}

FiberStack Engine::acquire_stack() {
  std::lock_guard<std::mutex> lock(stack_mu_);
  return stack_pool_.acquire();
}

void Engine::release_stack(FiberStack stack) {
  std::lock_guard<std::mutex> lock(stack_mu_);
  stack_pool_.release(stack);
}

std::size_t Engine::events_executed() const {
  std::size_t total = part0_.events_executed;
  for (const auto& part : extra_) total += part->events_executed;
  return total;
}

Process& Engine::spawn(std::string name, std::function<void(Context&)> body) {
  return spawn_on(cur_part().id, std::move(name), std::move(body));
}

Process& Engine::spawn_on(std::uint32_t p, std::string name,
                          std::function<void(Context&)> body) {
  Partition& part = partition(p);
  DEEP_EXPECT(!parallel_run_ || cur_part().id == p,
              "Engine::spawn_on: cross-partition spawn during a parallel run");
  const std::uint64_t id =
      (static_cast<std::uint64_t>(p) << kPartitionShift) |
      part.next_local_pid++;
  auto proc = std::unique_ptr<Process>(
      new Process(*this, id, p, std::move(name), std::move(body)));
  Process& ref = *proc;
  {
    std::lock_guard<std::mutex> lock(spawn_mu_);
    processes_.push_back(std::move(proc));
  }
  ref.start_fiber();
  ref.state_ = Process::State::Runnable;
  ref.resume_scheduled_ = true;
  schedule_process(part, part.now, EventKind::StartSlice, ref);
  return ref;
}

void Engine::schedule_resume(Process& p) {
  if (p.resume_scheduled_) return;
  p.resume_scheduled_ = true;
  Partition& part = partition(p.partition_);
  schedule_process(part, part.now, EventKind::Resume, p);
}

void Engine::dispatch_one(Partition& part) {
  EventQueue::Dispatched ev = part.queue.pop();
  part.now = ev.t;
  part.cur_key = ev.key;
  ++part.events_executed;
  m_events_.add(1);
  // Queue depth is sampled every 64th event: a gauge store per dispatch is
  // measurable on the cheapest fabric paths, and the decimation stays
  // deterministic because the event count is itself part of the replay.
  // Parallel runs sample at window commits instead (sim/parallel.cpp).
  if (!parallel_run_ && (part.events_executed & 63) == 0)
    m_queue_depth_.set(static_cast<std::int64_t>(part.queue.size()));
  switch (ev.kind) {
    case EventKind::Callback:
      ev.fn();
      break;
    case EventKind::StartSlice:
      if (!ev.proc->finished()) ev.proc->run_slice();
      break;
    case EventKind::Resume:
      if (ev.proc->state_ == Process::State::Waiting) {
        ev.proc->state_ = Process::State::Runnable;
        ev.proc->run_slice();
      } else {
        // The process got resumed through another path before this event
        // fired; the latched wake_pending_ covers the notification.
        ev.proc->resume_scheduled_ = false;
        m_stale_resumes_.add(1);
      }
      break;
    case EventKind::SleepExpiry:
      // Stale if the process was killed (or otherwise left Sleeping) first.
      if (ev.proc->state_ == Process::State::Sleeping) {
        ev.proc->state_ = Process::State::Runnable;
        ev.proc->run_slice();
      } else {
        m_stale_resumes_.add(1);
      }
      break;
  }
}

namespace {
/// Clears Engine::running_ even when a process body throws out of run().
struct RunningGuard {
  bool& flag;
  explicit RunningGuard(bool& f) : flag(f) { flag = true; }
  ~RunningGuard() { flag = false; }
};
}  // namespace

void Engine::run() {
  DEEP_EXPECT(!running_, "Engine::run: already running");
  {
    RunningGuard guard(running_);
    if (partitions() == 1) {
      while (!part0_.queue.empty()) dispatch_one(part0_);
    } else {
      run_windowed(TimePoint{}, /*bounded=*/false);
    }
  }
  check_deadlock_or_finish();
  kill_all_unfinished();
}

bool Engine::run_until(TimePoint t) {
  DEEP_EXPECT(!running_, "Engine::run_until: already running");
  bool remaining;
  {
    RunningGuard guard(running_);
    if (partitions() == 1) {
      while (!part0_.queue.empty() && part0_.queue.next_time() <= t)
        dispatch_one(part0_);
      if (part0_.now < t) part0_.now = t;
      remaining = !part0_.queue.empty();
    } else {
      remaining = run_windowed(t, /*bounded=*/true);
    }
  }
  if (!remaining) {
    // Same stuck-process reporting as run(); daemons stay alive because the
    // caller may schedule more events and continue.
    check_deadlock_or_finish();
    return false;
  }
  return true;
}

namespace {

const char* state_name(Process::State s) {
  switch (s) {
    case Process::State::Created:
      return "created";
    case Process::State::Runnable:
      return "runnable";
    case Process::State::Sleeping:
      return "sleeping";
    case Process::State::Waiting:
      return "waiting";
    case Process::State::Finished:
      return "finished";
  }
  return "?";
}

/// Human id: the bare local number for partition 0 (the historical format),
/// "p<partition>:<local>" elsewhere.
std::string proc_id_str(const Process& p) {
  const std::uint64_t local = p.id() & Engine::kSeqMask;
  if (p.partition() == 0) return std::to_string(local);
  std::string out = "p";
  out += std::to_string(p.partition());
  out += ':';
  out += std::to_string(local);
  return out;
}

}  // namespace

std::vector<Process*> Engine::processes_by_id() const {
  std::vector<Process*> procs;
  procs.reserve(processes_.size());
  for (const auto& p : processes_) procs.push_back(p.get());
  // Spawn order and id order coincide in serial runs; in partitioned runs
  // the vector order depends on mid-run spawn interleaving, so sort by the
  // partition-tagged id for a reproducible iteration order.
  std::sort(procs.begin(), procs.end(),
            [](const Process* a, const Process* b) { return a->id() < b->id(); });
  return procs;
}

void Engine::check_deadlock_or_finish() {
  // Two distinct "queue drained" outcomes: only daemons left (a normal end
  // of simulation — they are torn down or left idle by the caller) versus
  // non-daemon processes still blocked, which is a real deadlock.  The
  // report names every stuck process and, when the blocking layer set one,
  // what it was waiting for (e.g. an MPI recv whose peer died with a link).
  std::size_t stuck_count = 0;
  std::size_t daemons_alive = 0;
  std::ostringstream stuck;
  for (const Process* p : processes_by_id()) {
    if (p->finished()) continue;
    if (p->daemon()) {
      ++daemons_alive;
      continue;
    }
    ++stuck_count;
    stuck << "\n  " << p->name() << " (id=" << proc_id_str(*p) << ", "
          << state_name(p->state()) << ')';
    if (const std::string note = p->block_note(); !note.empty())
      stuck << ": blocked on " << note;
  }
  if (stuck_count > 0) {
    kill_all_unfinished();
    std::ostringstream msg;
    msg << "simulation deadlock: event queue drained with " << stuck_count
        << " process(es) still blocked";
    if (daemons_alive > 0)
      msg << " (" << daemons_alive
          << " daemon(s) alive and idle, which alone would be a normal end)";
    msg << ':' << stuck.str();
    throw util::SimError(msg.str());
  }
}

void Engine::kill_all_unfinished() {
  for (Process* p : processes_by_id()) {
    if (p->finished() || !p->fiber_.created()) continue;
    // Enter the process's partition context: the final slice must unwind
    // back to that partition's scheduler anchor, record into its metrics
    // lane, and see its clock — even though teardown runs on the main
    // thread for fibers that last executed on a worker.
    ExecScope scope(this, &partition(p->partition_));
    p->kill_requested_ = true;
    // Hand the fiber one final slice so yield_to_engine() throws
    // ProcessKilled and the stack unwinds.
    p->state_ = Process::State::Runnable;
    p->run_slice();
    DEEP_ASSERT(p->finished(), "kill: process failed to unwind");
  }
}

}  // namespace deep::sim
