#pragma once
// Discrete-event simulation engine with cooperative actor processes.
//
// Model
// -----
// The engine owns pooled event queues of (time, key, payload) events and a
// set of Processes.  Each Process runs user code on its own *fiber* — a
// stackful userspace context (ucontext) owned by the engine — and a
// scheduler switches into exactly one fiber of a partition at a time.
// Together with the key tie-break this makes every simulation fully
// deterministic.  A fiber switch is a register swap (~100 ns), not a kernel
// round-trip, so simulations with tens of thousands of concurrent processes
// are practical.
//
// Fiber stacks default to 256 KiB (pages committed lazily) and are recycled
// through a free-list pool when processes finish; tune with
// Engine::set_fiber_stack_size() *before* the first spawn if process bodies
// need deeper stacks.
//
// Each event queue is a 4-ary implicit heap of small (time, key, slot)
// entries over a free-list slot pool (sim/event.hpp).  Callbacks are stored
// in a small-buffer-optimized EventFn (no heap allocation for captures up to
// 48 bytes), and process bookkeeping events — spawn slices, wake resumes,
// sleep expiries — carry just a tagged Process pointer.  Each such event is
// validated against the process's current state when dispatched, so an event
// that went stale (process killed, or already resumed through another path)
// is dropped instead of misfiring.
//
// Blocking primitives available to process code (via Context):
//   * delay(d)   — advance this process's local time by exactly d,
//   * suspend()  — park until some event calls Process::wake(),
//   * engine().schedule_in(...) — plain event callbacks (run on the engine).
//
// wake() on a running/sleeping process is remembered (binary semaphore), so
// the canonical wait loop `while (!pred()) ctx.suspend();` never loses a
// notification.  A wake delivered during delay() never shortens the sleep:
// it is latched and consumed by the next suspend().
//
// Teardown: the engine unwinds unfinished processes by throwing
// ProcessKilled through their fiber (run() does this for daemons once the
// queue drains; the destructor for everything else), so stack objects in
// process bodies are destroyed deterministically.
//
// Parallel execution (docs/parallel_engine.md)
// --------------------------------------------
// By default the engine is single-partition and strictly single-threaded —
// the historical behaviour, bit-for-bit.  set_partitions(P) splits the
// simulation into P partitions, each with its own event queue, sequence
// stream and scheduler fiber; spawn_on()/schedule_on() place work on a
// partition.  Within a partition everything above still holds.  Across
// partitions the engine runs a *conservative* parallel schedule: each
// partition executes events below a per-partition safe horizon during which
// no other partition can affect it, so any interleaving of partition
// execution — one worker thread or eight — produces the identical
// simulation.  The horizons derive from a per-(src, dst)-pair lookahead
// matrix (the minimum virtual latency of any src->dst channel, supplied by
// the fabric layer via set_lookahead(src, dst, d); a single global
// set_lookahead(d) fills every pair) through a min-plus fixed point — see
// docs/parallel_engine.md for the protocol and its safety argument.
// Cross-partition events are exchanged through per-pair SPSC queues,
// re-keyed and committed in canonical (time, key) order at window barriers.
// Event keys are partition-tagged ((partition << 40) | seq), so partition 0
// of a partitioned run and a plain serial run use the very same key values.
//
// Thread-safety contract: user code never needs locks — process bodies,
// NIC handlers and event callbacks run on exactly one thread per window,
// and everything a partition touches (its processes, its fabrics) must be
// owned by that partition.  Cross-partition interaction goes through
// schedule_on() (at or beyond the current window's end) — never through
// direct calls into another partition's objects.  Process::wake() may only
// be called from the process's own partition (or from outside a run).

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/event.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace deep::sim {

class Engine;
class Process;
class Tracer;

/// Pair-lookahead sentinel for partitions that share no channel: such pairs
/// never constrain each other's safe windows.
inline constexpr Duration kUnconstrainedLookahead{INT64_MAX};

/// Handle passed to process bodies; the only way user code talks to the
/// engine from inside a process.
class Context {
 public:
  Context(Engine& engine, Process& process)
      : engine_(&engine), process_(&process) {}

  Engine& engine() const { return *engine_; }
  Process& process() const { return *process_; }

  TimePoint now() const;

  /// Advances this process's local time by exactly `d`.  Other events run in
  /// between; wake() calls received while sleeping are remembered.
  void delay(Duration d);

  /// Parks until Process::wake() is called (returns immediately if a wake is
  /// already pending).  Use in a predicate re-check loop.
  void suspend();

  /// Cooperative cancellation: true once the engine asked us to die.
  bool killed() const;

 private:
  Engine* engine_;
  Process* process_;
};

/// Thrown inside a process body when the engine tears it down; the process
/// trampoline catches it.  Do not catch it in user code.
struct ProcessKilled {};

/// A simulated sequential activity (an MPI rank, an OmpSs worker, a device
/// engine).  Created via Engine::spawn(); lifetime managed by the engine.
class Process {
 public:
  enum class State {
    Created,   // spawned, body not yet entered
    Runnable,  // has a resume event queued (or is currently running)
    Sleeping,  // inside delay()
    Waiting,   // inside suspend()
    Finished,  // body returned or threw
  };

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  State state() const { return state_; }
  bool finished() const { return state_ == State::Finished; }

  /// The partition this process lives on (0 unless spawned via spawn_on).
  std::uint32_t partition() const { return partition_; }

  /// Marks this process as a daemon: the simulation is allowed to end while
  /// it is still waiting (it is then torn down gracefully).
  void set_daemon(bool daemon) { daemon_ = daemon; }
  bool daemon() const { return daemon_; }

  /// Delivers a wake-up.  If the process is Waiting it becomes runnable at
  /// the current virtual time; otherwise the wake is latched for its next
  /// suspend().  Safe to call multiple times (wakes collapse).  In a
  /// partitioned run this may only be called from the process's own
  /// partition (or from outside the run); remote partitions deliver wakes
  /// through Engine::schedule_on().
  void wake();

  /// Requests deterministic asynchronous termination: ProcessKilled unwinds
  /// the fiber at its next resume point instead of running user code.  A
  /// Waiting process is resumed (and unwinds) at the current virtual time; a
  /// Sleeping one unwinds when its sleep expires; a Created one never enters
  /// its body.  Used by the resiliency job layer to abort ranks stuck
  /// waiting on dead peers before relaunching from a checkpoint.  Same
  /// partition rules as wake(); no-op on a Finished process.
  void request_kill();

  /// "What am I blocked on" annotation shown by the deadlock report.
  /// Blocking layers (e.g. MPI wait) set it before suspending and clear it
  /// on resume.  Setting stores only `subject`'s address and the formatter
  /// `Format` (a `std::string (*)(const T&)`); the text is built only when
  /// block_note() is read, so a wait that never deadlocks formats nothing.
  /// `subject` must stay alive until the note is cleared or replaced (a
  /// local of the blocked call, or the request it waits on, does).
  template <auto Format, class T>
  void set_block_note(const T& subject) {
    note_subject_ = &subject;
    note_format_ = [](const void* s) {
      return Format(*static_cast<const T*>(s));
    };
  }
  template <auto Format, class T>
  void set_block_note(const T&&) = delete;  // a temporary would dangle
  void clear_block_note() { note_format_ = nullptr; }
  /// The formatted note; empty when none is set.
  std::string block_note() const {
    return note_format_ != nullptr ? note_format_(note_subject_)
                                   : std::string();
  }

 private:
  friend class Engine;
  friend class Context;

  Process(Engine& engine, std::uint64_t id, std::uint32_t partition,
          std::string name, std::function<void(Context&)> body);

  void start_fiber();
  // Scheduler -> process fiber switch; returns when the process yields,
  // finishes, or throws (the exception is re-thrown on the engine side).
  void run_slice();
  // Process -> scheduler fiber switch (called from inside the fiber).
  void yield_to_engine();
  // Fiber entry point: runs the body, records the outcome, never returns.
  static void fiber_entry(void* self);

  Engine& engine_;
  std::uint64_t id_;
  std::uint32_t partition_;
  std::string name_;
  std::function<void(Context&)> body_;

  State state_ = State::Created;
  std::string (*note_format_)(const void*) = nullptr;
  const void* note_subject_ = nullptr;
  bool wake_pending_ = false;
  bool resume_scheduled_ = false;
  bool kill_requested_ = false;
  bool daemon_ = false;

  Fiber fiber_;
  std::exception_ptr error_;
};

/// The discrete-event engine.  Single-partition engines (the default) are
/// strictly single-threaded; partitioned engines run conservative parallel
/// windows across worker threads (see the file comment).
class Engine {
 public:
  /// Event keys reserve the top bits for the partition id; each partition
  /// can issue 2^40 (~10^12) events before overflow.
  static constexpr std::uint32_t kPartitionShift = 40;
  static constexpr std::uint64_t kSeqMask =
      (std::uint64_t{1} << kPartitionShift) - 1;
  static constexpr std::uint32_t kMaxPartitions = util::kMaxLanes;

  // Out of line: members reference the engine-internal ParallelState, which
  // is incomplete here (sim/parallel.hpp).
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// The current virtual time: the executing partition's clock from inside a
  /// run, the last committed time outside one.
  TimePoint now() const {
    return t_exec_.engine == this ? t_exec_.part->now : part0_.now;
  }

  /// Schedules `fn` to run at absolute time `t` (>= now) on the current
  /// partition (partition 0 when called from outside a run).  Any nullary
  /// callable works; captures up to 48 bytes are stored without allocating.
  void schedule_at(TimePoint t, EventFn fn);
  /// Schedules `fn` to run `d` from now.
  void schedule_in(Duration d, EventFn fn);

  /// Schedules `fn` at `t` on partition `p`.  From inside a partitioned run,
  /// a cross-partition target requires t >= the destination's current safe
  /// horizon — guaranteed by construction when the delay is at least the
  /// (src, dst) pair lookahead.
  void schedule_on(std::uint32_t p, TimePoint t, EventFn fn);

  /// Like schedule_on, but clamps `t` up to the destination's current safe
  /// horizon, so the call is always legal from any partition.  Use for
  /// bookkeeping that must reach another partition "as soon as safely
  /// possible" (the clamp is deterministic: horizons are a pure function of
  /// the simulation state, never of worker interleaving).
  void schedule_on_after(std::uint32_t p, TimePoint t, EventFn fn);

  /// Creates a process on partition 0 (or, from inside a process, on the
  /// calling partition); its body starts executing at the current time.  The
  /// returned reference stays valid for the lifetime of the engine.
  Process& spawn(std::string name, std::function<void(Context&)> body);

  /// Creates a process pinned to partition `p`.  From inside a partitioned
  /// run, only same-partition spawns are allowed.
  Process& spawn_on(std::uint32_t p, std::string name,
                    std::function<void(Context&)> body);

  /// Runs until the event queue is empty.  Throws SimError on deadlock
  /// (non-daemon processes still waiting with no pending events) and
  /// propagates the first exception escaping any process body.
  void run();

  /// Runs until `t` (events at exactly `t` included); returns true if events
  /// remain afterwards.  If the queue drains before `t`, performs the same
  /// deadlock detection as run() (throws SimError when non-daemon processes
  /// are stuck) but leaves daemons alive so the caller can keep scheduling.
  bool run_until(TimePoint t);

  // -- partitioning -----------------------------------------------------------

  /// Splits the simulation into `count` partitions (>= 1).  Must be called
  /// on an empty engine (no processes, no scheduled events).  With count 1
  /// (the default) the engine behaves exactly as the historical serial
  /// engine regardless of the worker setting.
  void set_partitions(std::uint32_t count);
  std::uint32_t partitions() const {
    return 1 + static_cast<std::uint32_t>(extra_.size());
  }

  /// Number of worker threads for partitioned runs (default 1: all
  /// partitions execute on the calling thread, same windowed schedule).
  /// Values above the partition count are clamped.  The produced simulation
  /// — traces, metrics, results — is identical for every worker count.
  void set_workers(std::uint32_t workers);
  std::uint32_t workers() const { return workers_; }

  /// The global conservative lookahead: the minimum virtual-time distance
  /// any cross-partition interaction travels.  Acts as the default for
  /// every (src, dst) pair not set explicitly below.  Some positive
  /// lookahead (global or per-pair) is required for every ordered pair
  /// before running a multi-partition engine; ignored otherwise.
  void set_lookahead(Duration lookahead);
  Duration lookahead() const { return lookahead_; }

  /// Per-pair lookahead: the minimum virtual latency of any channel from
  /// partition `src` into partition `dst` (use kUnconstrainedLookahead when
  /// the pair shares no channel).  Overrides the global default for that
  /// ordered pair.  net::install_pair_lookahead() derives the full matrix
  /// from the fabrics' route structure.
  void set_lookahead(std::uint32_t src, std::uint32_t dst, Duration lookahead);

  /// Effective lookahead for an ordered pair: the explicit pair entry if
  /// set, else the global default (Duration{0} when neither is configured).
  Duration lookahead(std::uint32_t src, std::uint32_t dst) const;

  /// Enables wall-clock instruments (per-worker sim.barrier_wait_ns
  /// histograms).  Off by default because wall-clock values are not
  /// deterministic; purely virtual instruments (sim.windows,
  /// sim.solo_windows, sim.window_events) are always recorded.
  void set_wallclock_metrics(bool on) { wallclock_metrics_ = on; }
  bool wallclock_metrics() const { return wallclock_metrics_; }

  /// True while this thread executes a window of a partitioned run (any
  /// engine's).  Serial runs and threads outside a run see false.
  static bool in_partition_window() { return t_exec_.engine != nullptr; }

  /// The partition whose events this thread is currently executing
  /// (0 outside a run).
  std::uint32_t current_partition() const {
    return t_exec_.engine == this ? t_exec_.part->id : 0;
  }

  std::size_t num_processes() const { return processes_.size(); }
  std::size_t events_executed() const;

  /// Sets the stack size for process fibers (rounded up to a page).  Must be
  /// called before the first spawn().  Default: 256 KiB, committed lazily.
  void set_fiber_stack_size(std::size_t bytes);
  std::size_t fiber_stack_size() const { return stack_pool_.stack_size(); }

  /// Attaches (or detaches, with nullptr) an execution tracer.  The engine
  /// does not own it; instrumented layers record spans when one is present.
  /// In partitioned runs the engine interposes per-partition buffers and
  /// commits records to this tracer in canonical order at window barriers.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const {
    return t_exec_.engine == this ? t_exec_.part->active_tracer : tracer_;
  }

  /// Attaches (or detaches, with nullptr) a metrics registry.  The engine
  /// does not own it.  Attach *before* constructing the instrumented layers:
  /// they register their handles at construction time and a layer built
  /// against a detached engine records nothing (same contract as Tracer).
  void set_metrics(obs::Registry* metrics);
  obs::Registry* metrics() const { return metrics_; }

 private:
  friend class Process;
  friend class Context;

  /// One partition: an independently sequenced event stream plus the
  /// scheduler-side fiber anchor for the thread executing it.  Partition 0
  /// doubles as the serial engine's state, so single-partition runs are
  /// bit-identical to the historical engine.
  struct Partition {
    std::uint32_t id = 0;
    EventQueue queue;
    TimePoint now{};
    std::uint64_t next_seq = 0;       // local; tagged with `id` into the key
    std::uint64_t next_local_pid = 0; // local process numbering
    std::size_t events_executed = 0;
    std::uint64_t cur_key = 0;        // key of the event being dispatched
    std::uint64_t trace_emit = 0;     // per-partition trace record counter
    TimePoint limit{};                // exclusive window end (parallel runs)
    Fiber sched_fiber;                // switch anchor while executing here
    Tracer* active_tracer = nullptr;  // buffer tracer during parallel runs
    std::exception_ptr error;         // first escaped exception this window

    std::uint64_t make_key() {
      DEEP_ASSERT(next_seq <= kSeqMask, "Engine: partition sequence overflow");
      return (static_cast<std::uint64_t>(id) << kPartitionShift) | next_seq++;
    }
  };

  /// Which (engine, partition) the calling thread is executing for.  Unset
  /// on threads outside a run and during serial runs — both resolve to
  /// partition 0 state without any synchronisation.
  struct ExecTls {
    Engine* engine = nullptr;
    Partition* part = nullptr;
  };
  // Read it by name, never through a reference or pointer: UBSan would
  // null-check the thread-local's address, and GCC 12 miscompiles that
  // check (it rewrites the flag-setting `add %fs:0` into `mov` + `lea` and
  // branches on stale flags), so a serial run reported a null reference.
  // constinit lets other translation units address it without a TLS
  // wrapper call.
  static constinit thread_local ExecTls t_exec_;

  /// RAII entry into a partition's execution context: publishes the TLS
  /// pointer and switches the metrics lane.
  struct ExecScope {
    ExecScope(Engine* engine, Partition* part)
        : saved_(t_exec_), lane_(part->id) {
      t_exec_ = ExecTls{engine, part};
    }
    ~ExecScope() { t_exec_ = saved_; }
    ExecScope(const ExecScope&) = delete;
    ExecScope& operator=(const ExecScope&) = delete;

   private:
    ExecTls saved_;
    util::LaneGuard lane_;
  };

  struct ParallelState;  // cross-partition rings, buffers, worker threads

  Partition& partition(std::uint32_t p) {
    DEEP_EXPECT(p < partitions(), "Engine: partition index out of range");
    return p == 0 ? part0_ : *extra_[p - 1];
  }
  Partition& cur_part() {
    return t_exec_.engine == this ? *t_exec_.part : part0_;
  }
  Fiber& cur_sched() { return cur_part().sched_fiber; }

  void dispatch_one(Partition& part);
  void schedule_local(Partition& part, TimePoint t, EventFn fn);
  void schedule_resume(Process& p);
  void schedule_process(Partition& part, TimePoint t, EventKind kind,
                        Process& p);
  void check_deadlock_or_finish();
  void kill_all_unfinished();
  std::vector<Process*> processes_by_id() const;

  FiberStack acquire_stack();
  void release_stack(FiberStack stack);

  // Windowed parallel execution (sim/parallel.cpp).  Returns true if events
  // remain past `limit` (bounded mode only).
  bool run_windowed(TimePoint limit, bool bounded);
  void exec_partition_window(Partition& part);

  // Declared before part0_/extra_ so it is destroyed after them: finishing
  // fibers hand their stacks back to the pool during engine teardown.
  FiberStackPool stack_pool_;
  std::mutex stack_mu_;  // spawn/finish may race across partitions
  std::mutex spawn_mu_;  // guards processes_ growth during parallel runs
  Partition part0_;
  std::vector<std::unique_ptr<Partition>> extra_;
  std::unique_ptr<ParallelState> par_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::uint32_t workers_ = 1;
  Duration lookahead_{};
  std::vector<std::int64_t> pair_la_;  // (src, dst) overrides, -1 = unset
  bool wallclock_metrics_ = false;
  bool running_ = false;
  bool parallel_run_ = false;  // inside run_windowed (any worker count)
  Tracer* tracer_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  obs::Counter m_events_;          // sim.events
  obs::Counter m_fiber_switches_;  // sim.fiber_switches (process slices run)
  obs::Counter m_stale_resumes_;   // sim.stale_resumes (dropped stale events)
  obs::Counter m_windows_;         // sim.windows (parallel safe windows run)
  obs::Counter m_solo_windows_;    // sim.solo_windows (batched, no barrier)
  obs::Counter m_cross_events_;    // sim.cross_events (partition boundary)
  obs::Gauge m_queue_depth_;       // sim.queue_depth (every 64th dispatch)
  obs::Histogram m_window_events_; // sim.window_events (events per window)
  // Per-worker barrier wait (wall clock); only when set_wallclock_metrics.
  std::vector<obs::Histogram> m_barrier_wait_;
};

inline TimePoint Context::now() const { return engine_->now(); }

}  // namespace deep::sim
