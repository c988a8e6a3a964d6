#pragma once
// Host kernels: a process's real arithmetic, overlapped with its modelled
// compute time (docs/perf.md, "Overlapped kernels").
//
// A rank that burns roofline time for a kernel whose result nothing reads
// before that time has passed (a Jacobi sweep, an n-body force pass) can
// hand the arithmetic to a HostKernel.  The kernel either runs at once, on
// the calling thread, or goes to one process-wide pool of
// hardware_concurrency() - 1 host threads, created on first use; the
// process then sleeps through its modelled delay while the engine runs
// other ranks, and join() waits for the kernel when the process resumes.
// A kernel still unclaimed at the join runs there, inline.
//
// Kernels are pure per-rank arithmetic: they read and write only their own
// rank's buffers and touch no engine, metrics or fabric state.  So event
// order, virtual time, every instrument and every result are the same on
// either path; only host time changes.
//
// When to offload: only while the engine's backlog of kernels started and
// not yet joined is at least kOffloadBacklog.  Below it the kernel runs at
// once, exactly as a plain call would.  Waking an idle host thread costs
// tens of microseconds on a shared VM, more than a small, cache-hot kernel
// takes; only a deep backlog keeps a woken thread busy long enough to pay
// for the wake-up.  The backlog counts one engine's kernels, so a job
// whose ranks never number more than kOffloadBacklog runs inline however
// many such jobs share the host.
//
// Joins and failures: join() rethrows an exception the kernel threw, on
// either path, so a failing kernel surfaces from the same call at the same
// virtual time wherever it ran.  The destructor joins too, without
// rethrowing: a process killed or torn down in its delay (ProcessKilled
// unwinds the fiber) drops a kernel still queued and waits for one already
// running, before the unwinding frees the buffers it works on.
//
// Forked children: a fork() copies the pool's memory but not its threads,
// and possibly a mutex that one of them held.  A forked child therefore
// never touches the pool; every kernel it starts runs inline.

#include <atomic>
#include <cstdint>
#include <exception>

namespace deep::sim {

class Engine;
class HostKernelPool;

class HostKernel {
 public:
  /// An engine offloads only while this many of its kernels are started
  /// and not yet joined.
  static constexpr int kOffloadBacklog = 6;

  /// Starts `kernel` (a nullary callable, which must outlive the join) on
  /// behalf of a process of `engine`.
  template <class F>
  HostKernel(Engine& engine, F& kernel)
      : HostKernel(engine, &call<F>,
                   const_cast<void*>(static_cast<const void*>(&kernel))) {}
  HostKernel(Engine& engine, void (*run)(void*), void* arg);
  /// Joins a kernel not joined yet, dropping it if no thread claimed it,
  /// and swallows its exception.
  ~HostKernel();
  HostKernel(const HostKernel&) = delete;
  HostKernel& operator=(const HostKernel&) = delete;

  /// Waits for the kernel (running it here if no thread has claimed it)
  /// and rethrows its exception, if any.  Call once.
  void join();

  /// Kernels handed to the pool in this process, for tests.  Not an engine
  /// instrument: it depends on the host's CPU count and on other engines
  /// in the process, and enters no snapshot.
  static std::uint64_t offloaded();

 private:
  friend class HostKernelPool;
  enum class State : std::uint8_t { Done, Queued, Running };

  template <class F>
  static void call(void* kernel) {
    (*static_cast<F*>(kernel))();
  }
  /// Runs the kernel on this thread, keeping its exception for join().
  void run_here() noexcept;
  /// Ends the kernel's share of the backlog; `drop` skips an unclaimed one.
  void finish(bool drop);

  void (*run_)(void*);
  void* arg_;
  std::atomic<int>* backlog_;  // the engine's; null once joined
  HostKernelPool* pool_ = nullptr;  // set when offloaded
  State state_ = State::Done;  // guarded by the pool's mutex
  std::exception_ptr error_;
  HostKernel* next_ = nullptr;  // the pool's queue links
  HostKernel* prev_ = nullptr;
};

}  // namespace deep::sim
