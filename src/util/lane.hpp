#pragma once
// Execution-lane and session identity for the simulation runtime.
//
// A *lane* names the partition a thread is currently executing on behalf of
// (docs/parallel_engine.md).  The engine sets the lane when a worker enters
// a partition's event window; lane-aware facilities — the obs::Registry's
// per-lane metric cells and the net pool arenas — key their storage off it
// so concurrent partitions never touch each other's mutable state.
//
// Lane 0 is the default for every thread, including the main thread of a
// plain serial simulation, so single-partition runs behave exactly as if
// lanes did not exist.
//
// A *session* names an independent simulation living in the same process
// (docs/service.md).  Lanes isolate the partitions of ONE engine from each
// other; sessions isolate whole engines: the net pool arenas key their
// storage off (session, lane), so two DeepSystems running concurrently on
// different threads never share a free list.  Session 0 is the default for
// every thread — one-shot CLI runs, tests and benches behave exactly as if
// sessions did not exist.  The service layer claims a SessionSlot per
// concurrently-running job and installs it (SessionGuard) around the job's
// whole system lifetime: construction, run and teardown all resolve pools
// through the same shard.

#include <pthread.h>

#include <cstdint>
#include <mutex>

namespace deep::util {

/// Maximum number of execution lanes (engine partitions) supported by the
/// lane-indexed facilities.  Small by design: lanes map to worker-executed
/// partitions, not to simulated entities.
inline constexpr std::uint32_t kMaxLanes = 64;

/// Maximum number of concurrent in-process sessions (slot 0 is the default
/// session; slots 1..kMaxSessions-1 are claimable via SessionSlot).
inline constexpr std::uint32_t kMaxSessions = 16;

namespace detail {
inline thread_local std::uint32_t t_exec_lane = 0;
inline thread_local std::uint32_t t_exec_session = 0;
}  // namespace detail

/// The lane this thread currently executes on behalf of (0 by default).
inline std::uint32_t exec_lane() noexcept { return detail::t_exec_lane; }

/// Sets this thread's lane.  Called by the engine's partition executor; user
/// code never needs it.
inline void set_exec_lane(std::uint32_t lane) noexcept {
  detail::t_exec_lane = lane;
}

/// The session this thread currently executes on behalf of (0 by default).
inline std::uint32_t exec_session() noexcept { return detail::t_exec_session; }

/// Sets this thread's session.  Engine worker threads inherit the session of
/// the thread that launched the run; user code uses SessionGuard instead.
inline void set_exec_session(std::uint32_t session) noexcept {
  detail::t_exec_session = session;
}

/// The shard index combining this thread's session and lane — the key the
/// pool slot tables use.  Distinct sessions get disjoint shard ranges, so a
/// facility indexed by pool_shard() is automatically session-isolated.
inline std::uint32_t pool_shard() noexcept {
  return detail::t_exec_session * kMaxLanes + detail::t_exec_lane;
}

/// RAII lane switch (exception-safe restore).
class LaneGuard {
 public:
  explicit LaneGuard(std::uint32_t lane) noexcept : prev_(exec_lane()) {
    set_exec_lane(lane);
  }
  ~LaneGuard() { set_exec_lane(prev_); }
  LaneGuard(const LaneGuard&) = delete;
  LaneGuard& operator=(const LaneGuard&) = delete;

 private:
  std::uint32_t prev_;
};

/// RAII session switch (exception-safe restore).  Install around the WHOLE
/// lifetime of the session's engine/system: every pool acquire and release
/// must resolve through the same shard.
class SessionGuard {
 public:
  explicit SessionGuard(std::uint32_t session) noexcept
      : prev_(exec_session()) {
    set_exec_session(session);
  }
  ~SessionGuard() { set_exec_session(prev_); }
  SessionGuard(const SessionGuard&) = delete;
  SessionGuard& operator=(const SessionGuard&) = delete;

 private:
  std::uint32_t prev_;
};

namespace detail {
struct SessionSlots;
inline SessionSlots& session_slots();
struct SessionSlots {
  // Held across fork(): a service may fork a job while another thread
  // claims a slot, and the child must not inherit the lock held.
  SessionSlots() {
    pthread_atfork([] { session_slots().mu.lock(); },
                   [] { session_slots().mu.unlock(); },
                   [] { session_slots().mu.unlock(); });
  }
  std::mutex mu;
  bool used[kMaxSessions] = {};
};
inline SessionSlots& session_slots() {
  static SessionSlots slots;  // slot 0 (the default session) is never handed out
  return slots;
}
}  // namespace detail

/// Claims a process-unique session slot in [1, kMaxSessions) for the
/// lifetime of this object.  Acquisition fails (ok() == false) when every
/// slot is taken; callers bound their concurrency — the service clamps its
/// worker count below kMaxSessions — so exhaustion indicates misuse.
class SessionSlot {
 public:
  SessionSlot() {
    detail::SessionSlots& s = detail::session_slots();
    std::lock_guard<std::mutex> lock(s.mu);
    for (std::uint32_t i = 1; i < kMaxSessions; ++i) {
      if (!s.used[i]) {
        s.used[i] = true;
        slot_ = i;
        return;
      }
    }
  }
  ~SessionSlot() {
    if (slot_ == 0) return;
    detail::SessionSlots& s = detail::session_slots();
    std::lock_guard<std::mutex> lock(s.mu);
    s.used[slot_] = false;
  }
  SessionSlot(const SessionSlot&) = delete;
  SessionSlot& operator=(const SessionSlot&) = delete;

  /// False when every slot was taken (caller exceeded kMaxSessions - 1
  /// concurrent sessions); the slot then aliases the default session 0.
  bool ok() const noexcept { return slot_ != 0; }
  std::uint32_t slot() const noexcept { return slot_; }

 private:
  std::uint32_t slot_ = 0;
};

}  // namespace deep::util
