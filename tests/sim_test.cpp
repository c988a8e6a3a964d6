// Unit tests for the discrete-event engine: virtual time, event ordering,
// process scheduling, wake semantics, mailboxes, deadlock detection and
// determinism.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/mailbox.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"

namespace ds = deep::sim;

TEST(Time, ArithmeticAndConversions) {
  const auto d = ds::microseconds(3) + ds::nanoseconds(500);
  EXPECT_EQ(d.ps, 3'500'000);  // 3.5 us in ps
  EXPECT_DOUBLE_EQ(d.micros(), 3.5);
  EXPECT_DOUBLE_EQ((ds::milliseconds(2)).seconds(), 0.002);
  const ds::TimePoint t{0};
  EXPECT_EQ((t + ds::nanoseconds(10)).ps, 10'000);
  EXPECT_EQ(((t + ds::microseconds(5)) - t).ps, ds::microseconds(5).ps);
}

TEST(Time, FromSecondsRoundsUp) {
  // A positive physical duration must never collapse to zero virtual time.
  EXPECT_GT(ds::from_seconds(1e-13).ps, 0);
  EXPECT_EQ(ds::from_seconds(0.0).ps, 0);
  EXPECT_EQ(ds::from_micros(1.0).ps, 1'000'000);
}

TEST(Time, Formatting) {
  EXPECT_EQ(ds::nanoseconds(2).str(), "2.00 ns");
  EXPECT_EQ(ds::microseconds(15).str(), "15.00 us");
  EXPECT_EQ(ds::picoseconds(3).str(), "3 ps");
}

TEST(Engine, EventsRunInTimeOrder) {
  ds::Engine eng;
  std::vector<int> order;
  eng.schedule_in(ds::nanoseconds(30), [&] { order.push_back(3); });
  eng.schedule_in(ds::nanoseconds(10), [&] { order.push_back(1); });
  eng.schedule_in(ds::nanoseconds(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now().ps, ds::nanoseconds(30).ps);
}

TEST(Engine, TieBreakIsFifo) {
  ds::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    eng.schedule_in(ds::nanoseconds(5), [&order, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingInThePastThrows) {
  ds::Engine eng;
  eng.schedule_in(ds::nanoseconds(10), [&] {
    EXPECT_THROW(eng.schedule_at(ds::TimePoint{0}, [] {}), deep::util::UsageError);
  });
  eng.run();
}

TEST(Engine, NestedEventScheduling) {
  ds::Engine eng;
  int fired = 0;
  eng.schedule_in(ds::nanoseconds(1), [&] {
    eng.schedule_in(ds::nanoseconds(1), [&] {
      eng.schedule_in(ds::nanoseconds(1), [&] { ++fired; });
      ++fired;
    });
    ++fired;
  });
  eng.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.now().ps, ds::nanoseconds(3).ps);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  ds::Engine eng;
  int fired = 0;
  eng.schedule_in(ds::nanoseconds(10), [&] { ++fired; });
  eng.schedule_in(ds::nanoseconds(20), [&] { ++fired; });
  const bool more = eng.run_until(ds::TimePoint{} + ds::nanoseconds(15));
  EXPECT_TRUE(more);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now().ps, ds::nanoseconds(15).ps);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Process, DelayAdvancesVirtualTime) {
  ds::Engine eng;
  ds::TimePoint seen{};
  eng.spawn("sleeper", [&](ds::Context& ctx) {
    ctx.delay(ds::microseconds(5));
    ctx.delay(ds::microseconds(7));
    seen = ctx.now();
  });
  eng.run();
  EXPECT_EQ(seen.ps, ds::microseconds(12).ps);
}

TEST(Process, ZeroDelayIsAllowed) {
  ds::Engine eng;
  bool done = false;
  eng.spawn("p", [&](ds::Context& ctx) {
    ctx.delay(ds::Duration{0});
    done = true;
  });
  eng.run();
  EXPECT_TRUE(done);
}

TEST(Process, NegativeDelayThrows) {
  ds::Engine eng;
  eng.spawn("p", [&](ds::Context& ctx) {
    EXPECT_THROW(ctx.delay(ds::Duration{-1}), deep::util::UsageError);
  });
  eng.run();
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  ds::Engine eng;
  std::vector<std::string> trace;
  eng.spawn("a", [&](ds::Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(std::string("a").append(std::to_string(i)));
      ctx.delay(ds::nanoseconds(10));
    }
  });
  eng.spawn("b", [&](ds::Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(std::string("b").append(std::to_string(i)));
      ctx.delay(ds::nanoseconds(10));
    }
  });
  eng.run();
  // Spawn order breaks the tie at every step.
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, WakeBeforeSuspendIsLatched) {
  ds::Engine eng;
  bool resumed = false;
  auto& p = eng.spawn("w", [&](ds::Context& ctx) {
    ctx.delay(ds::nanoseconds(100));  // wake arrives while sleeping
    ctx.suspend();                    // must return immediately
    resumed = true;
  });
  eng.schedule_in(ds::nanoseconds(50), [&] { p.wake(); });
  eng.run();
  EXPECT_TRUE(resumed);
}

TEST(Process, WakeResumesWaitingProcess) {
  ds::Engine eng;
  ds::TimePoint woken{};
  auto& p = eng.spawn("w", [&](ds::Context& ctx) {
    ctx.suspend();
    woken = ctx.now();
  });
  eng.schedule_in(ds::microseconds(3), [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(woken.ps, ds::microseconds(3).ps);
}

TEST(Process, MultipleWakesCollapse) {
  ds::Engine eng;
  int loops = 0;
  auto& p = eng.spawn("w", [&](ds::Context& ctx) {
    ctx.suspend();
    ++loops;
    ctx.suspend();  // second pending wake lets this return, third is collapsed
    ++loops;
  });
  eng.schedule_in(ds::nanoseconds(10), [&] {
    p.wake();
    p.wake();
    p.wake();
  });
  eng.schedule_in(ds::nanoseconds(20), [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(loops, 2);
}

TEST(Process, SleepIsNotCutShortByWake) {
  ds::Engine eng;
  ds::TimePoint end{};
  auto& p = eng.spawn("s", [&](ds::Context& ctx) {
    ctx.delay(ds::microseconds(10));
    end = ctx.now();
    ctx.suspend();  // consumes the latched wake
  });
  eng.schedule_in(ds::microseconds(1), [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(end.ps, ds::microseconds(10).ps);
}

TEST(Process, DeadlockDetected) {
  ds::Engine eng;
  eng.spawn("stuck", [](ds::Context& ctx) { ctx.suspend(); });
  EXPECT_THROW(eng.run(), deep::util::SimError);
}

TEST(Process, DaemonMayOutliveSimulation) {
  ds::Engine eng;
  auto& p = eng.spawn("daemon", [](ds::Context& ctx) {
    for (;;) ctx.suspend();
  });
  p.set_daemon(true);
  eng.spawn("worker", [](ds::Context& ctx) { ctx.delay(ds::microseconds(1)); });
  EXPECT_NO_THROW(eng.run());
}

TEST(Process, ExceptionPropagatesOutOfRun) {
  ds::Engine eng;
  eng.spawn("thrower", [](ds::Context& ctx) {
    ctx.delay(ds::nanoseconds(5));
    throw std::runtime_error("kernel panic");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Process, SpawnFromProcess) {
  ds::Engine eng;
  std::vector<std::string> trace;
  eng.spawn("parent", [&](ds::Context& ctx) {
    trace.push_back("parent");
    ctx.engine().spawn("child", [&](ds::Context& cctx) {
      trace.push_back("child");
      cctx.delay(ds::nanoseconds(1));
      trace.push_back("child-done");
    });
    ctx.delay(ds::nanoseconds(10));
    trace.push_back("parent-done");
  });
  eng.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"parent", "child", "child-done",
                                             "parent-done"}));
}

TEST(Process, ManyProcessesScale) {
  ds::Engine eng;
  int done = 0;
  constexpr int kProcs = 200;
  for (int i = 0; i < kProcs; ++i) {
    eng.spawn(std::string("p").append(std::to_string(i)),
              [&, i](ds::Context& ctx) {
                ctx.delay(ds::nanoseconds(i));
                ++done;
              });
  }
  eng.run();
  EXPECT_EQ(done, kProcs);
}

TEST(Mailbox, PushThenReceive) {
  ds::Engine eng;
  ds::Mailbox<int> box;
  int got = 0;
  eng.spawn("consumer", [&](ds::Context& ctx) { got = box.receive(ctx); });
  eng.schedule_in(ds::nanoseconds(10), [&] { box.push(42); });
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, ReceiveBlocksUntilPush) {
  ds::Engine eng;
  ds::TimePoint got_at{};
  ds::Mailbox<std::string> box;
  eng.spawn("consumer", [&](ds::Context& ctx) {
    EXPECT_EQ(box.receive(ctx), "hello");
    got_at = ctx.now();
  });
  eng.schedule_in(ds::microseconds(2), [&] { box.push("hello"); });
  eng.run();
  EXPECT_EQ(got_at.ps, ds::microseconds(2).ps);
}

TEST(Mailbox, PreservesFifoOrder) {
  ds::Engine eng;
  ds::Mailbox<int> box;
  std::vector<int> got;
  eng.spawn("consumer", [&](ds::Context& ctx) {
    for (int i = 0; i < 5; ++i) got.push_back(box.receive(ctx));
  });
  eng.schedule_in(ds::nanoseconds(1), [&] {
    for (int i = 0; i < 5; ++i) box.push(i);
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mailbox, TryReceive) {
  ds::Engine eng;
  ds::Mailbox<int> box;
  eng.spawn("consumer", [&](ds::Context& ctx) {
    EXPECT_FALSE(box.try_receive(ctx).has_value());
    box.push(9);
    auto v = box.try_receive(ctx);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9);
  });
  eng.run();
}

TEST(Mailbox, SecondConsumerRejected) {
  ds::Engine eng;
  ds::Mailbox<int> box;
  box.push(1);
  eng.spawn("c1", [&](ds::Context& ctx) { box.receive(ctx); });
  eng.spawn("c2", [&](ds::Context& ctx) {
    ctx.delay(ds::nanoseconds(5));
    EXPECT_THROW(box.try_receive(ctx), deep::util::UsageError);
  });
  eng.run();
}

// Determinism: two runs of an identical mixed workload produce identical
// event counts and final times.
TEST(Determinism, IdenticalRunsMatch) {
  auto run_once = [] {
    ds::Engine eng;
    std::vector<std::int64_t> trace;
    ds::Mailbox<int> box;
    eng.spawn("producer", [&](ds::Context& ctx) {
      for (int i = 0; i < 20; ++i) {
        ctx.delay(ds::nanoseconds(7 * (i % 3) + 1));
        box.push(i);
        trace.push_back(ctx.now().ps);
      }
    });
    eng.spawn("consumer", [&](ds::Context& ctx) {
      for (int i = 0; i < 20; ++i) {
        const int v = box.receive(ctx);
        ctx.delay(ds::nanoseconds(v % 5));
        trace.push_back(ctx.now().ps);
      }
    });
    eng.run();
    trace.push_back(static_cast<std::int64_t>(eng.events_executed()));
    trace.push_back(eng.now().ps);
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, RunUntilThenResumeWithProcesses) {
  ds::Engine eng;
  std::vector<int> hits;
  eng.spawn("ticker", [&](ds::Context& ctx) {
    for (int i = 0; i < 5; ++i) {
      ctx.delay(ds::microseconds(10));
      hits.push_back(i);
    }
  });
  eng.run_until(ds::TimePoint{} + ds::microseconds(25));
  EXPECT_EQ(hits.size(), 2u);  // ticks at 10 and 20 us
  eng.run();
  EXPECT_EQ(hits.size(), 5u);
}

TEST(Engine, ExceptionInEventCallbackPropagates) {
  ds::Engine eng;
  eng.schedule_in(ds::nanoseconds(5),
                  [] { throw std::logic_error("event exploded"); });
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, ProcessCleanupRunsDestructorsOnKill) {
  // A daemon still waiting at simulation end must unwind its stack.
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    ds::Engine eng;
    auto& p = eng.spawn("daemon", [&](ds::Context& ctx) {
      Sentinel s{&destroyed};
      for (;;) ctx.suspend();
    });
    p.set_daemon(true);
    eng.spawn("worker", [](ds::Context& ctx) { ctx.delay(ds::nanoseconds(1)); });
    eng.run();
  }
  EXPECT_TRUE(destroyed);
}

TEST(Engine, EventsExecutedCounts) {
  ds::Engine eng;
  for (int i = 0; i < 7; ++i) eng.schedule_in(ds::nanoseconds(i), [] {});
  eng.run();
  EXPECT_EQ(eng.events_executed(), 7u);
}

// --- Fiber-scheduler regressions: run_until deadlock parity -----------------

TEST(Engine, RunUntilDetectsDeadlock) {
  // run_until must report stuck processes exactly like run() once the event
  // queue drains (it used to return silently, hiding the deadlock).
  ds::Engine eng;
  eng.spawn("stuck", [](ds::Context& ctx) { ctx.suspend(); });
  eng.schedule_in(ds::nanoseconds(10), [] {});
  EXPECT_THROW(eng.run_until(ds::TimePoint{} + ds::microseconds(1)),
               deep::util::SimError);
}

TEST(Engine, RunUntilNoDeadlockWhileEventsRemain) {
  // A waiting process is not stuck while events remain beyond the horizon.
  ds::Engine eng;
  auto& p = eng.spawn("waiter", [](ds::Context& ctx) { ctx.suspend(); });
  eng.schedule_in(ds::microseconds(10), [&] { p.wake(); });
  EXPECT_TRUE(eng.run_until(ds::TimePoint{} + ds::microseconds(1)));
  EXPECT_NO_THROW(eng.run());
  EXPECT_TRUE(p.finished());
}

TEST(Engine, RunUntilLeavesDaemonsAlive) {
  // Unlike run(), a drained run_until keeps daemons runnable so the caller
  // can schedule more work and continue the simulation.
  ds::Engine eng;
  int served = 0;
  auto& d = eng.spawn("daemon", [&](ds::Context& ctx) {
    for (;;) {
      ctx.suspend();
      ++served;
    }
  });
  d.set_daemon(true);
  eng.schedule_in(ds::nanoseconds(5), [&] { d.wake(); });
  EXPECT_FALSE(eng.run_until(ds::TimePoint{} + ds::microseconds(1)));
  EXPECT_EQ(served, 1);
  EXPECT_FALSE(d.finished());
  eng.schedule_in(ds::nanoseconds(5), [&] { d.wake(); });
  EXPECT_FALSE(eng.run_until(ds::TimePoint{} + ds::microseconds(2)));
  EXPECT_EQ(served, 2);
}

// --- Wake-during-sleep collapse semantics -----------------------------------

TEST(Process, WakeDuringSleepLatchesWithoutStaleResume) {
  // A wake() delivered while Sleeping is latched: it never shortens the
  // sleep, it satisfies exactly one subsequent suspend(), and it must not
  // leave a stale resume event that would let a later suspend() fall
  // through early.
  ds::Engine eng;
  ds::TimePoint after_sleep{}, after_first_suspend{}, after_second_suspend{};
  auto& p = eng.spawn("s", [&](ds::Context& ctx) {
    ctx.delay(ds::nanoseconds(100));
    after_sleep = ctx.now();
    ctx.suspend();  // consumes the wake latched at t=50
    after_first_suspend = ctx.now();
    ctx.suspend();  // must block until the explicit wake at t=200
    after_second_suspend = ctx.now();
  });
  eng.schedule_in(ds::nanoseconds(50), [&] { p.wake(); });
  eng.schedule_in(ds::nanoseconds(200), [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(after_sleep.ps, ds::nanoseconds(100).ps);
  EXPECT_EQ(after_first_suspend.ps, ds::nanoseconds(100).ps);
  EXPECT_EQ(after_second_suspend.ps, ds::nanoseconds(200).ps);
}

TEST(Process, MultipleWakesDuringSleepCollapseToOne) {
  ds::Engine eng;
  ds::TimePoint second_suspend_at{};
  auto& p = eng.spawn("s", [&](ds::Context& ctx) {
    ctx.delay(ds::nanoseconds(100));
    ctx.suspend();  // all wakes delivered during the sleep collapse into one
    ctx.suspend();  // so this must wait for the wake at t=300
    second_suspend_at = ctx.now();
  });
  eng.schedule_in(ds::nanoseconds(20), [&] { p.wake(); });
  eng.schedule_in(ds::nanoseconds(40), [&] { p.wake(); });
  eng.schedule_in(ds::nanoseconds(60), [&] { p.wake(); });
  eng.schedule_in(ds::nanoseconds(300), [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(second_suspend_at.ps, ds::nanoseconds(300).ps);
}

// --- Teardown: kill mid-primitive unwinds the fiber stack -------------------

namespace {
struct Sentinel {
  bool* flag;
  ~Sentinel() { *flag = true; }
};
}  // namespace

TEST(Engine, KillDuringSleepUnwindsStack) {
  bool destroyed = false;
  {
    ds::Engine eng;
    eng.spawn("sleeper", [&](ds::Context& ctx) {
      Sentinel s{&destroyed};
      ctx.delay(ds::milliseconds(10));
    });
    eng.run_until(ds::TimePoint{} + ds::microseconds(1));
    EXPECT_FALSE(destroyed);  // still parked inside delay()
  }  // engine destruction kills the sleeping process
  EXPECT_TRUE(destroyed);
}

TEST(Engine, KillDuringSuspendUnwindsStack) {
  bool destroyed = false;
  {
    ds::Engine eng;
    auto& p = eng.spawn("waiter", [&](ds::Context& ctx) {
      Sentinel s{&destroyed};
      ctx.suspend();
    });
    p.set_daemon(true);  // waiting with an empty queue is legitimate for it
    eng.run_until(ds::TimePoint{} + ds::microseconds(1));
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST(Engine, KillBeforeFirstSliceSkipsBody) {
  // A process spawned but never dispatched must not run its body at all.
  bool ran = false;
  {
    ds::Engine eng;
    eng.spawn("never", [&](ds::Context&) { ran = true; });
  }  // destroyed before any event dispatch
  EXPECT_FALSE(ran);
}

// --- Exceptions out of fiber bodies -----------------------------------------

TEST(Process, ExceptionAfterWakeResumePropagates) {
  ds::Engine eng;
  auto& p = eng.spawn("thrower", [](ds::Context& ctx) {
    ctx.suspend();
    throw std::runtime_error("woke up angry");
  });
  eng.schedule_in(ds::nanoseconds(10), [&] { p.wake(); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

// --- Scale: ten thousand concurrent fibers ----------------------------------

TEST(Scale, TenThousandProcessesSpawnAndFinish) {
  // Thread-per-process made this impossible (OS thread limits); with fibers
  // 10k concurrent processes are routine.
  ds::Engine eng;
  constexpr int kProcs = 10'000;
  int done = 0;
  for (int i = 0; i < kProcs; ++i) {
    eng.spawn("p", [&, i](ds::Context& ctx) {
      ctx.delay(ds::nanoseconds(i % 97));
      ctx.delay(ds::nanoseconds((i * 31) % 89));
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, kProcs);
  EXPECT_EQ(eng.num_processes(), static_cast<std::size_t>(kProcs));
}

// --- Fiber: the raw switch, without the engine ------------------------------

// A fiber driven by hand.  resume() switches in from the caller's own
// context; the body switches back with yield(), and its end returns the
// stack to the pool.
struct HandFiber {
  explicit HandFiber(std::function<void(HandFiber&)> b) : body(std::move(b)) {
    fiber.create(ds::FiberStackPool::acquire(), &HandFiber::entry, this);
  }
  void resume(ds::Fiber& from) {
    anchor = &from;
    ds::Fiber::switch_to(from, fiber);
    if (done) ds::FiberStackPool::release(fiber.take_stack());
  }
  void yield() { ds::Fiber::switch_to(fiber, *anchor); }
  static void entry(void* self) {
    auto& f = *static_cast<HandFiber*>(self);
    f.body(f);
    f.done = true;
    ds::Fiber::switch_to(f.fiber, *f.anchor, /*terminating=*/true);
  }

  std::function<void(HandFiber&)> body;
  ds::Fiber fiber;
  ds::Fiber* anchor = nullptr;  // the context that resumed `fiber` last
  bool done = false;
};

struct FrameProbe {
  ds::Fiber anchor;
  ds::Fiber fiber;
  ds::FiberStack stack;
  std::uintptr_t frame = 0;
  int links = -1;  // frame-pointer links up to the null one; -1: none found
};

// Called directly by the fiber's start code, so the frame-pointer chain holds
// this frame, at most the start code's, then the null link of the entry
// frame.  The walk never leaves the fiber's stack.
void probe_entry_frame(void* arg) {
  auto& p = *static_cast<FrameProbe*>(arg);
  auto* fp = static_cast<void* const*>(__builtin_frame_address(0));
  p.frame = reinterpret_cast<std::uintptr_t>(fp);
  const auto lo = reinterpret_cast<std::uintptr_t>(p.stack.base);
  const auto hi = lo + p.stack.size;
  for (int links = 1; links <= 8; ++links) {
    const auto at = reinterpret_cast<std::uintptr_t>(fp);
    if (at < lo || at + sizeof(void*) > hi) break;
    fp = static_cast<void* const*>(*fp);
    if (fp == nullptr) {
      p.links = links;
      break;
    }
  }
  ds::Fiber::switch_to(p.fiber, p.anchor, /*terminating=*/true);
}

TEST(Fiber, EntryFrameIsAlignedAndEndsTheFramePointerChain) {
  FrameProbe p;
  p.stack = ds::FiberStackPool::acquire();
  p.fiber.create(p.stack, &probe_entry_frame, &p);
  ds::Fiber::switch_to(p.anchor, p.fiber);
  ds::FiberStackPool::release(p.fiber.take_stack());
  EXPECT_EQ(p.frame % 16, 0u);
  EXPECT_GE(p.links, 1);
  EXPECT_LE(p.links, 2);
}

TEST(Fiber, ResumedOnAnotherThreadKeepsItsLocals) {
  constexpr std::uint64_t kMix = 0x9E3779B97F4A7C15ull;
  bool locals_kept = false;
  HandFiber f([&](HandFiber& self) {
    std::array<std::uint64_t, 64> local{};
    for (std::size_t i = 0; i < local.size(); ++i) local[i] = i * kMix;
    self.yield();  // resumed by another thread
    bool same = true;
    for (std::size_t i = 0; i < local.size(); ++i) same = same && local[i] == i * kMix;
    locals_kept = same;
  });
  // The first thread ends before the second starts.
  std::thread([&] {
    ds::Fiber anchor;
    f.resume(anchor);
  }).join();
  EXPECT_FALSE(f.done);
  std::thread([&] {
    ds::Fiber anchor;
    f.resume(anchor);
  }).join();
  EXPECT_TRUE(f.done);
  EXPECT_TRUE(locals_kept);
}

TEST(Fiber, ExceptionCaughtAcrossASuspendLeavesBothContextsRunning) {
  std::vector<std::string> log;
  HandFiber f([&](HandFiber& self) {
    try {
      self.yield();
      throw std::runtime_error("fiber");
    } catch (const std::runtime_error& e) {
      log.push_back(std::string("caught ") + e.what());
      self.yield();  // suspended inside the handler
      log.push_back("handler resumed");
    }
    self.yield();
    log.push_back("fiber done");
  });
  ds::Fiber anchor;
  f.resume(anchor);
  try {
    throw std::runtime_error("anchor");
  } catch (const std::runtime_error& e) {
    log.push_back(std::string("caught ") + e.what());
  }
  f.resume(anchor);  // the fiber throws, catches and suspends in its handler
  try {
    throw std::logic_error("anchor again");
  } catch (const std::logic_error& e) {
    log.push_back(std::string("caught ") + e.what());
  }
  f.resume(anchor);
  f.resume(anchor);
  EXPECT_TRUE(f.done);
  EXPECT_EQ(log, (std::vector<std::string>{
                     "caught anchor", "caught fiber", "caught anchor again",
                     "handler resumed", "fiber done"}));
}

// --- Determinism including trace output -------------------------------------

TEST(Determinism, EventCountsAndTraceIdenticalAcrossRuns) {
  auto run_once = [](std::size_t& events, std::string& trace_json) {
    ds::Engine eng;
    ds::Tracer tracer;
    eng.set_tracer(&tracer);
    ds::Mailbox<int> box;
    eng.spawn("producer", [&](ds::Context& ctx) {
      for (int i = 0; i < 30; ++i) {
        const auto begin = ctx.now();
        ctx.delay(ds::nanoseconds(3 * (i % 5) + 1));
        box.push(i);
        tracer.span("producer", "burst", begin, ctx.now());
      }
    });
    eng.spawn("consumer", [&](ds::Context& ctx) {
      for (int i = 0; i < 30; ++i) {
        const int v = box.receive(ctx);
        ctx.delay(ds::nanoseconds(v % 7));
        tracer.instant("consumer", "got", ctx.now());
      }
    });
    eng.run();
    events = eng.events_executed();
    trace_json = tracer.to_chrome_json();
  };
  std::size_t events_a = 0, events_b = 0;
  std::string trace_a, trace_b;
  run_once(events_a, trace_a);
  run_once(events_b, trace_b);
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(trace_a, trace_b);
}

// --- Event-path details: SBO callbacks and the stack-size knob --------------

TEST(Engine, LargeCaptureCallbacksWork) {
  // Captures beyond EventFn's 48-byte inline buffer take the heap fallback;
  // both paths must execute and destroy correctly.
  ds::Engine eng;
  std::array<std::int64_t, 12> big{};
  big.fill(7);
  std::int64_t sum = 0;
  eng.schedule_in(ds::nanoseconds(1), [big, &sum] {
    for (auto v : big) sum += v;
  });
  std::vector<int> payload(1000, 1);
  eng.schedule_in(ds::nanoseconds(2), [payload, &sum] {
    sum += static_cast<std::int64_t>(payload.size());
  });
  eng.run();
  EXPECT_EQ(sum, 12 * 7 + 1000);
}

TEST(Process, StateTransitionsVisible) {
  ds::Engine eng;
  auto& p = eng.spawn("p", [](ds::Context& ctx) { ctx.delay(ds::nanoseconds(5)); });
  EXPECT_EQ(p.state(), ds::Process::State::Runnable);
  eng.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.name(), "p");
  p.wake();  // waking a finished process is a harmless no-op
}
