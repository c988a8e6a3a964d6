// Resiliency tests: multi-level checkpoint/restart under node-kill chaos.
//
// Layered like the stack itself:
//   1. Unit tests — NVM device timing/capacity, the engine's request_kill
//      primitive, IoNet request/reply/retry/failure, parallel-FS striping,
//      checkpoint Store bookkeeping and the restart-plan policy, buddy
//      placement, node-death invalidation.
//   2. Crafted scenarios — a booster node dies and the job rolls back; both
//      holders of a rank's L1+L2 copies die and only the L3 (parallel FS)
//      copy saves the run; a kill before the first checkpoint forces a
//      scratch restart.  Completed faulted runs must produce results
//      EXACTLY equal (==, bit-level) to a fault-free run: restored state is
//      a memcpy image, so replay is bit-exact.
//   3. The 32-seed chaos sweep x {stencil, spmv}: every seeded kill
//      schedule heals, so every run must complete, match the fault-free
//      result bits, and replay byte-identically (trace + metrics JSON).
//   4. The pay-for-what-you-use property: an inert checkpoint manager is
//      byte-invisible next to no manager at all.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cbp/transport.hpp"
#include "ckpt/checkpoint.hpp"
#include "hw/node.hpp"
#include "hw/nvm.hpp"
#include "io/fs.hpp"
#include "io/ionet.hpp"
#include "net/crossbar.hpp"
#include "sim/engine.hpp"

#include "resiliency_rig.hpp"

namespace deep {
namespace {

using testing::make_kill_spec;
using testing::ResiliencyConfig;
using testing::ResiliencyOutcome;
using testing::ResiliencyWorkload;
using testing::run_resiliency;

constexpr std::int64_t kUs = 1'000'000;  // picoseconds per microsecond
constexpr int kSweepSeeds = 32;

// ---------------------------------------------------------------------------
// NVM device
// ---------------------------------------------------------------------------

TEST(Nvm, AccessTimeIsLatencyPlusBandwidth) {
  hw::NvmDevice dev(hw::node_nvm());
  const auto& spec = dev.spec();
  const sim::Duration lat_only = dev.access_time(0, true);
  EXPECT_EQ(lat_only.ps,
            sim::from_seconds(spec.access_latency_us * 1e-6).ps);
  // One MiB write: latency + bytes over write bandwidth, rounded up.
  const std::int64_t mb = 1 << 20;
  const sim::Duration w = dev.access_time(mb, true);
  const sim::Duration expect = sim::from_seconds(
      spec.access_latency_us * 1e-6 +
      static_cast<double>(mb) / spec.write_bw_bytes_per_sec);
  EXPECT_EQ(w.ps, expect.ps);
  // Reads use the (faster) read bandwidth.
  EXPECT_LT(dev.access_time(mb, false).ps, w.ps);
}

TEST(Nvm, ReservationsSerialize) {
  hw::NvmDevice dev(hw::storage_target_nvm());
  const std::int64_t bytes = 4 << 20;
  const sim::Duration one = dev.access_time(bytes, true);
  const sim::TimePoint t0{};
  const sim::TimePoint first = dev.reserve(t0, bytes, true);
  const sim::TimePoint second = dev.reserve(t0, bytes, true);
  EXPECT_EQ(first.ps, one.ps);
  EXPECT_EQ(second.ps, 2 * one.ps);  // queued behind the first access
  // A later arrival starts when the device frees up, not earlier.
  const sim::TimePoint third = dev.reserve(sim::TimePoint{one.ps}, 0, false);
  EXPECT_GT(third.ps, 2 * one.ps);
  EXPECT_GT(dev.busy_seconds(), 0.0);
  EXPECT_GT(dev.active_joules(), 0.0);
  EXPECT_EQ(dev.bytes_written(), 2 * bytes);
}

TEST(Nvm, CapacityAccounting) {
  hw::NvmSpec spec = hw::node_nvm();
  spec.capacity_bytes = 1000;
  hw::NvmDevice dev(spec);
  EXPECT_TRUE(dev.try_alloc(600));
  EXPECT_FALSE(dev.try_alloc(500));  // would overcommit
  EXPECT_TRUE(dev.try_alloc(400));
  EXPECT_EQ(dev.free_bytes(), 0);
  dev.release(600);
  EXPECT_EQ(dev.used_bytes(), 400);
  EXPECT_TRUE(dev.try_alloc(500));
}

// ---------------------------------------------------------------------------
// Engine kill primitive (what the job layer aborts stuck ranks with)
// ---------------------------------------------------------------------------

TEST(SimKill, WaitingProcessUnwindsImmediately) {
  sim::Engine eng;
  bool entered = false, resumed = false;
  sim::Process& victim = eng.spawn("victim", [&](sim::Context& ctx) {
    entered = true;
    ctx.suspend();  // no one will wake us
    resumed = true;
  });
  eng.spawn("killer", [&](sim::Context& ctx) {
    ctx.delay(sim::from_micros(5));
    victim.request_kill();
  });
  eng.run();
  EXPECT_TRUE(entered);
  EXPECT_FALSE(resumed);  // ProcessKilled unwound the fiber at the suspend
  EXPECT_TRUE(victim.finished());
}

TEST(SimKill, SleepingProcessUnwindsAtExpiry) {
  sim::Engine eng;
  bool after_sleep = false;
  sim::TimePoint end{};
  sim::Process& victim = eng.spawn("victim", [&](sim::Context& ctx) {
    ctx.delay(sim::from_micros(100));
    after_sleep = true;
  });
  eng.spawn("killer", [&](sim::Context& ctx) {
    ctx.delay(sim::from_micros(5));
    victim.request_kill();
  });
  eng.spawn("clock", [&](sim::Context& ctx) {
    ctx.delay(sim::from_micros(200));
    end = ctx.now();
  });
  eng.run();
  EXPECT_FALSE(after_sleep);
  EXPECT_TRUE(victim.finished());
  EXPECT_EQ(end.ps, sim::from_micros(200).ps);  // the run itself went on
}

TEST(SimKill, CreatedProcessNeverRuns) {
  sim::Engine eng;
  bool ran = false;
  sim::Process* victim = nullptr;
  // The killer is spawned first, so its first slice runs before the
  // victim's start slice at the same virtual time.
  eng.spawn("killer", [&](sim::Context&) { victim->request_kill(); });
  victim = &eng.spawn("victim", [&](sim::Context&) { ran = true; });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(victim->finished());
  victim->request_kill();  // no-op on a Finished process
}

// ---------------------------------------------------------------------------
// IoNet: reliable request/reply over a fabric
// ---------------------------------------------------------------------------

/// Minimal storage rig: nodes on one crossbar, node 0 a compute node, the
/// rest storage-grade (gateway spec, large NVM) targets.
class MiniIoRig {
 public:
  explicit MiniIoRig(int n, io::IoParams params = {})
      : transport_(ib_), ionet_(engine_, transport_, params) {
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<hw::Node>(
          i, std::string("n").append(std::to_string(i)),
          i == 0 ? hw::xeon_cluster_node() : hw::gateway_node()));
      ib_.attach(i);
      ionet_.attach(ib_.nic(i));
    }
    io::install_nvm_service(ionet_, [this](hw::NodeId id) {
      return id >= 0 && id < static_cast<hw::NodeId>(nodes_.size())
                 ? nodes_[static_cast<std::size_t>(id)].get()
                 : nullptr;
    });
  }

  sim::Engine& engine() { return engine_; }
  net::CrossbarFabric& ib() { return ib_; }
  io::IoNet& ionet() { return ionet_; }
  hw::Node& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }

 private:
  sim::Engine engine_;
  net::CrossbarFabric ib_{engine_, "ib", {}};
  cbp::DirectTransport transport_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  io::IoNet ionet_;
};

TEST(IoNet, RequestReplyPaysServiceTime) {
  MiniIoRig rig(2);
  const std::int64_t bytes = 64 << 10;
  bool ok = false;
  sim::TimePoint done{};
  rig.engine().spawn("writer", [&](sim::Context& ctx) {
    ok = rig.ionet().transfer(ctx, 0, 1, io::OpKind::BuddyWrite, bytes, 0);
    done = ctx.now();
  });
  rig.engine().run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.ionet().requests(), 1);
  EXPECT_EQ(rig.ionet().retries(), 0);
  EXPECT_EQ(rig.ionet().failures(), 0);
  // The target's NVM served the write: the round trip is at least the
  // device access time, and the device booked the bytes.
  const sim::Duration svc = rig.node(1).nvm()->access_time(bytes, true);
  EXPECT_GE(done.ps, svc.ps);
  EXPECT_EQ(rig.node(1).nvm()->bytes_written(), bytes);
}

TEST(IoNet, RetriesThroughTransientOutage) {
  io::IoParams p;
  p.timeout = sim::from_micros(10);
  p.max_attempts = 5;
  MiniIoRig rig(2, p);
  // Target NIC dead from the start; heals at 15 us — attempts 1 and 2 are
  // dropped, attempt 3 (at 30 us, after backoff 10+20) gets through.
  rig.ib().set_link_up(1, 1, false);
  rig.engine().schedule_at(sim::TimePoint{15 * kUs},
                           [&] { rig.ib().set_link_up(1, 1, true); });
  bool ok = false;
  rig.engine().spawn("writer", [&](sim::Context& ctx) {
    ok = rig.ionet().transfer(ctx, 0, 1, io::OpKind::BuddyWrite, 1024, 0);
  });
  rig.engine().run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.ionet().retries(), 2);
  EXPECT_EQ(rig.ionet().failures(), 0);
  EXPECT_GT(rig.ib().stats().messages_dropped, 0);
}

TEST(IoNet, FailsAfterMaxAttempts) {
  io::IoParams p;
  p.timeout = sim::from_micros(10);
  p.max_attempts = 2;
  MiniIoRig rig(2, p);
  rig.ib().set_link_up(1, 1, false);  // dead forever
  bool ok = true;
  sim::TimePoint done{};
  rig.engine().spawn("writer", [&](sim::Context& ctx) {
    ok = rig.ionet().transfer(ctx, 0, 1, io::OpKind::FsWrite, 1024, 0);
    done = ctx.now();
  });
  rig.engine().run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.ionet().failures(), 1);
  EXPECT_EQ(rig.ionet().retries(), 1);
  // Gave up after the full backoff ladder: 10 us + 20 us.
  EXPECT_EQ(done.ps, 30 * kUs);
}

// ---------------------------------------------------------------------------
// ParallelFs: striping over storage targets
// ---------------------------------------------------------------------------

TEST(Fs, StripesRoundRobinAcrossTargets) {
  MiniIoRig rig(3);
  io::FsParams fp;
  fp.stripe_bytes = 64 << 10;
  io::ParallelFs fs(rig.ionet(), {1, 2}, fp);
  const std::int64_t bytes = 224 << 10;  // 3.5 stripes -> 4 chunks
  EXPECT_EQ(fs.chunk_count(bytes), 4);
  EXPECT_EQ(fs.chunk_count(1), 1);
  EXPECT_EQ(fs.target_of(0), 1);
  EXPECT_EQ(fs.target_of(1), 2);
  EXPECT_EQ(fs.target_of(2), 1);

  bool wrote = false, read = false, missing = true;
  rig.engine().spawn("client", [&](sim::Context& ctx) {
    wrote = fs.write(ctx, 0, "ckpt/r0/v1", bytes);
    read = fs.read(ctx, 0, "ckpt/r0/v1");
    missing = fs.read(ctx, 0, "no/such/file");
  });
  rig.engine().run();
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(read);
  EXPECT_FALSE(missing);
  EXPECT_EQ(fs.files(), 1);
  EXPECT_EQ(fs.bytes_stored(), bytes);
  EXPECT_EQ(fs.size_of("ckpt/r0/v1"), bytes);
  EXPECT_EQ(fs.writes(), 1);
  EXPECT_EQ(fs.reads(), 2);  // attempts, including the failed one
  EXPECT_EQ(fs.failed_ops(), 1);  // the missing-path read
  // Chunks landed on both targets' NVM devices.
  EXPECT_GT(rig.node(1).nvm()->bytes_written(), 0);
  EXPECT_GT(rig.node(2).nvm()->bytes_written(), 0);
}

TEST(Fs, FailedWriteLeavesOldVersionIntact) {
  io::IoParams p;
  p.timeout = sim::from_micros(100);  // storage service takes ~30 us
  p.max_attempts = 2;
  MiniIoRig rig(2, p);
  io::ParallelFs fs(rig.ionet(), {1});
  bool first = false, second = true;
  rig.engine().spawn("client", [&](sim::Context& ctx) {
    first = fs.write(ctx, 0, "f", 1024);
    rig.ib().set_link_up(1, 1, false);  // target unreachable
    second = fs.write(ctx, 0, "f", 4096);
  });
  rig.engine().run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(fs.size_of("f"), 1024);  // copy-on-write: old version intact
  EXPECT_EQ(fs.bytes_stored(), 1024);
  EXPECT_GT(fs.failed_ops(), 0);
}

// ---------------------------------------------------------------------------
// Checkpoint store + restart-plan policy (engine-free)
// ---------------------------------------------------------------------------

std::vector<std::byte> blob(std::size_t n, std::byte fill = std::byte{0xAB}) {
  return std::vector<std::byte>(n, fill);
}

TEST(CkptStore, HistoryTrimsOldestAndReturnsEvicted) {
  ckpt::Store store(1, 2);
  EXPECT_TRUE(store.put(0, ckpt::Level::L1, 1, 7, 100, blob(100)).empty());
  EXPECT_TRUE(store.put(0, ckpt::Level::L1, 2, 7, 100, blob(100)).empty());
  const auto evicted = store.put(0, ckpt::Level::L1, 3, 7, 100, blob(100));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].version, 1u);
  EXPECT_EQ(evicted[0].alloc_bytes, 100);
  EXPECT_EQ(store.versions(0, ckpt::Level::L1),
            (std::vector<std::uint64_t>{3, 2}));
  EXPECT_NE(store.find(0, ckpt::Level::L1, 2), nullptr);
  EXPECT_EQ(store.find(0, ckpt::Level::L1, 1), nullptr);
}

TEST(CkptStore, InvalidateHolderReleasesChargesExactlyOnce) {
  ckpt::Store store(2, 2);
  store.put(0, ckpt::Level::L1, 1, 10, 100, blob(100));
  store.put(1, ckpt::Level::L2, 1, 10, 200, blob(200));  // buddy copy on 10
  store.put(1, ckpt::Level::L3, 1, hw::kInvalidNode, 0, blob(200));
  auto charges = store.invalidate_holder(10);
  ASSERT_EQ(charges.size(), 2u);
  std::int64_t total = 0;
  for (const auto& [node, bytes] : charges) {
    EXPECT_EQ(node, 10);
    total += bytes;
  }
  EXPECT_EQ(total, 300);
  // The node dying again releases nothing more.
  EXPECT_TRUE(store.invalidate_holder(10).empty());
  EXPECT_EQ(store.find(0, ckpt::Level::L1, 1), nullptr);
  // The durable L3 copy is untouched.
  EXPECT_NE(store.find(1, ckpt::Level::L3, 1), nullptr);
}

TEST(CkptStore, PlanPicksNewestCompleteVersionAndCheapestLevel) {
  ckpt::Store store(2, 3);
  // Rank 0 holds v1 and v2 locally; rank 1 only reached v1, and its local
  // copy is gone — only the buddy and FS copies remain.
  store.put(0, ckpt::Level::L1, 1, 5, 10, blob(10));
  store.put(0, ckpt::Level::L1, 2, 5, 10, blob(10));
  store.put(1, ckpt::Level::L2, 1, 6, 10, blob(10));
  store.put(1, ckpt::Level::L3, 1, hw::kInvalidNode, 0, blob(10));
  const auto plan = store.plan_restart();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->version, 1u);  // newest version EVERY rank can reach
  EXPECT_EQ(plan->level[0], ckpt::Level::L1);  // cheapest available wins
  EXPECT_EQ(plan->level[1], ckpt::Level::L2);
  // Lose the buddy copy: rank 1 falls back to the FS.
  store.invalidate_holder(6);
  const auto plan2 = store.plan_restart();
  ASSERT_TRUE(plan2.has_value());
  EXPECT_EQ(plan2->level[1], ckpt::Level::L3);
  // No complete version at all -> no plan (scratch restart).
  ckpt::Store empty(2, 2);
  empty.put(0, ckpt::Level::L1, 1, 5, 10, blob(10));
  EXPECT_FALSE(empty.plan_restart().has_value());
}

// ---------------------------------------------------------------------------
// Manager: buddy placement and node-death invalidation
// ---------------------------------------------------------------------------

TEST(CkptManager, BuddyPrefersSameNodeKind) {
  sim::Engine eng;
  std::vector<std::unique_ptr<hw::Node>> owned;
  owned.push_back(std::make_unique<hw::Node>(0, "cn0", hw::xeon_cluster_node()));
  owned.push_back(std::make_unique<hw::Node>(1, "cn1", hw::xeon_cluster_node()));
  owned.push_back(std::make_unique<hw::Node>(2, "bn0", hw::knc_booster_node()));
  owned.push_back(std::make_unique<hw::Node>(3, "bn1", hw::knc_booster_node()));
  std::vector<hw::Node*> nodes;
  for (auto& n : owned) nodes.push_back(n.get());
  ckpt::Manager mgr(eng, {}, nodes, nullptr, nullptr);
  // Cluster ranks pair up, booster ranks pair up: buddy traffic stays on
  // the rank's own fabric.
  EXPECT_EQ(mgr.buddy_node(0), 1);
  EXPECT_EQ(mgr.buddy_node(1), 0);  // wraps past the boosters to cn0
  EXPECT_EQ(mgr.buddy_node(2), 3);
  EXPECT_EQ(mgr.buddy_node(3), 2);
  // A lone booster among cluster ranks falls back to a different kind.
  std::vector<hw::Node*> mixed = {nodes[0], nodes[2]};
  ckpt::Manager mixed_mgr(eng, {}, mixed, nullptr, nullptr);
  EXPECT_EQ(mixed_mgr.buddy_node(1), 0);
  // A single-node job buddies with itself (save() then skips L2).
  std::vector<hw::Node*> solo = {nodes[0]};
  ckpt::Manager solo_mgr(eng, {}, solo, nullptr, nullptr);
  EXPECT_EQ(solo_mgr.buddy_node(0), 0);
}

TEST(CkptManager, NodeDeathInvalidatesCopiesAndFreesNvm) {
  MiniIoRig rig(2);
  ckpt::CkptParams params;
  params.interval = 1;
  params.l2_every = 1;
  params.l3_every = 0;  // no FS in this rig
  std::vector<hw::Node*> nodes = {&rig.node(0), &rig.node(1)};
  ckpt::Manager mgr(rig.engine(), params, nodes, &rig.ionet(), nullptr);
  for (int r = 0; r < 2; ++r) {
    rig.engine().spawn("rank" + std::to_string(r), [&, r](sim::Context& ctx) {
      mgr.save(ctx, r, 1, blob(1024));
    });
  }
  rig.engine().run();
  EXPECT_EQ(mgr.saves(), 2);
  // Each node holds its own L1 copy plus its buddy's L2 copy.
  EXPECT_EQ(rig.node(0).nvm()->used_bytes(), 2048);
  EXPECT_EQ(rig.node(1).nvm()->used_bytes(), 2048);

  mgr.on_node_event(1, false);
  EXPECT_FALSE(mgr.node_up(1));
  EXPECT_FALSE(mgr.all_rank_nodes_up());
  // Rank 1's L1 and rank 0's buddy copy both lived on node 1: gone, and
  // their NVM residency was released.
  EXPECT_EQ(rig.node(1).nvm()->used_bytes(), 0);
  const auto plan = mgr.plan_restart();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->version, 1u);
  EXPECT_EQ(plan->level[0], ckpt::Level::L1);  // own copy survived on node 0
  EXPECT_EQ(plan->level[1], ckpt::Level::L2);  // buddy copy on node 0

  mgr.on_node_event(1, true);
  EXPECT_TRUE(mgr.all_rank_nodes_up());
}

// ---------------------------------------------------------------------------
// Crafted end-to-end scenarios
// ---------------------------------------------------------------------------

ResiliencyOutcome fault_free(ResiliencyWorkload w) {
  ResiliencyConfig cfg;
  cfg.workload = w;
  return run_resiliency(cfg, net::FaultSpec{});
}

TEST(ResiliencyScenario, FaultFreeRunCompletesAndCheckpoints) {
  const ResiliencyOutcome out = fault_free(ResiliencyWorkload::Stencil);
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.deadlocked);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.rank_failures, 0);
  // interval=2 over 10 iterations: 5 checkpoints per rank, 4 ranks.
  EXPECT_EQ(out.saves, 20);
  EXPECT_EQ(out.restores, 0);
  EXPECT_NE(out.metrics.find("ckpt.l1_bytes"), std::string::npos);
  EXPECT_NE(out.metrics.find("io.requests"), std::string::npos);
  EXPECT_NE(out.metrics.find("fs.write_bytes"), std::string::npos);
}

// A booster node dies mid-run and heals: the job must detect the failure,
// roll every rank back to the newest complete checkpoint, and finish with
// results bit-equal to the fault-free run.
TEST(ResiliencyScenario, BoosterKillRollsBackAndMatchesFaultFreeBits) {
  const ResiliencyOutcome base = fault_free(ResiliencyWorkload::Stencil);
  ASSERT_TRUE(base.completed);

  ResiliencyConfig cfg;
  cfg.workload = ResiliencyWorkload::Stencil;
  net::FaultSpec spec;
  spec.seed = 3;
  spec.nodes.push_back({sim::TimePoint{400 * kUs}, 2, false});
  spec.nodes.push_back({sim::TimePoint{900 * kUs}, 2, true});

  const ResiliencyOutcome out = run_resiliency(cfg, spec);
  const ResiliencyOutcome replay = run_resiliency(cfg, spec);
  EXPECT_EQ(out.fingerprint(), replay.fingerprint());
  EXPECT_TRUE(out.completed) << "the kill healed; the job must finish";
  EXPECT_FALSE(out.deadlocked);
  EXPECT_GE(out.attempts, 2);
  EXPECT_GT(out.rank_failures, 0);
  EXPECT_GE(out.rollbacks, 1) << "restart should have used a checkpoint";
  EXPECT_GT(out.restores, 0);
  EXPECT_EQ(out.checksum, base.checksum) << "replay must be bit-exact";
  EXPECT_EQ(out.quality, base.quality);
}

// The L3 showcase: every checkpoint also goes to the parallel FS, then BOTH
// booster nodes die at once — the booster ranks' L1 copies and their buddy
// (each other's) L2 copies all vanish.  Only the striped FS copy can bring
// them back; the run must still complete with fault-free bits.
TEST(ResiliencyScenario, ParallelFsSavesRunWhenL1AndBuddyBothDie) {
  ResiliencyConfig cfg;
  cfg.workload = ResiliencyWorkload::Stencil;
  cfg.ckpt.l3_every = 1;  // every checkpoint reaches the FS

  const ResiliencyOutcome base = run_resiliency(cfg, net::FaultSpec{});
  ASSERT_TRUE(base.completed);

  net::FaultSpec spec;
  spec.seed = 5;
  spec.nodes.push_back({sim::TimePoint{400 * kUs}, 2, false});
  spec.nodes.push_back({sim::TimePoint{400 * kUs}, 3, false});
  spec.nodes.push_back({sim::TimePoint{1000 * kUs}, 2, true});
  spec.nodes.push_back({sim::TimePoint{1100 * kUs}, 3, true});

  const ResiliencyOutcome out = run_resiliency(cfg, spec);
  const ResiliencyOutcome replay = run_resiliency(cfg, spec);
  EXPECT_EQ(out.fingerprint(), replay.fingerprint());
  EXPECT_TRUE(out.completed) << "L3 should have saved this run";
  EXPECT_GE(out.rollbacks, 1);
  EXPECT_GE(out.restores_l3, 2)
      << "both booster ranks lost L1+L2 and must restore from the FS";
  EXPECT_EQ(out.checksum, base.checksum);
  EXPECT_EQ(out.quality, base.quality);
}

// A node killed before the first checkpoint completes: no complete version
// exists, so the retry is a scratch restart — and still bit-exact.
TEST(ResiliencyScenario, KillBeforeFirstCheckpointRestartsFromScratch) {
  const ResiliencyOutcome base = fault_free(ResiliencyWorkload::Spmv);
  ASSERT_TRUE(base.completed);

  ResiliencyConfig cfg;
  cfg.workload = ResiliencyWorkload::Spmv;
  net::FaultSpec spec;
  spec.seed = 9;
  spec.nodes.push_back({sim::TimePoint{5 * kUs}, 1, false});
  spec.nodes.push_back({sim::TimePoint{600 * kUs}, 1, true});

  const ResiliencyOutcome out = run_resiliency(cfg, spec);
  EXPECT_TRUE(out.completed);
  EXPECT_GE(out.scratch_restarts, 1)
      << "no checkpoint existed yet; the retry must start from scratch";
  EXPECT_EQ(out.checksum, base.checksum);
  EXPECT_EQ(out.quality, base.quality);
}

TEST(ResiliencyMetrics, RecoveryLatencyIsRecorded) {
  ResiliencyConfig cfg;
  cfg.workload = ResiliencyWorkload::Stencil;
  net::FaultSpec spec;
  spec.seed = 21;
  spec.nodes.push_back({sim::TimePoint{400 * kUs}, 1, false});
  spec.nodes.push_back({sim::TimePoint{900 * kUs}, 1, true});
  const ResiliencyOutcome out = run_resiliency(cfg, spec);
  ASSERT_TRUE(out.completed);
  // The recovery clock (failure detection -> every rank restored) must have
  // recorded at least one sample, visible in the registry JSON.
  EXPECT_NE(out.metrics.find("ckpt.recovery_ns"), std::string::npos);
  EXPECT_NE(out.metrics.find("ckpt.restore_ns"), std::string::npos);
  EXPECT_NE(out.metrics.find("ckpt.rollbacks"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The 32-seed chaos sweep
// ---------------------------------------------------------------------------

struct SweepTotals {
  int completed = 0;
  int with_failures = 0;
  std::int64_t rank_failures = 0;
  std::int64_t rollbacks = 0;
  std::int64_t scratch_restarts = 0;
  std::int64_t restores = 0;
  std::int64_t saves = 0;
};

SweepTotals sweep(ResiliencyWorkload workload) {
  const ResiliencyOutcome base = fault_free(workload);
  EXPECT_TRUE(base.completed) << "fault-free baseline must complete";

  SweepTotals totals;
  for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    ResiliencyConfig cfg;
    cfg.seed = seed;
    cfg.workload = workload;
    const net::FaultSpec spec = make_kill_spec(seed, cfg);

    const ResiliencyOutcome first = run_resiliency(cfg, spec);
    const ResiliencyOutcome second = run_resiliency(cfg, spec);
    EXPECT_EQ(first.fingerprint(), second.fingerprint())
        << "seed " << seed << " did not replay bit-identically";
    EXPECT_FALSE(first.trace.empty()) << "seed " << seed;

    // The resiliency contract: every kill heals, so every run completes —
    // no limbo, no give-up — with results bit-equal to the fault-free run.
    EXPECT_TRUE(first.completed) << "seed " << seed << " did not survive";
    EXPECT_FALSE(first.deadlocked) << "seed " << seed;
    EXPECT_EQ(first.checksum, base.checksum)
        << "seed " << seed << " diverged from the fault-free result";
    EXPECT_EQ(first.quality, base.quality) << "seed " << seed;

    totals.completed += first.completed ? 1 : 0;
    totals.with_failures += first.rank_failures > 0 ? 1 : 0;
    totals.rank_failures += first.rank_failures;
    totals.rollbacks += first.rollbacks;
    totals.scratch_restarts += first.scratch_restarts;
    totals.restores += first.restores;
    totals.saves += first.saves;
  }
  return totals;
}

TEST(ResiliencySweep, StencilSurvives32SeedsBitExactly) {
  const SweepTotals t = sweep(ResiliencyWorkload::Stencil);
  EXPECT_EQ(t.completed, kSweepSeeds);
  // The sweep must actually exercise recovery, not tiptoe around it.
  EXPECT_GT(t.with_failures, 0) << "no seed ever killed anything";
  EXPECT_GT(t.rank_failures, 0);
  EXPECT_GT(t.rollbacks + t.scratch_restarts, 0);
  EXPECT_GT(t.restores, 0);
}

TEST(ResiliencySweep, SpmvSurvives32SeedsBitExactly) {
  const SweepTotals t = sweep(ResiliencyWorkload::Spmv);
  EXPECT_EQ(t.completed, kSweepSeeds);
  EXPECT_GT(t.with_failures, 0);
  EXPECT_GT(t.rank_failures, 0);
  EXPECT_GT(t.rollbacks + t.scratch_restarts, 0);
  EXPECT_GT(t.restores, 0);
}

// ---------------------------------------------------------------------------
// Pay-for-what-you-use property
// ---------------------------------------------------------------------------

// An inert (inactive-params) checkpoint manager must be byte-invisible:
// same trace, same metrics JSON as a run with no manager at all.  This is
// the contract that lets DeepSystem thread the manager unconditionally.
TEST(ResiliencyProperty, InertCheckpointStackIsByteInvisible) {
  auto run = [](bool force_inert_manager) {
    ResiliencyConfig cfg;
    cfg.workload = ResiliencyWorkload::Stencil;
    cfg.ckpt.interval = 0;  // checkpointing off
    cfg.force_inert_manager = force_inert_manager;
    return run_resiliency(cfg, net::FaultSpec{});
  };
  const ResiliencyOutcome with_manager = run(true);
  const ResiliencyOutcome without = run(false);
  EXPECT_TRUE(with_manager.completed);
  EXPECT_EQ(with_manager.trace, without.trace);
  EXPECT_EQ(with_manager.metrics, without.metrics);
  EXPECT_EQ(with_manager.final_ps, without.final_ps);
  EXPECT_EQ(with_manager.checksum, without.checksum);
  // And the inert stack registered no instruments at all.
  EXPECT_EQ(with_manager.metrics.find("ckpt."), std::string::npos);
  EXPECT_EQ(with_manager.metrics.find("io."), std::string::npos);
  EXPECT_EQ(with_manager.saves, 0);
}

}  // namespace
}  // namespace deep
