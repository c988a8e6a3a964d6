// Overlapped host kernels (sim/host_kernel.hpp): a rank's real arithmetic
// runs on a host pool thread during its modelled compute time.  The tests
// pin what the overlap must leave unchanged — results, residual bits, the
// metrics snapshot, exception timing — and the joins that keep a killed or
// torn-down rank from freeing buffers a pool thread still works on.
//
// Built into parallel_test, so scripts/run_chaos.sh runs them under both
// AddressSanitizer and ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/stencil.hpp"
#include "hw/node.hpp"
#include "hw/spec.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/host_kernel.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"

#include "mpi_rig.hpp"
#include "resiliency_rig.hpp"

namespace ds = deep::sim;
namespace dh = deep::hw;
namespace dsv = deep::svc;

namespace {

using deep::testing::ResiliencyConfig;
using deep::testing::ResiliencyOutcome;
using deep::testing::ResiliencyWorkload;

// Ranks (or processes) per test: enough that most of them start their
// kernels past the offload gate.
constexpr int kPastGate = 32;
static_assert(kPastGate > 2 * ds::HostKernel::kOffloadBacklog);
constexpr std::int64_t kUsPs = 1'000'000;  // picoseconds per microsecond

/// True when this host has a pool thread to offload to.
bool host_has_pool() { return std::thread::hardware_concurrency() > 1; }

TEST(HostKernel, StencilPastTheGateMatchesItsSerialPins) {
  if (!host_has_pool()) GTEST_SKIP() << "one host CPU: every kernel inline";
  const std::uint64_t before = ds::HostKernel::offloaded();
  deep::testing::BoosterRig rig(kPastGate);
  std::vector<deep::apps::StencilResult> results(kPastGate);
  rig.run([&](deep::mpi::Mpi& mpi) {
    deep::apps::StencilConfig cfg;
    cfg.nx = 64;
    cfg.rows = 16;
    cfg.iterations = 12;
    results[static_cast<std::size_t>(mpi.rank())] =
        deep::apps::run_jacobi(mpi, mpi.world(), cfg);
  });
  EXPECT_GT(ds::HostKernel::offloaded(), before)
      << "no sweep went to the pool";
  // Pinned from the build before the overlap, where every sweep ran on the
  // engine thread ahead of its modelled time.
  for (const auto& r : results) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.checksum), 0x4056eca1ff800000ULL);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.residual), 0x3f93f37000000000ULL);
  }
  EXPECT_EQ(dsv::hex64(dsv::fnv1a64(rig.engine().metrics().to_json())),
            "7f6d070f5bdb34f9");
  EXPECT_EQ(rig.engine().now().ps, 32255730);
}

/// Spawns `n` processes that each burn `cost` on their own node with a
/// kernel writing into `out[i]`; process `thrower`'s kernel throws.  Returns
/// each process's "when/what" line.
std::vector<std::string> throwing_run(int n, int thrower) {
  ds::Engine engine;
  std::vector<std::unique_ptr<dh::Node>> nodes;
  for (int i = 0; i < n; ++i)
    nodes.push_back(std::make_unique<dh::Node>(i, "bn" + std::to_string(i),
                                               dh::knc_booster_node()));
  std::vector<std::string> seen(static_cast<std::size_t>(n));
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    engine.spawn("p" + std::to_string(i), [&, i](ds::Context& ctx) {
      const auto idx = static_cast<std::size_t>(i);
      try {
        nodes[idx]->compute(ctx, {1e6, 0, 0}, 1, [&] {
          if (i == thrower) throw std::runtime_error("kernel " + std::to_string(i));
          out[idx] = i * 0.5;
        });
        seen[idx] = std::to_string(ctx.now().ps) + " ok " + std::to_string(out[idx]);
      } catch (const std::runtime_error& e) {
        seen[idx] = std::to_string(ctx.now().ps) + " threw " + e.what();
      }
    });
  }
  engine.run();
  return seen;
}

TEST(HostKernel, KernelExceptionSurfacesFromComputeAfterTheDelay) {
  // Rank 0 starts first, so its kernel runs inline; the last rank's starts
  // past the gate and goes to the pool.  Both must throw out of compute at
  // the end of the modelled delay, the same in every run.
  for (const int thrower : {0, kPastGate - 1}) {
    const std::vector<std::string> first = throwing_run(kPastGate, thrower);
    EXPECT_EQ(first, throwing_run(kPastGate, thrower));
    const std::string& line = first[static_cast<std::size_t>(thrower)];
    EXPECT_NE(line.find(" threw kernel " + std::to_string(thrower)),
              std::string::npos)
        << line;
    // Same virtual time as a rank whose kernel succeeded.
    const std::string& other = first[thrower == 0 ? 1 : 0];
    EXPECT_EQ(line.substr(0, line.find(' ')), other.substr(0, other.find(' ')));
  }
}

TEST(HostKernel, TeardownInTheDelayJoinsBeforeBuffersDie) {
  // Every process sleeps in compute with its kernel pending when the engine
  // is destroyed; the unwinding must join each kernel before the vector it
  // writes is freed (ASan reports the use after free otherwise).
  int unwound = 0;
  {
    dh::Node node(0, "bn0", dh::knc_booster_node());
    ds::Engine engine;
    for (int i = 0; i < kPastGate; ++i) {
      engine.spawn("p" + std::to_string(i), [&](ds::Context& ctx) {
        struct Count {
          int& n;
          ~Count() { ++n; }
        } count{unwound};
        std::vector<double> buf(1 << 14, 1.0);
        node.compute(ctx, {1e9, 0, 0}, 1, [&] {
          std::iota(buf.begin(), buf.end(), 0.0);
        });
        ADD_FAILURE() << "the delay must not end";
      });
    }
    engine.run_until(ds::TimePoint{1});
  }
  EXPECT_EQ(unwound, kPastGate);
}

TEST(HostKernel, BoosterKillWithPendingSweepsMatchesFaultFreeBits) {
  if (!host_has_pool()) GTEST_SKIP() << "one host CPU: every kernel inline";
  ResiliencyConfig cfg;
  cfg.workload = ResiliencyWorkload::Stencil;
  cfg.cluster_ranks = 2;
  cfg.booster_ranks = kPastGate - 2;
  const std::uint64_t before = ds::HostKernel::offloaded();
  const ResiliencyOutcome base =
      deep::testing::run_resiliency(cfg, deep::net::FaultSpec{});
  ASSERT_TRUE(base.completed);
  EXPECT_GT(ds::HostKernel::offloaded(), before);

  // A booster node dies while the sweeps run and heals: every rank unwinds,
  // most out of a sweep's delay, then rolls back, and the job finishes.
  deep::net::FaultSpec spec;
  spec.seed = 3;
  const auto victim = static_cast<dh::NodeId>(cfg.cluster_ranks + 3);
  spec.nodes.push_back({ds::TimePoint{400 * kUsPs}, victim, false});
  spec.nodes.push_back({ds::TimePoint{900 * kUsPs}, victim, true});
  const ResiliencyOutcome out = deep::testing::run_resiliency(cfg, spec);
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.deadlocked) << out.deadlock_report;
  EXPECT_GT(out.rank_failures, 0);
  EXPECT_EQ(out.checksum, base.checksum);
  EXPECT_EQ(out.quality, base.quality);
  EXPECT_EQ(out.fingerprint(), deep::testing::run_resiliency(cfg, spec).fingerprint());
}

TEST(HostKernel, ForkedJobMatchesInProcessWhileASessionOffloads) {
  // A fork_per_job child may be forked while a pool thread holds the pool's
  // lock; it must run its kernels inline instead of waiting on threads it
  // does not have.
  if (!host_has_pool()) GTEST_SKIP() << "one host CPU: every kernel inline";
#if DEEPSIM_ASAN_FIBERS
  // GCC 12's libasan takes no allocator lock around fork(): a child forked
  // while another thread allocates can wait on that lock forever (seen
  // here).  Under ASan the jobs fork beside idle pool threads only.
  constexpr bool kBusySession = false;
#else
  constexpr bool kBusySession = true;
#endif
  dsv::JobSpec spec;
  spec.workload = "stencil";
  spec.booster = 64;
  spec.procs = kPastGate;
  const std::string solo = dsv::run_session(spec).fingerprint();

  std::atomic<bool> done{false};
  std::atomic<int> sessions{0};
  std::thread busy([&] {
    dsv::JobSpec big = spec;
    big.procs = 2 * kPastGate;
    while (kBusySession && !done.load()) {
      EXPECT_TRUE(dsv::run_session(big).ok);
      ++sessions;
    }
  });
  dsv::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.fork_per_job = true;
  cfg.cache_entries = 0;
  {
    dsv::Service service(cfg);
    while (kBusySession && sessions.load() == 0) std::this_thread::yield();
    for (int i = 0; i < 3; ++i) {
      const dsv::JobResult r = service.run(spec.to_json().dump());
      EXPECT_EQ(r.status, "ok") << r.session.error;
      EXPECT_EQ(r.session.fingerprint(), solo) << "forked run " << i;
    }
  }
  done.store(true);
  busy.join();
}

}  // namespace
