// Tests for the mini-apps: tiled Cholesky (numerics + task-graph execution)
// and the distributed Jacobi stencil.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "hw/node.hpp"
#include "mpi_rig.hpp"
#include "ompss/runtime.hpp"
#include "resiliency_rig.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace da = deep::apps;
namespace dh = deep::hw;
namespace ds = deep::sim;
namespace dos = deep::ompss;
using deep::testing::BridgedMpiRig;
using deep::testing::MpiRig;

TEST(TiledMatrix, LayoutAndAccess) {
  da::TiledMatrix m(3, 4);
  EXPECT_EQ(m.n(), 12);
  m.at(5, 7) = 3.5;  // tile (1,1), local (1,3)
  EXPECT_DOUBLE_EQ(m.at(5, 7), 3.5);
  EXPECT_DOUBLE_EQ(m.tile(1, 1)[3 * 4 + 1], 3.5);
  EXPECT_THROW(m.tile(3, 0), deep::util::UsageError);
}

TEST(Cholesky, ReferenceFactorisationIsCorrect) {
  da::TiledMatrix a(4, 16), a0(4, 16);
  da::fill_spd(a, 42);
  a0.storage() = a.storage();
  da::cholesky_reference(a);
  EXPECT_LT(da::factor_error(a, a0), 1e-9);
}

TEST(Cholesky, NotPositiveDefiniteDetected) {
  da::TiledMatrix a(1, 4);
  // All-zero matrix is not PD.
  EXPECT_THROW(da::cholesky_reference(a), deep::util::UsageError);
}

TEST(Cholesky, TaskGraphMatchesReference) {
  da::TiledMatrix task_version(6, 8), reference(6, 8), original(6, 8);
  da::fill_spd(task_version, 7);
  reference.storage() = task_version.storage();
  original.storage() = task_version.storage();
  da::cholesky_reference(reference);

  ds::Engine eng;
  dh::Node node(0, "bn0", dh::knc_booster_node());
  eng.spawn("master", [&](ds::Context& ctx) {
    dos::Runtime rt(ctx, node, 16);
    da::submit_cholesky_tasks(rt, task_version);
    rt.taskwait();
    // nt=6: potrf 6, trsm 15, syrk 15, gemm 20 = 56 tasks.
    EXPECT_EQ(rt.stats().tasks_submitted, 56);
    EXPECT_GT(rt.stats().max_parallelism, 1);  // wavefront parallelism found
  });
  eng.run();

  EXPECT_EQ(task_version.storage(), reference.storage());
  EXPECT_LT(da::factor_error(task_version, original), 1e-9);
}

TEST(Cholesky, TaskGraphParallelismSpeedsUp) {
  auto run = [](int workers) {
    da::TiledMatrix a(8, 4);
    da::fill_spd(a, 3);
    ds::Engine eng;
    dh::Node node(0, "bn0", dh::knc_booster_node());
    double seconds = 0;
    eng.spawn("master", [&](ds::Context& ctx) {
      dos::Runtime rt(ctx, node, workers);
      const auto t0 = ctx.now();
      da::submit_cholesky_tasks(rt, a);
      rt.taskwait();
      seconds = (ctx.now() - t0).seconds();
    });
    eng.run();
    return seconds;
  };
  const double t1 = run(1);
  const double t16 = run(16);
  EXPECT_GT(t1 / t16, 2.0);  // DAG has limited but real parallelism
}

TEST(Cholesky, FlopsFormula) {
  EXPECT_NEAR(da::cholesky_flops(100), 1e6 / 3.0, 1.0);
}

namespace {

// The element-at-a-time loops the tile kernels, fill_spd and factor_error
// used before they went column-wise, kept verbatim as the references their
// output must match bit for bit.
void reference_potrf(std::span<double> a, int ts) {
  for (int j = 0; j < ts; ++j) {
    double d = a[static_cast<std::size_t>(j) * ts + j];
    for (int k = 0; k < j; ++k) {
      const double v = a[static_cast<std::size_t>(k) * ts + j];
      d -= v * v;
    }
    ASSERT_GT(d, 0.0);
    d = std::sqrt(d);
    a[static_cast<std::size_t>(j) * ts + j] = d;
    for (int i = j + 1; i < ts; ++i) {
      double s = a[static_cast<std::size_t>(j) * ts + i];
      for (int k = 0; k < j; ++k)
        s -= a[static_cast<std::size_t>(k) * ts + i] *
             a[static_cast<std::size_t>(k) * ts + j];
      a[static_cast<std::size_t>(j) * ts + i] = s / d;
    }
    for (int i = 0; i < j; ++i) a[static_cast<std::size_t>(j) * ts + i] = 0.0;
  }
}

void reference_trsm(std::span<const double> t, std::span<double> b, int ts) {
  for (int j = 0; j < ts; ++j) {
    const double d = t[static_cast<std::size_t>(j) * ts + j];
    for (int i = 0; i < ts; ++i) {
      double s = b[static_cast<std::size_t>(j) * ts + i];
      for (int k = 0; k < j; ++k)
        s -= b[static_cast<std::size_t>(k) * ts + i] *
             t[static_cast<std::size_t>(k) * ts + j];
      b[static_cast<std::size_t>(j) * ts + i] = s / d;
    }
  }
}

void reference_syrk(std::span<const double> a, std::span<double> c, int ts) {
  for (int j = 0; j < ts; ++j)
    for (int i = j; i < ts; ++i) {
      double s = 0.0;
      for (int k = 0; k < ts; ++k)
        s += a[static_cast<std::size_t>(k) * ts + i] *
             a[static_cast<std::size_t>(k) * ts + j];
      c[static_cast<std::size_t>(j) * ts + i] -= s;
    }
}

void reference_gemm(std::span<const double> a, std::span<const double> b,
                    std::span<double> c, int ts) {
  for (int j = 0; j < ts; ++j)
    for (int i = 0; i < ts; ++i) {
      double s = 0.0;
      for (int k = 0; k < ts; ++k)
        s += a[static_cast<std::size_t>(k) * ts + i] *
             b[static_cast<std::size_t>(k) * ts + j];
      c[static_cast<std::size_t>(j) * ts + i] -= s;
    }
}

void reference_fill_spd(da::TiledMatrix& a, std::uint64_t seed) {
  deep::util::Rng rng(seed);
  const int n = a.n();
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      const double v = rng.uniform(-1.0, 1.0);
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  for (int i = 0; i < n; ++i) a.at(i, i) += n;
}

double reference_factor_error(const da::TiledMatrix& factor,
                              const da::TiledMatrix& original) {
  const int n = factor.n();
  double max_err = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      double s = 0.0;
      const int kmax = std::min(i, j);
      for (int k = 0; k <= kmax; ++k) s += factor.at(i, k) * factor.at(j, k);
      max_err = std::max(max_err, std::abs(s - original.at(i, j)));
    }
  }
  return max_err;
}

std::vector<double> random_tile(deep::util::Rng& rng, int ts) {
  std::vector<double> t(static_cast<std::size_t>(ts) * ts);
  for (double& v : t) v = rng.uniform(-1.0, 1.0);
  return t;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(Cholesky, TileKernelsBitIdenticalToElementLoops) {
  for (const int ts : {1, 2, 3, 7, 24, 33}) {
    SCOPED_TRACE("ts=" + std::to_string(ts));
    deep::util::Rng rng(static_cast<std::uint64_t>(ts) * 1000 + 17);
    // potrf on a symmetric, diagonally dominant tile.
    std::vector<double> spd = random_tile(rng, ts);
    for (int j = 0; j < ts; ++j)
      for (int i = 0; i < j; ++i)
        spd[static_cast<std::size_t>(j) * ts + i] =
            spd[static_cast<std::size_t>(i) * ts + j];
    for (int i = 0; i < ts; ++i) spd[static_cast<std::size_t>(i) * ts + i] += ts;
    std::vector<double> got = spd, want = spd;
    da::potrf_tile(got, ts);
    reference_potrf(want, ts);
    EXPECT_TRUE(same_bytes(got, want)) << "potrf";
    const std::vector<double> factor = want;

    const std::vector<double> b = random_tile(rng, ts);
    got = b;
    want = b;
    da::trsm_tile(factor, got, ts);
    reference_trsm(factor, want, ts);
    EXPECT_TRUE(same_bytes(got, want)) << "trsm";

    const std::vector<double> a = random_tile(rng, ts);
    const std::vector<double> c = random_tile(rng, ts);
    got = c;
    want = c;
    da::syrk_tile(a, got, ts);
    reference_syrk(a, want, ts);
    EXPECT_TRUE(same_bytes(got, want)) << "syrk";

    got = c;
    want = c;
    da::gemm_tile(a, b, got, ts);
    reference_gemm(a, b, want, ts);
    EXPECT_TRUE(same_bytes(got, want)) << "gemm";
  }

  for (const auto& [nt, ts] : {std::pair{1, 1}, {3, 5}, {8, 24}}) {
    SCOPED_TRACE("nt=" + std::to_string(nt) + " ts=" + std::to_string(ts));
    da::TiledMatrix original(nt, ts), want(nt, ts), factor(nt, ts);
    da::fill_spd(original, 29);
    reference_fill_spd(want, 29);
    EXPECT_TRUE(same_bytes(original.storage(), want.storage())) << "fill_spd";
    factor.storage() = original.storage();
    da::cholesky_reference(factor);
    // The real use, and a "factor" far from one, so the error has many bits.
    for (const auto* l : {&factor, &original}) {
      const double got_err = da::factor_error(*l, original);
      const double want_err = reference_factor_error(*l, original);
      EXPECT_EQ(std::memcmp(&got_err, &want_err, sizeof(double)), 0)
          << got_err << " vs " << want_err;
    }
  }
}

TEST(Stencil, SequentialHeatFlowsDownward) {
  MpiRig rig(1);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::StencilConfig cfg;
    cfg.nx = 32;
    cfg.rows = 16;
    cfg.iterations = 50;
    const auto res = da::run_jacobi(mpi, mpi.world(), cfg);
    EXPECT_GT(res.checksum, 0.0);   // heat entered the domain
    EXPECT_GT(res.residual, 0.0);   // not converged yet
    EXPECT_EQ(res.halo_messages, 0);  // single rank: no halos
  });
}

TEST(Stencil, DistributedMatchesSequential) {
  // The same global problem on 1 rank and on 4 ranks must give identical
  // checksums (the sweep is deterministic arithmetic).
  da::StencilConfig cfg;
  cfg.nx = 24;
  cfg.rows = 24;  // rows per rank when distributed
  cfg.iterations = 30;

  double seq = 0.0, par = 0.0;
  {
    MpiRig rig(1);
    auto seq_cfg = cfg;
    seq_cfg.rows = cfg.rows * 4;  // whole domain on one rank
    rig.run([&](deep::mpi::Mpi& mpi) {
      seq = da::run_jacobi(mpi, mpi.world(), seq_cfg).checksum;
    });
  }
  {
    MpiRig rig(4);
    rig.run([&](deep::mpi::Mpi& mpi) {
      const auto r = da::run_jacobi(mpi, mpi.world(), cfg);
      par = r.checksum;
      EXPECT_GT(r.halo_messages, 0);
    });
  }
  EXPECT_NEAR(seq, par, 1e-9 * std::abs(seq));
}

TEST(Stencil, RunsOnBoosterTorus) {
  BridgedMpiRig rig(1, 4, 1);
  rig.run([](deep::mpi::Mpi& mpi) {
    // Only booster ranks (1..4) participate: split off the HSCP communicator.
    const bool hscp = mpi.rank() >= 1;
    auto comm = mpi.split(mpi.world(), hscp ? 1 : deep::mpi::Mpi::kUndefinedColor,
                          mpi.rank());
    if (!hscp) return;
    da::StencilConfig cfg;
    cfg.nx = 16;
    cfg.rows = 8;
    cfg.iterations = 10;
    const auto res = da::run_jacobi(mpi, comm, cfg);
    EXPECT_GT(res.checksum, 0.0);
  });
}

TEST(Stencil, InvalidConfigRejected) {
  MpiRig rig(1);
  EXPECT_THROW(rig.run([](deep::mpi::Mpi& mpi) {
                 da::StencilConfig cfg;
                 cfg.iterations = 0;
                 da::run_jacobi(mpi, mpi.world(), cfg);
               }),
               deep::util::UsageError);
}

namespace {

// The two-grid Jacobi sweep run_jacobi used before it went in place, kept
// verbatim (minus checkpointing) as the reference its results must match
// bit for bit.
da::StencilResult reference_jacobi(deep::mpi::Mpi& mpi,
                                   const deep::mpi::Comm& comm,
                                   const da::StencilConfig& config) {
  const int nx = config.nx;
  const int rows = config.rows;
  const int size = comm.size();
  const int me = comm.rank();
  const int up = me - 1;
  const int down = me + 1;
  const auto idx = [nx](int r, int c) {
    return static_cast<std::size_t>(r) * nx + c;
  };
  std::vector<double> grid(static_cast<std::size_t>(rows + 2) * nx, 0.0);
  std::vector<double> next(grid.size(), 0.0);
  if (me == 0)
    for (int c = 0; c < nx; ++c) grid[idx(0, c)] = config.top_value;

  std::int64_t halo_messages = 0;
  double last_update = 0.0;
  constexpr deep::mpi::Tag kUpTag = 71, kDownTag = 72;
  for (int iter = 0; iter < config.iterations; ++iter) {
    std::vector<deep::mpi::RequestPtr> reqs;
    const std::span<double> top_halo(&grid[idx(0, 0)], static_cast<std::size_t>(nx));
    const std::span<double> bot_halo(&grid[idx(rows + 1, 0)],
                                     static_cast<std::size_t>(nx));
    const std::span<const double> top_row(&grid[idx(1, 0)],
                                          static_cast<std::size_t>(nx));
    const std::span<const double> bot_row(&grid[idx(rows, 0)],
                                          static_cast<std::size_t>(nx));
    if (up >= 0) {
      reqs.push_back(mpi.irecv<double>(comm, up, kDownTag, top_halo));
      reqs.push_back(mpi.isend<double>(comm, up, kUpTag, top_row));
      halo_messages += 2;
    }
    if (down < size) {
      reqs.push_back(mpi.irecv<double>(comm, down, kUpTag, bot_halo));
      reqs.push_back(mpi.isend<double>(comm, down, kDownTag, bot_row));
      halo_messages += 2;
    }
    mpi.wait_all(reqs);

    last_update = 0.0;
    for (int r = 1; r <= rows; ++r) {
      for (int c = 1; c < nx - 1; ++c) {
        const double v = 0.25 * (grid[idx(r - 1, c)] + grid[idx(r + 1, c)] +
                                 grid[idx(r, c - 1)] + grid[idx(r, c + 1)]);
        last_update = std::max(last_update, std::abs(v - grid[idx(r, c)]));
        next[idx(r, c)] = v;
      }
      next[idx(r, 0)] = grid[idx(r, 0)];
      next[idx(r, nx - 1)] = grid[idx(r, nx - 1)];
    }
    std::copy_n(&grid[idx(0, 0)], nx, &next[idx(0, 0)]);
    std::copy_n(&grid[idx(rows + 1, 0)], nx, &next[idx(rows + 1, 0)]);
    grid.swap(next);
  }

  double local_sum = 0.0;
  for (int r = 1; r <= rows; ++r)
    for (int c = 0; c < nx; ++c) local_sum += grid[idx(r, c)];

  da::StencilResult result;
  const double in_max[1] = {last_update};
  double out_max[1];
  mpi.allreduce<double>(comm, deep::mpi::Op::Max, in_max, out_max);
  const double in_sum[1] = {local_sum};
  double out_sum[1];
  mpi.allreduce<double>(comm, deep::mpi::Op::Sum, in_sum, out_sum);
  result.residual = out_max[0];
  result.checksum = out_sum[0];
  result.halo_messages = halo_messages;
  return result;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

// The in-place sweep must reproduce the two-grid sweep exactly: same
// residual and checksum bits.  The widths hit every tail length of the
// sweep's 4-lane max loop (interior width nx - 2 = 1..5, 22, 255).
TEST(Stencil, SweepBitIdenticalToReference) {
  for (const int ranks : {1, 3}) {
    for (const int nx : {3, 4, 5, 6, 7, 24, 257}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " nx=" + std::to_string(nx));
      da::StencilConfig cfg;
      cfg.nx = nx;
      cfg.rows = 5;
      cfg.iterations = 30;
      cfg.top_value = 0.7;  // not dyadic, so every sum rounds
      MpiRig rig(ranks);
      rig.run([&](deep::mpi::Mpi& mpi) {
        const auto got = da::run_jacobi(mpi, mpi.world(), cfg);
        const auto want = reference_jacobi(mpi, mpi.world(), cfg);
        EXPECT_GT(want.residual, 0.0);
        EXPECT_EQ(bits(got.residual), bits(want.residual));
        EXPECT_EQ(bits(got.checksum), bits(want.checksum));
        EXPECT_EQ(got.halo_messages, want.halo_messages);
      });
    }
  }
}

// A run that loses a booster node, restores from a checkpoint and replays
// must end with the fault-free run's bits, and both with the reference's.
TEST(Stencil, CheckpointRestoreBitIdenticalToReference) {
  constexpr std::int64_t kUs = 1'000'000;  // picoseconds per microsecond
  deep::testing::ResiliencyConfig rcfg;  // stencil, 2 CN + 2 BN ranks
  const auto fault_free = deep::testing::run_resiliency(rcfg, {});
  deep::net::FaultSpec kill;
  kill.seed = 3;
  kill.nodes.push_back({deep::sim::TimePoint{400 * kUs}, 2, false});
  kill.nodes.push_back({deep::sim::TimePoint{900 * kUs}, 2, true});
  const auto restored = deep::testing::run_resiliency(rcfg, kill);
  ASSERT_TRUE(fault_free.completed);
  ASSERT_TRUE(restored.completed);
  EXPECT_GT(restored.restores, 0) << "the kill must force a checkpoint restore";
  EXPECT_EQ(bits(restored.checksum), bits(fault_free.checksum));
  EXPECT_EQ(bits(restored.quality), bits(fault_free.quality));

  // The same global problem through the reference sweep (same decomposition,
  // so the same summation order in the reductions).
  da::StencilResult want;
  MpiRig rig(rcfg.cluster_ranks + rcfg.booster_ranks);
  rig.run([&](deep::mpi::Mpi& mpi) {
    da::StencilConfig cfg;
    cfg.nx = 32;
    cfg.rows = 8;
    cfg.iterations = rcfg.iterations;
    const auto r = reference_jacobi(mpi, mpi.world(), cfg);
    if (mpi.rank() == 0) want = r;
  });
  EXPECT_EQ(bits(fault_free.checksum), bits(want.checksum));
  EXPECT_EQ(bits(fault_free.quality), bits(want.residual));
}

TEST(Irregular, CompletesOnBothFabrics) {
  da::IrregularConfig cfg;
  cfg.rounds = 5;
  cfg.bytes = 4096;
  cfg.flops_per_round = 1e6;
  MpiRig rig(6);
  rig.run([&](deep::mpi::Mpi& mpi) {
    da::run_irregular_exchange(mpi, mpi.world(), cfg);
  });
  // And across the bridged system.
  BridgedMpiRig brig(3, 3, 1);
  brig.run([&](deep::mpi::Mpi& mpi) {
    da::run_irregular_exchange(mpi, mpi.world(), cfg);
  });
}

TEST(Irregular, DeterministicPairing) {
  auto run_once = [] {
    MpiRig rig(8);
    std::int64_t end_ps = 0;
    rig.run([&](deep::mpi::Mpi& mpi) {
      da::IrregularConfig cfg;
      cfg.rounds = 10;
      cfg.bytes = 1024;
      da::run_irregular_exchange(mpi, mpi.world(), cfg);
      end_ps = mpi.ctx().now().ps;
    });
    return end_ps;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// N-body (compute-bound HSCP)
// ---------------------------------------------------------------------------

#include "apps/nbody.hpp"

TEST(NBody, InitialMomentumIsZero) {
  da::NBodyConfig cfg;
  cfg.bodies_per_rank = 32;
  for (int rank = 0; rank < 4; ++rank) {
    const auto bodies = da::make_bodies(rank, cfg);
    double px = 0, py = 0, pz = 0;
    for (const auto& b : bodies) {
      px += b.mass * b.vx;
      py += b.mass * b.vy;
      pz += b.mass * b.vz;
    }
    EXPECT_NEAR(px, 0, 1e-12);
    EXPECT_NEAR(py, 0, 1e-12);
    EXPECT_NEAR(pz, 0, 1e-12);
  }
}

TEST(NBody, MomentumConservedOverSteps) {
  MpiRig rig(4);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::NBodyConfig cfg;
    cfg.bodies_per_rank = 16;
    cfg.steps = 10;
    const auto r = da::run_nbody(mpi, mpi.world(), cfg);
    EXPECT_NEAR(r.momentum[0], 0, 1e-9);
    EXPECT_NEAR(r.momentum[1], 0, 1e-9);
    EXPECT_NEAR(r.momentum[2], 0, 1e-9);
    EXPECT_GT(r.kinetic, 0);
    EXPECT_GT(r.checksum, 0);
  });
}

TEST(NBody, DistributionInvariant) {
  // The same global problem gives the same checksum on 1 and 4 ranks...
  // (requires the same TOTAL body count, so scale bodies_per_rank.)
  double seq = 0, par = 0;
  {
    MpiRig rig(1);
    rig.run([&](deep::mpi::Mpi& mpi) {
      da::NBodyConfig cfg;
      cfg.bodies_per_rank = 32;
      cfg.steps = 3;
      // Single rank with rank-0 seed block only: compare against a 1-rank
      // slice of itself run twice for determinism instead.
      seq = da::run_nbody(mpi, mpi.world(), cfg).checksum;
    });
  }
  {
    MpiRig rig(1);
    rig.run([&](deep::mpi::Mpi& mpi) {
      da::NBodyConfig cfg;
      cfg.bodies_per_rank = 32;
      cfg.steps = 3;
      par = da::run_nbody(mpi, mpi.world(), cfg).checksum;
    });
  }
  EXPECT_DOUBLE_EQ(seq, par);
}

TEST(NBody, RunsOnBoosterTorus) {
  deep::testing::BoosterRig rig(8);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::NBodyConfig cfg;
    cfg.bodies_per_rank = 8;
    cfg.steps = 2;
    const auto r = da::run_nbody(mpi, mpi.world(), cfg);
    EXPECT_NEAR(r.momentum[0], 0, 1e-9);
  });
}

TEST(NBody, InvalidConfigRejected) {
  da::NBodyConfig cfg;
  cfg.bodies_per_rank = 3;  // odd
  EXPECT_THROW(da::make_bodies(0, cfg), deep::util::UsageError);
}

namespace {

// The pair loop run_nbody used before its force loop went body-innermost,
// kept verbatim as the reference nbody_forces must match bit for bit.
void reference_forces(const std::vector<double>& all_pos,
                      const std::vector<da::Body>& mine, int first, double eps2,
                      std::vector<double>& fx, std::vector<double>& fy,
                      std::vector<double>& fz) {
  const int local = static_cast<int>(mine.size());
  const int total = static_cast<int>(all_pos.size() / 4);
  for (int i = 0; i < local; ++i) {
    const da::Body& b = mine[static_cast<std::size_t>(i)];
    double ax = 0, ay = 0, az = 0;
    const int me_global = first + i;
    for (int j = 0; j < total; ++j) {
      if (j == me_global) continue;
      const double* p = &all_pos[static_cast<std::size_t>(j) * 4];
      const double dx = p[0] - b.x, dy = p[1] - b.y, dz = p[2] - b.z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv_r = 1.0 / std::sqrt(r2);
      const double f = p[3] * inv_r * inv_r * inv_r;
      ax += f * dx;
      ay += f * dy;
      az += f * dz;
    }
    fx[static_cast<std::size_t>(i)] = ax;
    fy[static_cast<std::size_t>(i)] = ay;
    fz[static_cast<std::size_t>(i)] = az;
  }
}

}  // namespace

// Three ranks, so the self bodies sit in the first, middle and last block.
TEST(NBody, ForcesBitIdenticalToPairLoop) {
  constexpr int kRanks = 3;
  for (const int per_rank : {2, 6, 32}) {
    da::NBodyConfig cfg;
    cfg.bodies_per_rank = per_rank;
    deep::util::Rng rng(static_cast<std::uint64_t>(per_rank));
    std::vector<std::vector<da::Body>> blocks;
    std::vector<double> all_pos;
    for (int r = 0; r < kRanks; ++r) {
      blocks.push_back(da::make_bodies(r, cfg));
      for (da::Body& b : blocks.back()) {
        b.mass = rng.uniform(0.5, 2.0);
        all_pos.insert(all_pos.end(), {b.x, b.y, b.z, b.mass});
      }
    }
    const double eps2 = cfg.softening * cfg.softening;
    for (int r = 0; r < kRanks; ++r) {
      SCOPED_TRACE("per_rank=" + std::to_string(per_rank) +
                   " rank=" + std::to_string(r));
      const auto n = static_cast<std::size_t>(per_rank);
      std::vector<double> fx(n), fy(n), fz(n), wx(n), wy(n), wz(n);
      da::nbody_forces(all_pos, blocks[static_cast<std::size_t>(r)],
                       r * per_rank, eps2, fx, fy, fz);
      reference_forces(all_pos, blocks[static_cast<std::size_t>(r)],
                       r * per_rank, eps2, wx, wy, wz);
      EXPECT_TRUE(same_bytes(fx, wx));
      EXPECT_TRUE(same_bytes(fy, wy));
      EXPECT_TRUE(same_bytes(fz, wz));
    }
  }
}

TEST(NBody, FlopsModel) {
  EXPECT_DOUBLE_EQ(da::nbody_flops_per_rank(1000, 100), 20.0 * 1000 * 100);
}

// ---------------------------------------------------------------------------
// SpMV (the paper's named scalable-code class, slide 9)
// ---------------------------------------------------------------------------

#include "apps/spmv.hpp"

TEST(Spmv, MatrixIsDeterministicAndDominant) {
  da::SpmvConfig cfg;
  const auto a1 = da::make_banded_matrix(1, 4, cfg);
  const auto a2 = da::make_banded_matrix(1, 4, cfg);
  EXPECT_EQ(a1.col, a2.col);
  EXPECT_EQ(a1.val, a2.val);
  EXPECT_EQ(a1.first_row, cfg.rows_per_rank);
  // Each row: |diagonal| > sum of |off-diagonals| (dominance).
  for (int i = 0; i < a1.rows; ++i) {
    double diag = 0, off = 0;
    for (int k = a1.row_ptr[static_cast<std::size_t>(i)];
         k < a1.row_ptr[static_cast<std::size_t>(i + 1)]; ++k) {
      if (a1.col[static_cast<std::size_t>(k)] == a1.first_row + i)
        diag = a1.val[static_cast<std::size_t>(k)];
      else
        off += std::abs(a1.val[static_cast<std::size_t>(k)]);
    }
    ASSERT_GT(diag, off);
  }
}

TEST(Spmv, BandRespectedSoHaloSuffices) {
  da::SpmvConfig cfg;
  cfg.rows_per_rank = 64;
  cfg.band = 8;
  for (int rank = 0; rank < 3; ++rank) {
    const auto a = da::make_banded_matrix(rank, 3, cfg);
    for (int i = 0; i < a.rows; ++i) {
      const int row = a.first_row + i;
      for (int k = a.row_ptr[static_cast<std::size_t>(i)];
           k < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++k)
        ASSERT_LE(std::abs(a.col[static_cast<std::size_t>(k)] - row), cfg.band);
    }
  }
}

TEST(Spmv, DistributedMatchesSequential) {
  // Same global problem on 1 vs 4 ranks: identical eigenvalue & checksum.
  da::SpmvConfig cfg;
  cfg.rows_per_rank = 32;  // per rank when distributed
  cfg.band = 8;
  cfg.iterations = 8;
  double seq_eig = 0, seq_sum = 0, par_eig = 0, par_sum = 0;
  {
    MpiRig rig(1);
    auto scfg = cfg;
    scfg.rows_per_rank = 32 * 4;
    rig.run([&](deep::mpi::Mpi& mpi) {
      const auto r = da::run_spmv_power(mpi, mpi.world(), scfg);
      seq_eig = r.eigenvalue;
      seq_sum = r.checksum;
    });
  }
  {
    MpiRig rig(4);
    rig.run([&](deep::mpi::Mpi& mpi) {
      const auto r = da::run_spmv_power(mpi, mpi.world(), cfg);
      par_eig = r.eigenvalue;
      par_sum = r.checksum;
      EXPECT_GT(r.halo_bytes, 0);
    });
  }
  EXPECT_NEAR(seq_eig, par_eig, 1e-9 * std::abs(seq_eig));
  EXPECT_NEAR(seq_sum, par_sum, 1e-9 * std::abs(seq_sum));
}

TEST(Spmv, PowerIterationConverges) {
  MpiRig rig(2);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::SpmvConfig cfg;
    cfg.iterations = 3;
    const auto early = da::run_spmv_power(mpi, mpi.world(), cfg);
    cfg.iterations = 30;
    const auto late = da::run_spmv_power(mpi, mpi.world(), cfg);
    cfg.iterations = 60;
    const auto later = da::run_spmv_power(mpi, mpi.world(), cfg);
    // Rayleigh quotient stabilises as the iteration converges.
    EXPECT_LT(std::abs(later.eigenvalue - late.eigenvalue),
              std::abs(late.eigenvalue - early.eigenvalue) + 1e-12);
    EXPECT_GT(later.eigenvalue, 2.0);  // dominated by the shifted diagonal
  });
}

TEST(Spmv, RunsOnBoosterAtScale) {
  deep::testing::BoosterRig rig(16);
  rig.run([](deep::mpi::Mpi& mpi) {
    da::SpmvConfig cfg;
    cfg.rows_per_rank = 64;
    cfg.iterations = 4;
    const auto r = da::run_spmv_power(mpi, mpi.world(), cfg);
    EXPECT_GT(r.eigenvalue, 0);
  });
}

namespace {

// The std::set build make_banded_matrix used before it went to a sorted
// vector, kept verbatim as the reference its output must match.
da::CsrBlock reference_banded_matrix(int rank, int nranks,
                                     const da::SpmvConfig& config) {
  const int n = config.rows_per_rank * nranks;
  da::CsrBlock block;
  block.first_row = rank * config.rows_per_rank;
  block.rows = config.rows_per_rank;
  block.row_ptr.push_back(0);
  for (int local = 0; local < block.rows; ++local) {
    const int row = block.first_row + local;
    deep::util::Rng rng(config.seed +
                        static_cast<std::uint64_t>(row) * 2654435761u);
    std::set<int> cols;
    while (static_cast<int>(cols.size()) < config.nnz_per_row - 1) {
      const int offset =
          1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(config.band)));
      const int c = rng.chance(0.5) ? row - offset : row + offset;
      if (c >= 0 && c < n && c != row) cols.insert(c);
      if (row < config.band || row >= n - config.band) {
        if (static_cast<int>(cols.size()) >= config.nnz_per_row - 3) break;
      }
    }
    double offdiag_sum = 0;
    for (const int c : cols) {
      const double v = -rng.uniform(0.1, 1.0);
      block.col.push_back(c);
      block.val.push_back(v);
      offdiag_sum += std::abs(v);
    }
    block.col.push_back(row);
    block.val.push_back(offdiag_sum + 2.0);
    block.row_ptr.push_back(static_cast<int>(block.col.size()));
  }
  return block;
}

// The row-at-a-time power iteration run_spmv_power used before its
// multiply interleaved rows, kept (minus checkpointing) as the reference
// its results must match bit for bit.
da::SpmvResult reference_spmv_power(deep::mpi::Mpi& mpi,
                                    const deep::mpi::Comm& comm,
                                    const da::SpmvConfig& config) {
  const int nranks = comm.size();
  const int me = comm.rank();
  const int m = config.rows_per_rank;
  const da::CsrBlock a = reference_banded_matrix(me, nranks, config);
  const int band = config.band;
  std::vector<double> x(static_cast<std::size_t>(m + 2 * band), 0.0);
  std::vector<double> y(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) x[static_cast<std::size_t>(band + i)] = 1.0;
  const auto xg = [&](int global_col) {
    return x[static_cast<std::size_t>(global_col - a.first_row + band)];
  };
  da::SpmvResult result;
  constexpr deep::mpi::Tag kLeftTag = 91, kRightTag = 92;
  double eigen = 0;
  for (int iter = 0; iter < config.iterations; ++iter) {
    std::vector<deep::mpi::RequestPtr> reqs;
    const std::span<double> xs(x);
    const auto b = static_cast<std::size_t>(band);
    if (me > 0) {
      reqs.push_back(mpi.irecv<double>(comm, me - 1, kRightTag, xs.subspan(0, b)));
      reqs.push_back(mpi.isend<double>(comm, me - 1, kLeftTag,
                                       std::span<const double>(xs.subspan(b, b))));
      result.halo_bytes += 2 * band * 8;
    }
    if (me + 1 < nranks) {
      reqs.push_back(mpi.irecv<double>(
          comm, me + 1, kLeftTag, xs.subspan(static_cast<std::size_t>(band + m), b)));
      reqs.push_back(mpi.isend<double>(
          comm, me + 1, kRightTag,
          std::span<const double>(xs.subspan(static_cast<std::size_t>(m), b))));
      result.halo_bytes += 2 * band * 8;
    }
    mpi.wait_all(reqs);
    for (int i = 0; i < m; ++i) {
      double s = 0;
      for (int k = a.row_ptr[static_cast<std::size_t>(i)];
           k < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++k)
        s += a.val[static_cast<std::size_t>(k)] * xg(a.col[static_cast<std::size_t>(k)]);
      y[static_cast<std::size_t>(i)] = s;
    }
    double local[2] = {0, 0};
    for (int i = 0; i < m; ++i) {
      local[0] += x[static_cast<std::size_t>(band + i)] * y[static_cast<std::size_t>(i)];
      local[1] += y[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
    }
    double global[2];
    mpi.allreduce<double>(comm, deep::mpi::Op::Sum, std::span<const double>(local, 2),
                          std::span<double>(global, 2));
    eigen = global[0];
    const double inv_norm = 1.0 / std::sqrt(global[1]);
    for (int i = 0; i < m; ++i)
      x[static_cast<std::size_t>(band + i)] = y[static_cast<std::size_t>(i)] * inv_norm;
  }
  double local_sum = 0;
  for (int i = 0; i < m; ++i) local_sum += x[static_cast<std::size_t>(band + i)];
  const double in_sum[1] = {local_sum};
  double global_sum[1];
  mpi.allreduce<double>(comm, deep::mpi::Op::Sum, in_sum, global_sum);
  result.eigenvalue = eigen;
  result.checksum = global_sum[0];
  return result;
}

// (rows_per_rank, band, nnz_per_row): row counts that leave 1-3 rows after
// the last run of 4, and bands narrow enough that edge rows come out short,
// so runs of unequal row lengths fall back to one row at a time.  The
// builder needs band >= nnz_per_row - 3 and 2 * band >= nnz_per_row - 1, or
// a row never fills; {9, 2, 4} sits on the second bound.
struct SpmvShape {
  int rows;
  int band;
  int nnz;
};
constexpr SpmvShape kSpmvShapes[] = {
    {5, 4, 7}, {6, 3, 5}, {7, 5, 8}, {8, 4, 6}, {9, 2, 4}, {13, 6, 8},
    {130, 16, 8}};

}  // namespace

TEST(Spmv, MatrixBuildMatchesSetReference) {
  for (const SpmvShape& shape : kSpmvShapes) {
    for (const int nranks : {1, 3}) {
      da::SpmvConfig cfg;
      cfg.rows_per_rank = shape.rows;
      cfg.band = shape.band;
      cfg.nnz_per_row = shape.nnz;
      for (int rank = 0; rank < nranks; ++rank) {
        SCOPED_TRACE("rows=" + std::to_string(shape.rows) +
                     " nranks=" + std::to_string(nranks) +
                     " rank=" + std::to_string(rank));
        const auto got = da::make_banded_matrix(rank, nranks, cfg);
        const auto want = reference_banded_matrix(rank, nranks, cfg);
        EXPECT_EQ(got.first_row, want.first_row);
        EXPECT_EQ(got.rows, want.rows);
        EXPECT_EQ(got.row_ptr, want.row_ptr);
        EXPECT_EQ(got.col, want.col);
        ASSERT_EQ(got.val.size(), want.val.size());
        for (std::size_t k = 0; k < got.val.size(); ++k)
          EXPECT_EQ(bits(got.val[k]), bits(want.val[k])) << "k=" << k;
      }
    }
  }
}

// The interleaved multiply must reproduce the row-at-a-time loop exactly:
// same eigenvalue and checksum bits.
TEST(Spmv, KernelBitIdenticalToReference) {
  bool saw_short_row = false;
  for (const SpmvShape& shape : kSpmvShapes) {
    for (const int nranks : {1, 3}) {
      SCOPED_TRACE("rows=" + std::to_string(shape.rows) +
                   " nranks=" + std::to_string(nranks));
      da::SpmvConfig cfg;
      cfg.rows_per_rank = shape.rows;
      cfg.band = shape.band;
      cfg.nnz_per_row = shape.nnz;
      cfg.iterations = 12;
      const auto a = da::make_banded_matrix(0, nranks, cfg);
      for (int i = 0; i < a.rows; ++i)
        if (a.row_ptr[static_cast<std::size_t>(i + 1)] -
                a.row_ptr[static_cast<std::size_t>(i)] < shape.nnz)
          saw_short_row = true;
      MpiRig rig(nranks);
      rig.run([&](deep::mpi::Mpi& mpi) {
        const auto got = da::run_spmv_power(mpi, mpi.world(), cfg);
        const auto want = reference_spmv_power(mpi, mpi.world(), cfg);
        EXPECT_GT(want.eigenvalue, 0.0);
        EXPECT_EQ(bits(got.eigenvalue), bits(want.eigenvalue));
        EXPECT_EQ(bits(got.checksum), bits(want.checksum));
        EXPECT_EQ(got.halo_bytes, want.halo_bytes);
      });
    }
  }
  EXPECT_TRUE(saw_short_row) << "no shape exercised the unequal-row fallback";
}

TEST(Spmv, InvalidConfigRejected) {
  da::SpmvConfig cfg;
  cfg.band = cfg.rows_per_rank;  // halo would need to reach beyond neighbours
  EXPECT_THROW(da::make_banded_matrix(0, 2, cfg), deep::util::UsageError);
  // Bands too narrow for the row's columns: the build used to never return.
  // (band 4, nnz 8): edge rows need 5 distinct columns from 4 candidates;
  // (band 1, nnz 4): interior rows need 3 from 2.
  for (const auto& [band, nnz] : {std::pair{4, 8}, {1, 4}}) {
    cfg.band = band;
    cfg.nnz_per_row = nnz;
    try {
      da::make_banded_matrix(0, 2, cfg);
      ADD_FAILURE() << "band " << band << " nnz " << nnz << " not rejected";
    } catch (const deep::util::UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("band"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("nnz_per_row"), std::string::npos);
    }
  }
  // The narrowest bands that fill every row still build.
  for (const auto& [band, nnz] : {std::pair{5, 8}, {2, 4}}) {
    cfg.band = band;
    cfg.nnz_per_row = nnz;
    EXPECT_NO_THROW(da::make_banded_matrix(0, 2, cfg));
  }
}
