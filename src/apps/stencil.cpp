#include "apps/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "apps/ckpt_state.hpp"
#include "ckpt/checkpoint.hpp"
#include "hw/compute.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deep::apps {

namespace {

/// Two doubles in one SSE2 register, as a GCC vector extension: no
/// intrinsics, no -march.  Each lane rounds exactly like scalar code.
/// f64x2u is the same vector at any double's address (as <emmintrin.h>
/// declares __m128d_u).
using f64x2 = double __attribute__((vector_size(16)));
using f64x2u = double __attribute__((vector_size(16), aligned(8), may_alias));
using i64x2 = std::int64_t __attribute__((vector_size(16)));

f64x2 load2(const double* p) { return *reinterpret_cast<const f64x2u*>(p); }

void store2(double* p, f64x2 v) { *reinterpret_cast<f64x2u*>(p) = v; }

/// One in-place 5-point Jacobi sweep over the interior rows 1..rows of the
/// row-major (rows + 2) x nx `grid`; halo rows 0 and rows+1 and the edge
/// columns keep their values.  `scratch` holds two nx-cell rows.  One pass
/// per row r computes new row r into scratch row r % 2 and, in the same
/// column right after old row r-1's last read, writes new row r-1 from the
/// other scratch row over it.  Each cell keeps the association
/// 0.25 * (((N + S) + W) + E), so the grid is bit-identical to a two-grid
/// sweep.  With kResidual the pass also folds |new - old| and returns its
/// maximum over the interior cells; without it, it returns 0.
template <bool kResidual>
double sweep_in_place(double* grid, int nx, int rows, double* scratch) {
  const auto width = static_cast<std::size_t>(nx);
  const int last = nx - 1;  // edge column, like column 0
  const auto fresh = [&](int r) { return scratch + (r % 2) * width; };
  const f64x2 quarter = {0.25, 0.25};
  const i64x2 magnitude = {INT64_MAX, INT64_MAX};  // every bit but the sign
  // Four independent 2-lane running maxima plus one for the tail, so no
  // step waits on the one before.  `d > m ? d : m` keeps m when d is NaN,
  // as std::max(m, d) does; max is exact and independent of order, so
  // reducing the lanes at the end gives the same bits as one running max.
  f64x2 lane[4] = {};
  double max_update = 0.0;  // the tail's, then every lane's
  for (int r = 1; r <= rows; ++r) {
    double* row = grid + r * width;
    double* up = row - width;
    const double* down = row + width;
    double* out = fresh(r);
    // New row r-1; for r == 1 the halo row itself, which then stays as is.
    const double* done = r > 1 ? fresh(r - 1) : up;
    const auto step = [&](int c, f64x2& m) {
      const f64x2 v = quarter * (((load2(up + c) + load2(down + c)) +
                                  load2(row + c - 1)) +
                                 load2(row + c + 1));
      if constexpr (kResidual) {
        const f64x2 d = (f64x2)((i64x2)(v - load2(row + c)) & magnitude);
        m = d > m ? d : m;
      }
      store2(out + c, v);
      store2(up + c, load2(done + c));  // old row r-1 had its last read
    };
    int c = 1;
    for (; c + 8 <= last; c += 8) {
      step(c, lane[0]);
      step(c + 2, lane[1]);
      step(c + 4, lane[2]);
      step(c + 6, lane[3]);
    }
    for (; c < last; ++c) {
      const double v = 0.25 * (((up[c] + down[c]) + row[c - 1]) + row[c + 1]);
      if constexpr (kResidual) {
        const double d = std::abs(v - row[c]);
        max_update = d > max_update ? d : max_update;
      }
      out[c] = v;
      up[c] = done[c];
    }
  }
  std::copy(fresh(rows) + 1, fresh(rows) + last, grid + rows * width + 1);
  for (const f64x2 m : lane)
    for (const double d : {m[0], m[1]})
      max_update = d > max_update ? d : max_update;
  return max_update;
}

}  // namespace

double jacobi_sweep(std::span<double> grid, int nx, int rows,
                    std::span<double> scratch) {
  DEEP_EXPECT(nx >= 3 && rows >= 1 &&
                  grid.size() == static_cast<std::size_t>(rows + 2) * nx &&
                  scratch.size() >= 2 * static_cast<std::size_t>(nx),
              "jacobi_sweep: bad shape");
  return sweep_in_place<true>(grid.data(), nx, rows, scratch.data());
}

StencilResult run_jacobi(mpi::Mpi& mpi, const mpi::Comm& comm,
                         const StencilConfig& config) {
  DEEP_EXPECT(config.nx >= 3 && config.rows >= 1 && config.iterations >= 1,
              "run_jacobi: bad configuration");
  const int nx = config.nx;
  const int rows = config.rows;
  const int size = comm.size();
  const int me = comm.rank();
  const int up = me - 1;    // owns the rows above us (-1: global top edge)
  const int down = me + 1;  // below (size: global bottom edge)

  // Grid with halo rows 0 and rows+1; row-major.
  const auto idx = [nx](int r, int c) {
    return static_cast<std::size_t>(r) * nx + c;
  };
  std::vector<double> grid(static_cast<std::size_t>(rows + 2) * nx, 0.0);
  std::vector<double> scratch(2 * static_cast<std::size_t>(nx));  // 2 rows
  if (me == 0)
    for (int c = 0; c < nx; ++c) grid[idx(0, c)] = config.top_value;

  std::int64_t halo_messages = 0;
  double last_update = 0.0;
  constexpr mpi::Tag kUpTag = 71, kDownTag = 72;

  // Roll back to the planned checkpoint, if any: version v is the state
  // after completing iteration v-1, so the loop resumes at iter == v.
  int start_iter = 0;
  if (config.ckpt != nullptr) {
    if (auto restored = config.ckpt->restore(mpi.ctx())) {
      std::span<const std::byte> in(restored->bytes);
      detail::unpack(in, std::span<double>(grid));
      detail::unpack(in, std::span<double>(&last_update, 1));
      start_iter = static_cast<int>(restored->version);
    }
  }

  std::vector<mpi::RequestPtr> reqs;
  reqs.reserve(4);
  for (int iter = start_iter; iter < config.iterations; ++iter) {
    // Halo exchange: send my top interior row up, bottom interior row down.
    reqs.clear();
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

    // Real 5-point sweep on the interior; fixed left/right edges.  The
    // residual is read only after the last iteration and by a checkpoint,
    // so only those sweeps compute it.  The sweep runs while the rank burns
    // its modelled time: nothing reads the grid before that time is over.
    const bool save = config.ckpt != nullptr && config.ckpt->interval() > 0 &&
                      (iter + 1) % config.ckpt->interval() == 0;
    const bool residual = save || iter + 1 == config.iterations;
    mpi.compute(hw::kernels::jacobi2d(nx, rows), mpi.node().spec().cores, [&] {
      if (residual)
        last_update = jacobi_sweep(grid, nx, rows, scratch);
      else
        sweep_in_place<false>(grid.data(), nx, rows, scratch.data());
    });

    if (save) {
      std::vector<std::byte> state;
      detail::pack(state, std::span<const double>(grid));
      detail::pack(state, std::span<const double>(&last_update, 1));
      config.ckpt->save(mpi.ctx(), static_cast<std::uint64_t>(iter + 1),
                        std::move(state));
    }
  }

  // Global reductions: residual (max) and checksum (sum).
  double local_sum = 0.0;
  for (int r = 1; r <= rows; ++r)
    for (int c = 0; c < nx; ++c) local_sum += grid[idx(r, c)];

  StencilResult result;
  const double in_max[1] = {last_update};
  double out_max[1];
  mpi.allreduce<double>(comm, mpi::Op::Max, in_max, out_max);
  const double in_sum[1] = {local_sum};
  double out_sum[1];
  mpi.allreduce<double>(comm, mpi::Op::Sum, in_sum, out_sum);
  result.residual = out_max[0];
  result.checksum = out_sum[0];
  result.halo_messages = halo_messages;
  return result;
}

void run_irregular_exchange(mpi::Mpi& mpi, const mpi::Comm& comm,
                            const IrregularConfig& config) {
  DEEP_EXPECT(config.rounds >= 1 && config.bytes >= 1,
              "run_irregular_exchange: bad configuration");
  const int n = comm.size();
  const int me = comm.rank();
  std::vector<std::byte> sbuf(static_cast<std::size_t>(config.bytes));
  std::vector<std::byte> rbuf(static_cast<std::size_t>(config.bytes));

  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int round = 0; round < config.rounds; ++round) {
    // All ranks derive the same random pairing for this round.
    util::Rng rng(config.seed + static_cast<std::uint64_t>(round) * 7919);
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[rng.below(static_cast<std::uint64_t>(i + 1))]);
    // perm defines a pairing: partner of perm[2k] is perm[2k+1].
    int partner = me;
    for (int k = 0; k + 1 < n; k += 2) {
      if (perm[static_cast<std::size_t>(k)] == me)
        partner = perm[static_cast<std::size_t>(k + 1)];
      if (perm[static_cast<std::size_t>(k + 1)] == me)
        partner = perm[static_cast<std::size_t>(k)];
    }
    if (partner != me) {
      mpi.sendrecv_bytes(comm, partner, 80 + round, sbuf, partner, 80 + round,
                         rbuf);
    }
    mpi.compute({config.flops_per_round, 0.0, 0.0}, 1);
  }
}

}  // namespace deep::apps
