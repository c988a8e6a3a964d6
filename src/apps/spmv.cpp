#include "apps/spmv.hpp"

#include <algorithm>
#include <cmath>

#include "apps/ckpt_state.hpp"
#include "ckpt/checkpoint.hpp"
#include "hw/compute.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deep::apps {

namespace {

// y = A x, with a.col already turned into indices into x.  Runs of 4
// consecutive rows of equal length are summed side by side, so the loop
// carries 4 independent add chains instead of one.  Every row still sums
// val[k] * x[col[k]] in ascending k starting from 0, so each y[i] has the
// bits of a row-at-a-time loop.
void csr_multiply(const CsrBlock& a, const double* x, double* y) {
  const int* ptr = a.row_ptr.data();
  const int* col = a.col.data();
  const double* val = a.val.data();
  const auto row_dot = [&](int i) {
    double s = 0;
    for (int k = ptr[i]; k < ptr[i + 1]; ++k) s += val[k] * x[col[k]];
    return s;
  };
  int i = 0;
  for (; i + 4 <= a.rows; i += 4) {
    const int b0 = ptr[i];
    const int len = ptr[i + 1] - b0;
    if (ptr[i + 2] - ptr[i + 1] != len || ptr[i + 3] - ptr[i + 2] != len ||
        ptr[i + 4] - ptr[i + 3] != len) {
      for (int r = i; r < i + 4; ++r) y[r] = row_dot(r);
      continue;
    }
    const int b1 = b0 + len, b2 = b1 + len, b3 = b2 + len;
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (int k = 0; k < len; ++k) {
      s0 += val[b0 + k] * x[col[b0 + k]];
      s1 += val[b1 + k] * x[col[b1 + k]];
      s2 += val[b2 + k] * x[col[b2 + k]];
      s3 += val[b3 + k] * x[col[b3 + k]];
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < a.rows; ++i) y[i] = row_dot(i);
}

}  // namespace

CsrBlock make_banded_matrix(int rank, int nranks, const SpmvConfig& config) {
  DEEP_EXPECT(config.rows_per_rank >= 1 && config.band >= 1 &&
                  config.nnz_per_row >= 2,
              "make_banded_matrix: bad configuration");
  DEEP_EXPECT(config.band < config.rows_per_rank,
              "make_banded_matrix: band must be narrower than a rank's rows "
              "(halo only reaches the adjacent ranks)");
  // A row draws distinct columns from its band until it has enough: an edge
  // row nnz_per_row - 3 of as few as `band` candidates, an interior row
  // nnz_per_row - 1 of 2 * band.  Fewer candidates and it never finishes.
  DEEP_EXPECT(config.band >= config.nnz_per_row - 3 &&
                  2 * config.band >= config.nnz_per_row - 1,
              "make_banded_matrix: band too narrow for nnz_per_row (need "
              "band >= nnz_per_row - 3 and 2 * band >= nnz_per_row - 1)");
  const int n = config.rows_per_rank * nranks;
  const auto nnz = static_cast<std::size_t>(config.rows_per_rank) *
                   static_cast<std::size_t>(config.nnz_per_row);
  CsrBlock block;
  block.first_row = rank * config.rows_per_rank;
  block.rows = config.rows_per_rank;
  block.row_ptr.reserve(static_cast<std::size_t>(block.rows) + 1);
  block.col.reserve(nnz);
  block.val.reserve(nnz);
  block.row_ptr.push_back(0);
  // One row's distinct off-diagonal columns, kept sorted (reused per row).
  std::vector<int> cols;
  cols.reserve(static_cast<std::size_t>(config.nnz_per_row));
  for (int local = 0; local < block.rows; ++local) {
    const int row = block.first_row + local;
    // Deterministic per-row off-diagonal pattern (identical no matter which
    // rank generates it).
    util::Rng rng(config.seed + static_cast<std::uint64_t>(row) * 2654435761u);
    cols.clear();
    while (static_cast<int>(cols.size()) < config.nnz_per_row - 1) {
      const int offset =
          1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(config.band)));
      const int c = rng.chance(0.5) ? row - offset : row + offset;
      if (c >= 0 && c < n && c != row) {
        const auto at = std::lower_bound(cols.begin(), cols.end(), c);
        if (at == cols.end() || *at != c) cols.insert(at, c);
      }
      // Edge rows may not have enough valid columns in the band.
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
    // Diagonal dominance keeps the spectrum positive and well behaved.
    block.col.push_back(row);
    block.val.push_back(offdiag_sum + 2.0);
    block.row_ptr.push_back(static_cast<int>(block.col.size()));
  }
  return block;
}

SpmvResult run_spmv_power(mpi::Mpi& mpi, const mpi::Comm& comm,
                          const SpmvConfig& config) {
  DEEP_EXPECT(config.iterations >= 1, "run_spmv_power: need iterations");
  const int nranks = comm.size();
  const int me = comm.rank();
  const int m = config.rows_per_rank;
  CsrBlock a = make_banded_matrix(me, nranks, config);

  // x segment with halos: [band left | m local | band right].
  const int band = config.band;
  std::vector<double> x(static_cast<std::size_t>(m + 2 * band), 0.0);
  std::vector<double> y(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) x[static_cast<std::size_t>(band + i)] = 1.0;

  // Global columns -> indices into x, once for all iterations.
  for (int& c : a.col) {
    c = c - a.first_row + band;
    DEEP_ASSERT(c >= 0 && c < m + 2 * band, "spmv: column outside halo");
  }

  SpmvResult result;
  constexpr mpi::Tag kLeftTag = 91, kRightTag = 92;
  double eigen = 0;

  // Roll back to the planned checkpoint, if any.  The eigen estimate is
  // part of the state: a checkpoint at the final step must restore it even
  // though no further iteration recomputes it.
  int start_iter = 0;
  if (config.ckpt != nullptr) {
    if (auto restored = config.ckpt->restore(mpi.ctx())) {
      std::span<const std::byte> in(restored->bytes);
      detail::unpack(in, std::span<double>(x));
      detail::unpack(in, std::span<double>(&eigen, 1));
      start_iter = static_cast<int>(restored->version);
    }
  }

  std::vector<mpi::RequestPtr> reqs;
  reqs.reserve(4);
  for (int iter = start_iter; iter < config.iterations; ++iter) {
    // Halo exchange with the neighbouring ranks (regular pattern).
    const std::span<double> xs(x);
    if (me > 0) {
      reqs.push_back(mpi.irecv<double>(comm, me - 1, kRightTag,
                                       xs.subspan(0, static_cast<std::size_t>(band))));
      reqs.push_back(mpi.isend<double>(
          comm, me - 1, kLeftTag,
          std::span<const double>(xs.subspan(static_cast<std::size_t>(band),
                                             static_cast<std::size_t>(band)))));
      result.halo_bytes += 2 * band * 8;
    }
    if (me + 1 < nranks) {
      reqs.push_back(mpi.irecv<double>(
          comm, me + 1, kLeftTag,
          xs.subspan(static_cast<std::size_t>(band + m), static_cast<std::size_t>(band))));
      reqs.push_back(mpi.isend<double>(
          comm, me + 1, kRightTag,
          std::span<const double>(xs.subspan(static_cast<std::size_t>(m),
                                             static_cast<std::size_t>(band)))));
      result.halo_bytes += 2 * band * 8;
    }
    mpi.wait_all(reqs);
    reqs.clear();

    // y = A x (real CSR multiply over the banded block).
    csr_multiply(a, x.data(), y.data());
    // Rayleigh quotient + normalisation (global reductions).
    double local[2] = {0, 0};  // x.y, y.y
    for (int i = 0; i < m; ++i) {
      local[0] += x[static_cast<std::size_t>(band + i)] * y[static_cast<std::size_t>(i)];
      local[1] += y[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
    }
    double global[2];
    mpi.allreduce<double>(comm, mpi::Op::Sum, std::span<const double>(local, 2),
                          std::span<double>(global, 2));
    eigen = global[0];  // x normalised: x.Ax is the Rayleigh quotient
    const double inv_norm = 1.0 / std::sqrt(global[1]);
    for (int i = 0; i < m; ++i)
      x[static_cast<std::size_t>(band + i)] = y[static_cast<std::size_t>(i)] * inv_norm;

    // Modelled cost of the local multiply (memory-bound).
    mpi.compute(hw::kernels::spmv(a.row_ptr.back()), mpi.node().spec().cores);

    if (config.ckpt != nullptr && config.ckpt->interval() > 0 &&
        (iter + 1) % config.ckpt->interval() == 0) {
      std::vector<std::byte> state;
      detail::pack(state, std::span<const double>(x));
      detail::pack(state, std::span<const double>(&eigen, 1));
      config.ckpt->save(mpi.ctx(), static_cast<std::uint64_t>(iter + 1),
                        std::move(state));
    }
  }

  double local_sum = 0;
  for (int i = 0; i < m; ++i) local_sum += x[static_cast<std::size_t>(band + i)];
  double global_sum[1];
  const double in_sum[1] = {local_sum};
  mpi.allreduce<double>(comm, mpi::Op::Sum, std::span<const double>(in_sum, 1),
                        std::span<double>(global_sum, 1));
  result.eigenvalue = eigen;
  result.checksum = global_sum[0];
  return result;
}

}  // namespace deep::apps
