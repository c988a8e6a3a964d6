#include "apps/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "hw/compute.hpp"
#include "util/error.hpp"

namespace deep::apps {

TiledMatrix::TiledMatrix(int num_tiles, int tile_size)
    : nt_(num_tiles), ts_(tile_size) {
  DEEP_EXPECT(num_tiles >= 1 && tile_size >= 1, "TiledMatrix: bad dimensions");
  data_.assign(static_cast<std::size_t>(nt_) * nt_ * ts_ * ts_, 0.0);
}

std::span<double> TiledMatrix::tile(int i, int j) {
  DEEP_EXPECT(i >= 0 && i < nt_ && j >= 0 && j < nt_, "tile: out of range");
  const std::size_t elems = static_cast<std::size_t>(ts_) * ts_;
  return std::span<double>(data_).subspan(
      (static_cast<std::size_t>(j) * nt_ + i) * elems, elems);
}

std::span<const double> TiledMatrix::tile(int i, int j) const {
  DEEP_EXPECT(i >= 0 && i < nt_ && j >= 0 && j < nt_, "tile: out of range");
  const std::size_t elems = static_cast<std::size_t>(ts_) * ts_;
  return std::span<const double>(data_).subspan(
      (static_cast<std::size_t>(j) * nt_ + i) * elems, elems);
}

double& TiledMatrix::at(int row, int col) {
  const int ti = row / ts_, tj = col / ts_;
  auto t = tile(ti, tj);
  return t[static_cast<std::size_t>(col % ts_) * ts_ + row % ts_];
}

double TiledMatrix::at(int row, int col) const {
  const int ti = row / ts_, tj = col / ts_;
  auto t = tile(ti, tj);
  return t[static_cast<std::size_t>(col % ts_) * ts_ + row % ts_];
}

// ---------------------------------------------------------------------------
// Tile kernels
//
// Each kernel walks a tile column j with i innermost, so the inner loops run
// down contiguous columns.  Every output element still gets the operation
// sequence of the textbook element-at-a-time loop: the same start value, then
// its terms combined in ascending k, then the same final division.  So the
// results are bit for bit those of that loop (tests/apps_test.cpp keeps it as
// the reference).
// ---------------------------------------------------------------------------

namespace {

// Offset of element (i, j) in a column-major array with leading dimension ld.
std::size_t idx(std::size_t i, std::size_t j, std::size_t ld) {
  return j * ld + i;
}

// s[i] = sum over ascending k of a(i,k) * b(j,k), for i in [first, ts).
void column_dots(const double* a, const double* b, int j, int first, int ts,
                 double* s) {
  for (int i = first; i < ts; ++i) s[i] = 0.0;
  for (int k = 0; k < ts; ++k) {
    const double bjk = b[idx(j, k, ts)];
    const double* ak = a + idx(0, k, ts);
    for (int i = first; i < ts; ++i) s[i] += ak[i] * bjk;
  }
}

}  // namespace

void potrf_tile(std::span<double> a, int ts) {
  double* t = a.data();
  for (int j = 0; j < ts; ++j) {
    double* tj = t + idx(0, j, ts);
    // Row j joins the update: its diagonal gets d -= a(j,k)^2.
    for (int k = 0; k < j; ++k) {
      const double ajk = t[idx(j, k, ts)];
      const double* tk = t + idx(0, k, ts);
      for (int i = j; i < ts; ++i) tj[i] -= tk[i] * ajk;
    }
    const double d = tj[j];
    DEEP_EXPECT(d > 0.0, "potrf: matrix not positive definite");
    const double l = std::sqrt(d);
    tj[j] = l;
    for (int i = j + 1; i < ts; ++i) tj[i] /= l;
    // Zero the upper triangle for cleanliness.
    for (int i = 0; i < j; ++i) tj[i] = 0.0;
  }
}

void trsm_tile(std::span<const double> t, std::span<double> b, int ts) {
  // Solve X * T^T = B for X, T lower triangular: column sweep.
  double* x = b.data();
  for (int j = 0; j < ts; ++j) {
    double* xj = x + idx(0, j, ts);
    for (int k = 0; k < j; ++k) {
      const double tjk = t[idx(j, k, ts)];
      const double* xk = x + idx(0, k, ts);
      for (int i = 0; i < ts; ++i) xj[i] -= xk[i] * tjk;
    }
    const double d = t[idx(j, j, ts)];
    for (int i = 0; i < ts; ++i) xj[i] /= d;
  }
}

void syrk_tile(std::span<const double> a, std::span<double> c, int ts) {
  std::vector<double> s(static_cast<std::size_t>(ts));
  for (int j = 0; j < ts; ++j) {
    column_dots(a.data(), a.data(), j, j, ts, s.data());
    double* cj = c.data() + idx(0, j, ts);
    for (int i = j; i < ts; ++i) cj[i] -= s[static_cast<std::size_t>(i)];
  }
}

void gemm_tile(std::span<const double> a, std::span<const double> b,
               std::span<double> c, int ts) {
  std::vector<double> s(static_cast<std::size_t>(ts));
  for (int j = 0; j < ts; ++j) {
    column_dots(a.data(), b.data(), j, 0, ts, s.data());
    double* cj = c.data() + idx(0, j, ts);
    for (int i = 0; i < ts; ++i) cj[i] -= s[static_cast<std::size_t>(i)];
  }
}

// ---------------------------------------------------------------------------
// Setup & verification
// ---------------------------------------------------------------------------

namespace {

// Copies between the tiled layout and one dense column-major n x n array,
// one contiguous tile column at a time.
std::vector<double> to_dense(const TiledMatrix& a) {
  const int nt = a.num_tiles(), ts = a.tile_size();
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> dense(n * n);
  for (int tj = 0; tj < nt; ++tj)
    for (int ti = 0; ti < nt; ++ti) {
      const double* tile = a.tile(ti, tj).data();
      for (int jj = 0; jj < ts; ++jj)
        std::copy_n(tile + idx(0, jj, ts), ts,
                    dense.data() + idx(ti * ts, tj * ts + jj, n));
    }
  return dense;
}

void from_dense(const std::vector<double>& dense, TiledMatrix& a) {
  const int nt = a.num_tiles(), ts = a.tile_size();
  const auto n = static_cast<std::size_t>(a.n());
  for (int tj = 0; tj < nt; ++tj)
    for (int ti = 0; ti < nt; ++ti) {
      double* tile = a.tile(ti, tj).data();
      for (int jj = 0; jj < ts; ++jj)
        std::copy_n(dense.data() + idx(ti * ts, tj * ts + jj, n), ts,
                    tile + idx(0, jj, ts));
    }
}

}  // namespace

void fill_spd(TiledMatrix& a, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> dense(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      const double v = rng.uniform(-1.0, 1.0);
      dense[idx(i, j, n)] = v;
      dense[idx(j, i, n)] = v;
    }
  }
  // Diagonal dominance guarantees positive definiteness.
  for (std::size_t i = 0; i < n; ++i) dense[idx(i, i, n)] += a.n();
  from_dense(dense, a);
}

void cholesky_reference(TiledMatrix& a) {
  const int nt = a.num_tiles(), ts = a.tile_size();
  for (int k = 0; k < nt; ++k) {
    potrf_tile(a.tile(k, k), ts);
    for (int i = k + 1; i < nt; ++i) trsm_tile(a.tile(k, k), a.tile(i, k), ts);
    for (int i = k + 1; i < nt; ++i) {
      for (int j = k + 1; j < i; ++j)
        gemm_tile(a.tile(i, k), a.tile(j, k), a.tile(i, j), ts);
      syrk_tile(a.tile(i, k), a.tile(i, i), ts);
    }
  }
}

double factor_error(const TiledMatrix& factor, const TiledMatrix& original) {
  // For each column j: s[i] = sum over ascending k <= j of L(i,k) * L(j,k),
  // for all i >= j, then compared with A(i,j) in ascending i.
  const auto n = static_cast<std::size_t>(factor.n());
  const std::vector<double> l = to_dense(factor);
  const std::vector<double> a = to_dense(original);
  std::vector<double> s(n);
  double max_err = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) s[i] = 0.0;
    for (std::size_t k = 0; k <= j; ++k) {
      const double ljk = l[idx(j, k, n)];
      const double* lk = l.data() + idx(0, k, n);
      for (std::size_t i = j; i < n; ++i) s[i] += lk[i] * ljk;
    }
    for (std::size_t i = j; i < n; ++i)
      max_err = std::max(max_err, std::abs(s[i] - a[idx(i, j, n)]));
  }
  return max_err;
}

// ---------------------------------------------------------------------------
// Task-graph submission (the slide-23 program, pragmas --> regions)
// ---------------------------------------------------------------------------

void submit_cholesky_tasks(ompss::Runtime& runtime, TiledMatrix& a) {
  const int nt = a.num_tiles(), ts = a.tile_size();
  // Panel tasks sit on the critical path: raise their priority so workers
  // prefer them over trailing updates (standard tiled-Cholesky scheduling).
  constexpr int kPanelPriority = 2, kTrsmPriority = 1;
  for (int k = 0; k < nt; ++k) {
    runtime.submit("potrf", {ompss::inout(a.tile(k, k))},
                   hw::kernels::potrf(ts),
                   [&a, k, ts] { potrf_tile(a.tile(k, k), ts); },
                   kPanelPriority);
    for (int i = k + 1; i < nt; ++i) {
      runtime.submit(
          "trsm", {ompss::in(std::span<const double>(a.tile(k, k))),
                   ompss::inout(a.tile(i, k))},
          hw::kernels::trsm(ts),
          [&a, k, i, ts] { trsm_tile(a.tile(k, k), a.tile(i, k), ts); },
          kTrsmPriority);
    }
    for (int i = k + 1; i < nt; ++i) {
      for (int j = k + 1; j < i; ++j) {
        runtime.submit(
            "gemm", {ompss::in(std::span<const double>(a.tile(i, k))),
                     ompss::in(std::span<const double>(a.tile(j, k))),
                     ompss::inout(a.tile(i, j))},
            hw::kernels::gemm(ts), [&a, i, j, k, ts] {
              gemm_tile(a.tile(i, k), a.tile(j, k), a.tile(i, j), ts);
            });
      }
      runtime.submit(
          "syrk", {ompss::in(std::span<const double>(a.tile(i, k))),
                   ompss::inout(a.tile(i, i))},
          hw::kernels::syrk(ts),
          [&a, i, k, ts] { syrk_tile(a.tile(i, k), a.tile(i, i), ts); });
    }
  }
}

double cholesky_flops(int n) {
  const double nn = n;
  return nn * nn * nn / 3.0;
}

}  // namespace deep::apps
