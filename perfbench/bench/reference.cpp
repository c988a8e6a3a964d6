#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

double tree_sum(std::vector<double> p) {
  const std::size_t n = p.size();
  for (std::size_t mask = 1; mask < n; mask <<= 1)
    for (std::size_t v = 0; v + mask < n; v += 2 * mask) p[v] += p[v + mask];
  return n == 0 ? 0.0 : p[0];
}

double serial_jacobi_checksum(int nx, int rows, int nranks, int iterations,
                              double top_value) {
  const int rows_total = rows * nranks;
  // Rows 0 and rows_total+1 are the fixed top/bottom boundary; columns 0
  // and nx-1 are fixed side boundaries.
  const auto at = [nx](int r, int c) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(c);
  };
  std::vector<double> grid(static_cast<std::size_t>(rows_total + 2) * nx, 0.0);
  for (int c = 0; c < nx; ++c) grid[at(0, c)] = top_value;
  std::vector<double> next = grid;
  for (int it = 0; it < iterations; ++it) {
    for (int r = 1; r <= rows_total; ++r)
      for (int c = 1; c < nx - 1; ++c)
        next[at(r, c)] = 0.25 * (grid[at(r - 1, c)] + grid[at(r + 1, c)] +
                                 grid[at(r, c - 1)] + grid[at(r, c + 1)]);
    grid.swap(next);
  }
  std::vector<double> partials(static_cast<std::size_t>(nranks), 0.0);
  for (int r = 1; r <= rows_total; ++r)
    for (int c = 0; c < nx; ++c)
      partials[static_cast<std::size_t>((r - 1) / rows)] += grid[at(r, c)];
  return tree_sum(std::move(partials));
}

PowerResult serial_power_iteration(int nranks,
                                   const deep::apps::SpmvConfig& cfg) {
  struct Entry {
    int col;
    double val;
  };
  std::vector<std::vector<Entry>> rows;
  for (int r = 0; r < nranks; ++r) {
    const deep::apps::CsrBlock b = deep::apps::make_banded_matrix(r, nranks, cfg);
    for (int i = 0; i < b.rows; ++i) {
      std::vector<Entry> row;
      for (int k = b.row_ptr[static_cast<std::size_t>(i)];
           k < b.row_ptr[static_cast<std::size_t>(i + 1)]; ++k)
        row.push_back({b.col[static_cast<std::size_t>(k)],
                       b.val[static_cast<std::size_t>(k)]});
      rows.push_back(std::move(row));
    }
  }
  const std::size_t n = rows.size();
  const auto m = static_cast<std::size_t>(cfg.rows_per_rank);
  const auto ranks = static_cast<std::size_t>(nranks);
  std::vector<double> x(n, 1.0), y(n, 0.0);
  std::vector<double> xy(ranks), yy(ranks), sum(ranks);
  PowerResult out;
  for (int it = 0; it < cfg.iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (const Entry& e : rows[i]) s += e.val * x[static_cast<std::size_t>(e.col)];
      y[i] = s;
    }
    std::fill(xy.begin(), xy.end(), 0.0);
    std::fill(yy.begin(), yy.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      xy[i / m] += x[i] * y[i];
      yy[i / m] += y[i] * y[i];
    }
    out.eigenvalue = tree_sum(xy);
    const double inv_norm = 1.0 / std::sqrt(tree_sum(yy));
    for (std::size_t i = 0; i < n; ++i) x[i] = y[i] * inv_norm;
  }
  for (std::size_t i = 0; i < n; ++i) sum[i / m] += x[i];
  out.checksum = tree_sum(sum);
  return out;
}

}  // namespace perfbench
