#pragma once
// Output references that do not run the simulator: plain serial loops over
// the global problem, used to check the checksums the simulated ranks
// produce.
//
// Both references sum in the order the distributed run does: a partial sum
// per rank's block of rows, combined by the binomial tree the simulated
// allreduce uses.  The power iteration needs this.  It starts from the
// all-ones vector, which is an eigenvector of every row that has its full
// band (eigenvalue 2); later iterates grow out of rounding noise. By
// iteration 40 a different summation order gives a different eigenvalue in
// the fourth digit.

#include <vector>

#include "apps/spmv.hpp"

namespace perfbench {

/// Interior sum after `iterations` serial Jacobi sweeps on the global
/// (nranks * rows x nx) grid that apps::run_jacobi decomposes by rows: top
/// edge held at `top_value`, every other boundary at zero.
double serial_jacobi_checksum(int nx, int rows, int nranks, int iterations,
                              double top_value);

/// Sum of per-rank partials in the simulated allreduce's tree order.
double tree_sum(std::vector<double> partials);

struct PowerResult {
  double eigenvalue = 0.0;
  double checksum = 0.0;
};

/// Serial power iteration on the global banded matrix assembled from
/// apps::make_banded_matrix for `nranks` ranks — the same algorithm as
/// apps::run_spmv_power, on one vector, with no communication.
PowerResult serial_power_iteration(int nranks, const deep::apps::SpmvConfig& cfg);

}  // namespace perfbench
