#pragma once
// Distributed sparse matrix-vector multiply — the paper's first example of a
// code "capable to scale to O(300k) cores" (slide 9): banded sparsity gives
// highly regular nearest-neighbour communication.
//
// The matrix is a deterministic, diagonally-dominant banded matrix with
// row-wise distribution; each power-iteration step exchanges the x-vector
// boundary segments with the two neighbouring ranks (the halo), performs the
// real CSR multiply, and normalises with an allreduce.  The dominant
// eigenvalue estimate converges identically regardless of distribution.

#include <cstdint>
#include <vector>

#include "mpi/mpi.hpp"

namespace deep::ckpt {
class Checkpointer;
}

namespace deep::apps {

struct SpmvConfig {
  int rows_per_rank = 128;
  int band = 16;          // off-diagonal entries live within +- band
  int nnz_per_row = 8;    // including the diagonal
  int iterations = 10;    // power-iteration steps
  std::uint64_t seed = 33;
  /// Checkpoint/restart handle (ProgramEnv::ckpt): state is the x vector
  /// (halos included) plus the running eigenvalue estimate, saved every
  /// ckpt->interval() steps; replay from a restore is bit-exact.
  /// halo_bytes counts only the current attempt's traffic.
  ckpt::Checkpointer* ckpt = nullptr;
};

struct SpmvResult {
  double eigenvalue = 0;   // Rayleigh-quotient estimate after the last step
  double checksum = 0;     // sum over the final normalised vector
  std::int64_t halo_bytes = 0;  // bytes this rank exchanged
};

/// Local CSR block of the global banded matrix (rows [first_row, first_row+m)).
struct CsrBlock {
  int first_row = 0;
  int rows = 0;
  std::vector<int> row_ptr;   // size rows+1
  std::vector<int> col;       // global column indices
  std::vector<double> val;
};

/// Builds this rank's rows of the deterministic global matrix.  Throws
/// util::UsageError unless band < rows_per_rank, band >= nnz_per_row - 3 and
/// 2 * band >= nnz_per_row - 1 (enough distinct columns for every row).
CsrBlock make_banded_matrix(int rank, int nranks, const SpmvConfig& config);

/// Runs power iteration on `comm`; collective, every rank passes the same
/// config.  Returns globally-reduced results (identical on every rank).
SpmvResult run_spmv_power(mpi::Mpi& mpi, const mpi::Comm& comm,
                          const SpmvConfig& config);

}  // namespace deep::apps
