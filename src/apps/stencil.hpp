#pragma once
// Distributed 2-D Jacobi stencil — the archetypal "highly scalable code
// part" (HSCP) of the paper (slide 9): regular nearest-neighbour
// communication, perfectly suited to the booster's torus.
//
// 1-D row decomposition over the ranks of a communicator: every rank owns
// `rows` interior rows of a global (rows * size) x nx grid plus two halo
// rows.  Each iteration exchanges halos with the up/down neighbours, does a
// real 5-point sweep (the arithmetic is genuine; results are verified in
// tests), and burns the modelled roofline time for the sweep.
//
// The sweep runs in place: per rank it holds one (rows + 2) x nx grid plus
// two nx-cell scratch rows, not a second grid.  It makes one vectorised
// pass per row r: the pass computes new row r into a scratch row from the
// old rows r-1, r and r+1 and, column by column, writes new row r-1 over
// old row r-1 as soon as the update has read it for the last time.  Every
// cell is still 0.25 * (((N + S) + W) + E) of the previous iteration's
// values, so results and checkpointed states are bit-identical to a
// two-grid sweep.
// The residual max |new - old| is folded into the same pass, but only on
// the sweeps that read it: the last iteration and the checkpointed ones.

#include <span>
#include <vector>

#include "mpi/mpi.hpp"

namespace deep::ckpt {
class Checkpointer;
}

namespace deep::apps {

struct StencilConfig {
  int nx = 256;          // columns (global and local)
  int rows = 64;         // interior rows per rank
  int iterations = 20;
  double top_value = 1.0;  // Dirichlet condition on the global top edge
  /// Checkpoint/restart handle (ProgramEnv::ckpt).  When set, the kernel
  /// restores the last planned checkpoint on entry and saves its full state
  /// (grid + residual tracker) every ckpt->interval() iterations; replay
  /// from a restored state is bit-exact, so a recovered run produces the
  /// same residual/checksum as a fault-free one.  halo_messages counts only
  /// the current attempt's traffic.
  ckpt::Checkpointer* ckpt = nullptr;
};

struct StencilResult {
  double residual = 0.0;      // max |update| of the final iteration (global)
  double checksum = 0.0;      // sum of all interior cells (global)
  std::int64_t halo_messages = 0;  // messages this rank exchanged
};

/// Runs the stencil on `comm`; every rank of the communicator must call it
/// with identical configuration.  Returns the globally-reduced result.
StencilResult run_jacobi(mpi::Mpi& mpi, const mpi::Comm& comm,
                         const StencilConfig& config);

/// One sweep of run_jacobi, in place on a rank's row-major (rows + 2) x nx
/// `grid` with two nx-cell `scratch` rows; halo rows 0 and rows+1 and the
/// edge columns keep their values.  Returns max |new - old| over the
/// interior cells, NaN differences skipped as std::max(m, d) skips them.
double jacobi_sweep(std::span<double> grid, int nx, int rows,
                    std::span<double> scratch);

/// Irregular counterpart for the scalability study (slide 9: "most
/// applications are more complex — complicated communication patterns").
/// Every round, ranks exchange `bytes` with a pseudo-random permutation
/// partner (deterministically derived from round+seed, so all ranks agree).
struct IrregularConfig {
  std::int64_t bytes = 64 * 1024;
  int rounds = 20;
  std::uint64_t seed = 1234;
  double flops_per_round = 1e8;  // local work between exchanges
};

void run_irregular_exchange(mpi::Mpi& mpi, const mpi::Comm& comm,
                            const IrregularConfig& config);

}  // namespace deep::apps
