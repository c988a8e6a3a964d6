#pragma once
// Direct-sum N-body — the compute-bound HSCP counterpart to the stencil.
//
// Particles are block-distributed over the ranks of a communicator; every
// step each rank circulates the particle blocks around a ring (allgather
// of positions) and accumulates forces on its own particles — O(N^2) flops
// against O(N) communication, the profile that loves many-core silicon.
// The arithmetic is real (softened gravity, leapfrog integration) and
// conserves momentum, which the tests check.

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/mpi.hpp"

namespace deep::apps {

struct Body {
  double x = 0, y = 0, z = 0;    // position
  double vx = 0, vy = 0, vz = 0; // velocity
  double mass = 1.0;
};

struct NBodyConfig {
  int bodies_per_rank = 64;
  int steps = 4;
  double dt = 1e-3;
  double softening = 1e-2;
  std::uint64_t seed = 9;
};

struct NBodyResult {
  double momentum[3] = {0, 0, 0};  // global total (conserved)
  double kinetic = 0;              // global kinetic energy
  double checksum = 0;             // sum of |position| over all bodies
};

/// Generates this rank's initial particle block (deterministic in
/// rank+seed; the global initial momentum is exactly zero by construction).
std::vector<Body> make_bodies(int rank, const NBodyConfig& config);

/// Accelerations on `mine`, the bodies at indices [first, first + mine.size())
/// of `all_pos` (x, y, z, mass per body), from every other body of
/// `all_pos`, with softening eps2.  Each component is summed over the other
/// bodies in ascending index order, starting from 0.
void nbody_forces(std::span<const double> all_pos, std::span<const Body> mine,
                  int first, double eps2, std::span<double> fx,
                  std::span<double> fy, std::span<double> fz);

/// Runs the distributed simulation on `comm`; collective.
NBodyResult run_nbody(mpi::Mpi& mpi, const mpi::Comm& comm,
                      const NBodyConfig& config);

/// Flops of one force evaluation sweep for n total bodies (per rank share).
double nbody_flops_per_rank(int total_bodies, int my_bodies);

}  // namespace deep::apps
