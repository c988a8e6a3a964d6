#include "apps/nbody.hpp"

#include <algorithm>
#include <cmath>

#include "hw/compute.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deep::apps {

std::vector<Body> make_bodies(int rank, const NBodyConfig& config) {
  DEEP_EXPECT(config.bodies_per_rank >= 2 && config.bodies_per_rank % 2 == 0,
              "make_bodies: bodies_per_rank must be even and >= 2");
  util::Rng rng(config.seed + static_cast<std::uint64_t>(rank) * 7919);
  std::vector<Body> bodies(static_cast<std::size_t>(config.bodies_per_rank));
  // Pairs with opposite velocities: the global momentum starts at exactly 0.
  for (std::size_t i = 0; i < bodies.size(); i += 2) {
    Body& a = bodies[i];
    Body& b = bodies[i + 1];
    a.x = rng.uniform(-1, 1);
    a.y = rng.uniform(-1, 1);
    a.z = rng.uniform(-1, 1);
    a.vx = rng.uniform(-0.1, 0.1);
    a.vy = rng.uniform(-0.1, 0.1);
    a.vz = rng.uniform(-0.1, 0.1);
    b = a;
    b.x = -a.x + rng.uniform(-0.01, 0.01);
    b.y = -a.y;
    b.z = -a.z;
    b.vx = -a.vx;
    b.vy = -a.vy;
    b.vz = -a.vz;
  }
  return bodies;
}

double nbody_flops_per_rank(int total_bodies, int my_bodies) {
  // ~20 flops per pair interaction.
  return 20.0 * static_cast<double>(total_bodies) * my_bodies;
}

void nbody_forces(std::span<const double> all_pos, std::span<const Body> mine,
                  int first, double eps2, std::span<double> fx,
                  std::span<double> fy, std::span<double> fz) {
  const int local = static_cast<int>(mine.size());
  const int total = static_cast<int>(all_pos.size() / 4);
  DEEP_EXPECT(first >= 0 && first + local <= total &&
                  fx.size() == mine.size() && fy.size() == mine.size() &&
                  fz.size() == mine.size(),
              "nbody_forces: bad block");
  // Bodies innermost, as separate coordinate arrays, so the loop over them
  // vectorises (sqrt and divide included, given -fno-math-errno).  Each
  // body still sums its pulls in ascending j, as a pair loop would.
  std::vector<double> xs(mine.size()), ys(mine.size()), zs(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    xs[i] = mine[i].x;
    ys[i] = mine[i].y;
    zs[i] = mine[i].z;
  }
  std::fill(fx.begin(), fx.end(), 0.0);
  std::fill(fy.begin(), fy.end(), 0.0);
  std::fill(fz.begin(), fz.end(), 0.0);
  const double *x = xs.data(), *y = ys.data(), *z = zs.data();
  double *ax = fx.data(), *ay = fy.data(), *az = fz.data();
  // Adds the pull of the body at p to bodies [lo, hi); branch-free.
  const auto pull = [=](const double* p, int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      const double dx = p[0] - x[i], dy = p[1] - y[i], dz = p[2] - z[i];
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv_r = 1.0 / std::sqrt(r2);
      const double f = p[3] * inv_r * inv_r * inv_r;
      ax[i] += f * dx;
      ay[i] += f * dy;
      az[i] += f * dz;
    }
  };
  for (int j = 0; j < total; ++j) {
    const double* p = &all_pos[static_cast<std::size_t>(j) * 4];
    // A body feels no pull from itself: split my range around body j.
    const int self = j - first;
    if (self >= 0 && self < local) {
      pull(p, 0, self);
      pull(p, self + 1, local);
    } else {
      pull(p, 0, local);
    }
  }
}

NBodyResult run_nbody(mpi::Mpi& mpi, const mpi::Comm& comm,
                      const NBodyConfig& config) {
  DEEP_EXPECT(config.steps >= 1, "run_nbody: need at least one step");
  const int n = comm.size();
  const int local = config.bodies_per_rank;
  const int total = local * n;
  std::vector<Body> mine = make_bodies(comm.rank(), config);

  // Flat position/mass arrays circulated each step (4 doubles per body).
  std::vector<double> my_pos(static_cast<std::size_t>(local) * 4);
  std::vector<double> all_pos(static_cast<std::size_t>(total) * 4);
  std::vector<double> fx(static_cast<std::size_t>(local)),
      fy(static_cast<std::size_t>(local)), fz(static_cast<std::size_t>(local));

  for (int step = 0; step < config.steps; ++step) {
    for (int i = 0; i < local; ++i) {
      const Body& b = mine[static_cast<std::size_t>(i)];
      my_pos[static_cast<std::size_t>(i) * 4 + 0] = b.x;
      my_pos[static_cast<std::size_t>(i) * 4 + 1] = b.y;
      my_pos[static_cast<std::size_t>(i) * 4 + 2] = b.z;
      my_pos[static_cast<std::size_t>(i) * 4 + 3] = b.mass;
    }
    mpi.allgather<double>(comm, std::span<const double>(my_pos),
                          std::span<double>(all_pos));

    nbody_forces(all_pos, mine, comm.rank() * local,
                 config.softening * config.softening, fx, fy, fz);
    for (int i = 0; i < local; ++i) {
      Body& b = mine[static_cast<std::size_t>(i)];
      b.vx += config.dt * fx[static_cast<std::size_t>(i)];
      b.vy += config.dt * fy[static_cast<std::size_t>(i)];
      b.vz += config.dt * fz[static_cast<std::size_t>(i)];
      b.x += config.dt * b.vx;
      b.y += config.dt * b.vy;
      b.z += config.dt * b.vz;
    }
    // Burn the modelled sweep time on all cores of this node.
    mpi.compute({nbody_flops_per_rank(total, local),
                 8.0 * 4 * static_cast<double>(total), 0.0},
                mpi.node().spec().cores);
  }

  // Global diagnostics.
  double local_stats[5] = {0, 0, 0, 0, 0};  // px, py, pz, kinetic, checksum
  for (const Body& b : mine) {
    local_stats[0] += b.mass * b.vx;
    local_stats[1] += b.mass * b.vy;
    local_stats[2] += b.mass * b.vz;
    local_stats[3] +=
        0.5 * b.mass * (b.vx * b.vx + b.vy * b.vy + b.vz * b.vz);
    local_stats[4] += std::abs(b.x) + std::abs(b.y) + std::abs(b.z);
  }
  double global_stats[5];
  mpi.allreduce<double>(comm, mpi::Op::Sum,
                        std::span<const double>(local_stats, 5),
                        std::span<double>(global_stats, 5));
  NBodyResult result;
  result.momentum[0] = global_stats[0];
  result.momentum[1] = global_stats[1];
  result.momentum[2] = global_stats[2];
  result.kinetic = global_stats[3];
  result.checksum = global_stats[4];
  return result;
}

}  // namespace deep::apps
