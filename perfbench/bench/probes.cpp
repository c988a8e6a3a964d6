#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "check.hpp"
#include "mpi/mpi.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "ompss/runtime.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "sys/system.hpp"
#include "util/lane.hpp"

namespace perfbench {

namespace {

namespace mpi = deep::mpi;
namespace sys = deep::sys;
using deep::sim::Context;
using deep::sim::Engine;

/// Host time and engine work of one timed loop inside a simulated program.
struct Sample {
  double ns = 0;
  double events = 0;
  double switches = 0;
  double ops = 1;

  /// Self cost per op once the engine's share is taken out.
  double self_ns(const ProbeCosts& c) const {
    const double other_events = std::max(0.0, events - switches);
    return std::max(0.0, (ns - other_events * c.dispatch_ns - switches * c.switch_ns) / ops);
  }
  double per_op_ns() const { return ns / ops; }
};

std::int64_t fiber_switches(sys::DeepSystem& system) {
  const auto values = snapshot_values(system.metrics()->to_json());
  const auto it = values.find("sim.fiber_switches");
  return it == values.end() ? 0 : it->second;
}

/// Times `body` inside a simulated program: host ns, engine events and
/// fiber slices between its start and end.
Sample timed(sys::DeepSystem& system, double ops, const std::function<void()>& body) {
  Sample s;
  s.ops = ops;
  const std::size_t ev0 = system.engine().events_executed();
  const std::int64_t sw0 = fiber_switches(system);
  const auto t0 = Clock::now();
  body();
  const auto t1 = Clock::now();
  s.ns = seconds_between(t0, t1) * 1e9;
  s.events = static_cast<double>(system.engine().events_executed() - ev0);
  s.switches = static_cast<double>(fiber_switches(system) - sw0);
  return s;
}

sys::SystemConfig probe_config(const ProbeShape& shape) {
  sys::SystemConfig cfg;
  cfg.cluster_nodes = shape.cluster;
  cfg.booster_nodes = shape.booster;
  cfg.gateways = shape.gateways;
  cfg.metrics.enabled = true;
  return cfg;
}

/// Runs `body` on `procs` booster ranks spawned by one cluster rank, which
/// runs `parent_body` (may be empty) against the intercommunicator.
void on_booster(const ProbeShape& shape, int procs,
                std::function<void(sys::ProgramEnv&)> body,
                std::function<void(sys::ProgramEnv&, const mpi::Intercomm&)>
                    parent_body = {}) {
  deep::util::SessionSlot slot;
  deep::util::SessionGuard in_session(slot.slot());
  sys::DeepSystem system(probe_config(shape));
  system.programs().add("probe", std::move(body));
  system.programs().add("main", [&](sys::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "probe", {}, procs);
    if (parent_body) parent_body(env, inter);
  });
  system.launch("main", 1);
  system.run();
}

/// Self-rescheduling event; small enough for EventFn's inline buffer, like
/// the engine's own callbacks.
struct Chain {
  Engine* engine;
  int* left;
  void operator()() const {
    if (--*left > 0) engine->schedule_in(deep::sim::nanoseconds(7), Chain{*this});
  }
};

double dispatch_probe() {
  constexpr int kChains = 1000;
  int left = 200000;
  Engine eng;
  for (int i = 0; i < kChains; ++i)
    eng.schedule_in(deep::sim::nanoseconds(i), Chain{&eng, &left});
  const auto t0 = Clock::now();
  eng.run();
  return seconds_between(t0, Clock::now()) * 1e9 /
         static_cast<double>(eng.events_executed());
}

/// One Context::delay round trip: the sleep-expiry event plus the fiber
/// slice it resumes.
double switch_probe() {
  constexpr int kSlices = 100000;
  Engine eng;
  eng.spawn("p", [](Context& ctx) {
    for (int i = 0; i < kSlices; ++i) ctx.delay(deep::sim::nanoseconds(1));
  });
  const auto t0 = Clock::now();
  eng.run();
  return seconds_between(t0, Clock::now()) * 1e9 / kSlices;
}

double torus_probe(const ProbeShape& shape, double dispatch_ns) {
  constexpr int kChains = 64;
  constexpr int kMessages = 40000;
  Engine eng;
  deep::net::TorusParams params;
  params.dims = sys::derive_torus_dims(shape.booster + shape.gateways);
  deep::net::TorusFabric torus(eng, "extoll", params);
  const int n = params.dims[0] * params.dims[1] * params.dims[2];
  int left = kMessages;
  auto send = [&](int from) {
    deep::net::Message m;
    m.src = from;
    m.dst = (from + 1) % n;
    m.size_bytes = shape.message_bytes;
    torus.send(std::move(m), deep::net::Service::Small);
  };
  for (int node = 0; node < n; ++node)
    torus.attach(node).bind(deep::net::Port::Raw, [&, node](deep::net::Message&&) {
      if (--left >= kChains) send(node);
    });
  for (int c = 0; c < kChains; ++c) send(c % n);
  const auto t0 = Clock::now();
  eng.run();
  const double ns = seconds_between(t0, Clock::now()) * 1e9;
  const double events = static_cast<double>(eng.events_executed());
  return std::max(0.0, (ns - events * dispatch_ns) / kMessages);
}

/// Ping-pong of `shape.message_bytes` between two booster ranks.
Sample eager_pingpong(const ProbeShape& shape) {
  constexpr int kRounds = 2000;
  Sample out;
  on_booster(shape, 2, [&](sys::ProgramEnv& env) {
    mpi::Mpi& m = env.mpi;
    std::vector<std::byte> buf(static_cast<std::size_t>(shape.message_bytes));
    const mpi::Rank peer = 1 - m.rank();
    auto loop = [&] {
      for (int i = 0; i < kRounds; ++i) {
        if (m.rank() == 0) {
          m.send_bytes(m.world(), peer, 1, buf);
          m.recv_bytes(m.world(), peer, 1, buf);
        } else {
          m.recv_bytes(m.world(), peer, 1, buf);
          m.send_bytes(m.world(), peer, 1, buf);
        }
      }
    };
    if (m.rank() == 0)
      out = timed(*env.system, 2.0 * kRounds, loop);
    else
      loop();
  });
  return out;
}

/// The same ping-pong between a cluster rank and a booster rank, so every
/// message crosses a CBP gateway.
Sample bridged_pingpong(const ProbeShape& shape) {
  constexpr int kRounds = 1000;
  Sample out;
  on_booster(
      shape, 1,
      [&](sys::ProgramEnv& env) {
        std::vector<std::byte> buf(static_cast<std::size_t>(shape.message_bytes));
        for (int i = 0; i < kRounds; ++i) {
          env.mpi.recv_bytes(*env.mpi.parent(), 0, 1, buf);
          env.mpi.send_bytes(*env.mpi.parent(), 0, 1, buf);
        }
      },
      [&](sys::ProgramEnv& env, const mpi::Intercomm& inter) {
        std::vector<std::byte> buf(static_cast<std::size_t>(shape.message_bytes));
        out = timed(*env.system, 2.0 * kRounds, [&] {
          for (int i = 0; i < kRounds; ++i) {
            env.mpi.send_bytes(inter, 0, 1, buf);
            env.mpi.recv_bytes(inter, 0, 1, buf);
          }
        });
      });
  return out;
}

double allreduce_probe(const ProbeShape& shape) {
  const int rounds = shape.procs > 64 ? 10 : 100;
  Sample out;
  on_booster(shape, shape.procs, [&](sys::ProgramEnv& env) {
    mpi::Mpi& m = env.mpi;
    const double in[2] = {1.0, 2.0};
    double res[2];
    auto once = [&] {
      m.allreduce<double>(m.world(), mpi::Op::Sum, std::span<const double>(in, 2),
                          std::span<double>(res, 2));
    };
    once();  // every rank has started
    if (m.rank() == 0)
      out = timed(*env.system, rounds, [&] {
        for (int i = 0; i < rounds; ++i) once();
      });
    else
      for (int i = 0; i < rounds; ++i) once();
  });
  return out.per_op_ns();
}

Sample jacobi_probe(const ProbeShape& shape) {
  Sample out;
  on_booster(shape, 1, [&](sys::ProgramEnv& env) {
    deep::apps::StencilConfig cfg;
    cfg.nx = 256;
    cfg.rows = 64;
    cfg.iterations = 100;
    out = timed(*env.system, cfg.iterations,
                [&] { deep::apps::run_jacobi(env.mpi, env.mpi.world(), cfg); });
  });
  return out;
}

Sample spmv_probe(const ProbeShape& shape) {
  Sample out;
  on_booster(shape, 1, [&](sys::ProgramEnv& env) {
    deep::apps::SpmvConfig cfg;
    cfg.rows_per_rank = 256;
    cfg.iterations = 400;
    out = timed(*env.system, cfg.iterations, [&] {
      deep::apps::run_spmv_power(env.mpi, env.mpi.world(), cfg);
    });
  });
  return out;
}

Sample ompss_probe(const ProbeShape& shape) {
  constexpr int kTasks = 2000;
  Sample out;
  on_booster(shape, 1, [&](sys::ProgramEnv& env) {
    deep::ompss::Runtime rt(env.mpi.ctx(), env.mpi.node());
    int ran = 0;
    out = timed(*env.system, kTasks, [&] {
      for (int i = 0; i < kTasks; ++i)
        rt.submit("t", {}, deep::hw::KernelCost{1e3, 0, 0}, [&ran] { ++ran; });
      rt.taskwait();
    });
  });
  return out;
}

double parse_probe(const std::vector<std::string>& texts) {
  if (texts.empty()) return 0.0;
  constexpr int kRepeats = 200;
  std::size_t parsed = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < kRepeats; ++r)
    for (const std::string& t : texts) {
      deep::svc::Reject reject;
      if (deep::svc::JobSpec::from_text(t, reject)) ++parsed;
    }
  const double us = seconds_between(t0, Clock::now()) * 1e6;
  return parsed == 0 ? 0.0 : us / static_cast<double>(parsed);
}

}  // namespace

ProbeShape probe_shape(const deep::svc::JobSpec& spec) {
  ProbeShape shape;
  shape.cluster = spec.cluster;
  shape.booster = std::max(2, spec.booster);
  shape.gateways = spec.gateways;
  shape.procs = std::max(2, spec.procs);
  // Halo rows of the stencil (nx doubles) vs band segments of spmv.
  shape.message_bytes = spec.workload == "spmv" ? 16 * 8 : 256 * 8;
  return shape;
}

ProbeCosts run_probes(const ProbeShape& shape,
                      const std::vector<std::string>& spec_texts) {
  ProbeCosts c;
  c.dispatch_ns = dispatch_probe();
  c.switch_ns = switch_probe();
  c.torus_send_ns = torus_probe(shape, c.dispatch_ns);
  const Sample eager = eager_pingpong(shape);
  c.eager_ns = std::max(0.0, eager.self_ns(c) - c.torus_send_ns);
  const Sample bridged = bridged_pingpong(shape);
  c.cbp_forward_ns = std::max(0.0, bridged.per_op_ns() - eager.per_op_ns());
  c.allreduce_ns = allreduce_probe(shape);
  c.jacobi_sweep_ns = jacobi_probe(shape).self_ns(c);
  c.spmv_iter_ns = spmv_probe(shape).self_ns(c);
  c.ompss_task_ns = ompss_probe(shape).self_ns(c);
  c.parse_us = parse_probe(spec_texts);
  return c;
}

}  // namespace perfbench
