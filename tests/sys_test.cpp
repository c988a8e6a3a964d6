// Integration tests for the system layer: full DEEP bring-up, job launch,
// MPI_Comm_spawn onto the booster, offload server round trips, resource
// management policies, energy accounting, and the accelerated-cluster
// baseline.

#include <gtest/gtest.h>

#include <vector>

#include "ompss/offload.hpp"
#include "sys/accelerated.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"
#include "util/error.hpp"

namespace dm = deep::mpi;
namespace ds = deep::sim;
namespace dh = deep::hw;
namespace dos = deep::ompss;
namespace dsy = deep::sys;

namespace {

dsy::SystemConfig small_config() {
  dsy::SystemConfig cfg;
  cfg.cluster_nodes = 4;
  cfg.booster_nodes = 8;
  cfg.gateways = 2;
  return cfg;
}

template <typename T>
std::span<const T> cspan(const std::vector<T>& v) {
  return std::span<const T>(v);
}

}  // namespace

TEST(System, DeriveTorusDims) {
  EXPECT_EQ(dsy::derive_torus_dims(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(dsy::derive_torus_dims(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(dsy::derive_torus_dims(9), (std::array<int, 3>{3, 2, 2}));
  EXPECT_EQ(dsy::derive_torus_dims(64), (std::array<int, 3>{4, 4, 4}));
  const auto d = dsy::derive_torus_dims(100);
  EXPECT_GE(d[0] * d[1] * d[2], 100);
}

TEST(System, AutoWorkersClampsToHostAndPartitions) {
  // `--workers auto`: one worker per host core, never more than there are
  // partitions, always at least one (0 = hardware_concurrency unknown).
  EXPECT_EQ(dsy::auto_workers(8, 5), 5);
  EXPECT_EQ(dsy::auto_workers(2, 5), 2);
  EXPECT_EQ(dsy::auto_workers(4, 4), 4);
  EXPECT_EQ(dsy::auto_workers(0, 5), 1);
  EXPECT_EQ(dsy::auto_workers(16, 1), 1);
}

TEST(System, LaunchRunsClusterJob) {
  dsy::DeepSystem sys(small_config());
  int sum = -1;
  sys.programs().add("hello", [&](dsy::ProgramEnv& env) {
    const std::vector<int> mine{env.mpi.rank()};
    std::vector<int> out(1);
    env.mpi.allreduce<int>(env.mpi.world(), dm::Op::Sum, cspan(mine),
                           std::span<int>(out));
    if (env.mpi.rank() == 0) sum = out[0];
  });
  auto job = sys.launch("hello", 4);
  sys.run();
  EXPECT_TRUE(job.done());
  EXPECT_EQ(sum, 6);
}

TEST(System, LaunchValidation) {
  dsy::DeepSystem sys(small_config());
  EXPECT_THROW(sys.launch("nope", 2), deep::util::UsageError);
  sys.programs().add("p", [](dsy::ProgramEnv&) {});
  EXPECT_THROW(sys.launch("p", 0), deep::util::UsageError);
}

TEST(System, ArgsReachPrograms) {
  dsy::DeepSystem sys(small_config());
  std::string got;
  sys.programs().add("argv", [&](dsy::ProgramEnv& env) {
    if (env.mpi.rank() == 0) got = env.args.at(1);
  });
  sys.launch("argv", 2, {"--size", "1024"});
  sys.run();
  EXPECT_EQ(got, "1024");
}

TEST(Spawn, ChildrenRunOnBoosterWithOwnWorld) {
  dsy::DeepSystem sys(small_config());
  std::vector<int> child_ranks;
  int child_world_size = -1;
  bool parent_saw_intercomm = false;

  sys.programs().add("kernel", [&](dsy::ProgramEnv& env) {
    child_ranks.push_back(env.mpi.rank());
    child_world_size = env.mpi.size();
    ASSERT_TRUE(env.mpi.parent().has_value());
    EXPECT_EQ(env.mpi.parent()->remote_size(), 2);
    // Children run on booster nodes.
    EXPECT_EQ(env.mpi.node().kind(), dh::NodeKind::Booster);
    env.mpi.barrier(env.mpi.world());
  });
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 3);
    parent_saw_intercomm = inter.valid();
    EXPECT_EQ(inter.remote_size(), 3);
    EXPECT_EQ(inter.local_size(), 2);
  });
  sys.launch("main", 2);
  sys.run();
  EXPECT_TRUE(parent_saw_intercomm);
  EXPECT_EQ(child_world_size, 3);
  std::sort(child_ranks.begin(), child_ranks.end());
  EXPECT_EQ(child_ranks, (std::vector<int>{0, 1, 2}));
}

TEST(Spawn, SpawnCostIncludesStartup) {
  dsy::DeepSystem sys(small_config());
  ds::Duration spawn_time{};
  sys.programs().add("kernel", [](dsy::ProgramEnv&) {});
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    const auto t0 = env.mpi.ctx().now();
    env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 4);
    spawn_time = env.mpi.ctx().now() - t0;
  });
  sys.launch("main", 1);
  sys.run();
  // At least RM decision + exec; well under a second.
  EXPECT_GT(spawn_time.ps, (sys.config().rm_latency + sys.config().launch_base).ps);
  EXPECT_LT(spawn_time.seconds(), 0.1);
}

TEST(Spawn, ParentChildTrafficCrossesGateways) {
  dsy::DeepSystem sys(small_config());
  sys.programs().add("kernel", [](dsy::ProgramEnv& env) {
    std::vector<double> v(4);
    env.mpi.recv<double>(*env.mpi.parent(), 0, 1, std::span<double>(v));
    for (auto& x : v) x *= 2;
    env.mpi.send<double>(*env.mpi.parent(), 0, 2, cspan(v));
  });
  std::vector<double> reply(4);
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 1);
    const std::vector<double> v{1, 2, 3, 4};
    env.mpi.send<double>(inter, 0, 1, cspan(v));
    env.mpi.recv<double>(inter, 0, 2, std::span<double>(reply));
  });
  sys.launch("main", 1);
  sys.run();
  EXPECT_EQ(reply, (std::vector<double>{2, 4, 6, 8}));
  std::int64_t forwarded = 0;
  for (int g = 0; g < 2; ++g)
    forwarded += sys.bridge()
                     .gateway_stats(sys.node(12 + g).id())
                     .forwarded_messages;
  EXPECT_GT(forwarded, 0);
}

TEST(Spawn, MergeCreatesGlobalComm) {
  dsy::DeepSystem sys(small_config());
  std::vector<int> merged_sum(2, -1);
  sys.programs().add("kernel", [&](dsy::ProgramEnv& env) {
    auto global = env.mpi.merge(*env.mpi.parent());
    EXPECT_EQ(global.size(), 2 + 3);
    EXPECT_EQ(global.rank(), 2 + env.mpi.rank());  // children are high
    const std::vector<int> mine{global.rank()};
    std::vector<int> out(1);
    env.mpi.allreduce<int>(global, dm::Op::Sum, cspan(mine), std::span<int>(out));
    merged_sum[1] = out[0];
  });
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 3);
    auto global = env.mpi.merge(inter);
    EXPECT_EQ(global.rank(), env.mpi.rank());
    const std::vector<int> mine{global.rank()};
    std::vector<int> out(1);
    env.mpi.allreduce<int>(global, dm::Op::Sum, cspan(mine), std::span<int>(out));
    if (env.mpi.rank() == 0) merged_sum[0] = out[0];
  });
  sys.launch("main", 2);
  sys.run();
  EXPECT_EQ(merged_sum[0], 0 + 1 + 2 + 3 + 4);
  EXPECT_EQ(merged_sum[1], 0 + 1 + 2 + 3 + 4);
}

TEST(Spawn, ExhaustedBoosterFails) {
  auto cfg = small_config();  // 8 booster nodes
  dsy::DeepSystem sys(cfg);
  bool threw = false;
  sys.programs().add("kernel", [](dsy::ProgramEnv&) {});
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    try {
      env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 9);
    } catch (const deep::util::ResourceError&) {
      threw = true;
    }
  });
  sys.launch("main", 1);
  sys.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(sys.resource_manager().failed_allocations(), 1);
}

TEST(Spawn, NodesReleasedAfterChildrenExit) {
  dsy::DeepSystem sys(small_config());
  sys.programs().add("kernel", [](dsy::ProgramEnv&) {});
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    for (int round = 0; round < 3; ++round) {
      auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 8);
      // All 8 booster nodes in use; wait for children to finish.
      env.mpi.ctx().delay(ds::milliseconds(50));
    }
  });
  sys.launch("main", 1);
  sys.run();
  // Three full-booster spawns succeeded back to back: release works.
  EXPECT_EQ(sys.resource_manager().allocations(), 3);
  EXPECT_EQ(sys.resource_manager().busy_nodes(), 0);
}

TEST(Offload, RoundTripThroughServer) {
  dsy::DeepSystem sys(small_config());
  sys.kernels().add("scale", [](std::span<const std::byte> in, dm::Mpi& mpi) {
    // Parallel kernel: every booster rank scales a slice; allreduce checks.
    std::vector<double> data(in.size() / sizeof(double));
    std::memcpy(data.data(), in.data(), in.size());
    for (auto& x : data) x *= 3.0;
    std::vector<int> one{1}, total(1);
    mpi.allreduce<int>(mpi.world(), dm::Op::Sum, cspan(one), std::span<int>(total));
    EXPECT_EQ(total[0], mpi.size());
    std::vector<std::byte> reply(in.size());
    std::memcpy(reply.data(), data.data(), reply.size());
    return reply;
  });
  sys.programs().add("server", [&](dsy::ProgramEnv& env) {
    dos::offload_server(env.mpi, sys.kernels());
  });
  std::vector<double> result;
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "server", {}, 4);
    const std::vector<double> input{1.0, 2.0, 3.0};
    auto reply = dos::offload_invoke(
        env.mpi, inter, "scale",
        std::as_bytes(std::span<const double>(input)));
    result.resize(reply.size() / sizeof(double));
    std::memcpy(result.data(), reply.data(), reply.size());
    dos::offload_shutdown(env.mpi, inter);
  });
  sys.launch("main", 1);
  sys.run();
  EXPECT_EQ(result, (std::vector<double>{3.0, 6.0, 9.0}));
}

TEST(Offload, MultipleInvocationsSerialise) {
  dsy::DeepSystem sys(small_config());
  int calls = 0;
  sys.kernels().add("count", [&](std::span<const std::byte>, dm::Mpi& mpi) {
    if (mpi.rank() == 0) ++calls;
    return std::vector<std::byte>{};
  });
  sys.programs().add("server", [&](dsy::ProgramEnv& env) {
    dos::offload_server(env.mpi, sys.kernels());
  });
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "server", {}, 2);
    for (int i = 0; i < 5; ++i)
      dos::offload_invoke(env.mpi, inter, "count", {});
    dos::offload_shutdown(env.mpi, inter);
  });
  sys.launch("main", 1);
  sys.run();
  EXPECT_EQ(calls, 5);
}

TEST(Offload, UnknownKernelThrows) {
  dos::KernelRegistry reg;
  EXPECT_THROW(reg.get("missing"), deep::util::UsageError);
  reg.add("k", [](std::span<const std::byte>, dm::Mpi&) {
    return std::vector<std::byte>{};
  });
  EXPECT_TRUE(reg.contains("k"));
  EXPECT_THROW(reg.add("k", [](std::span<const std::byte>, dm::Mpi&) {
    return std::vector<std::byte>{};
  }),
               deep::util::UsageError);
  EXPECT_THROW(reg.add("__shutdown", [](std::span<const std::byte>, dm::Mpi&) {
    return std::vector<std::byte>{};
  }),
               deep::util::UsageError);
}

TEST(ResourceManager, DynamicPoolAllocatesAnyFree) {
  ds::Engine eng;
  dsy::ResourceManager rm(eng, {10, 11, 12, 13}, dsy::AllocPolicy::Dynamic);
  auto a = rm.allocate(3);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_FALSE(rm.allocate(2).has_value());  // only 1 left
  auto b = rm.allocate(1);
  ASSERT_TRUE(b.has_value());
  rm.release(*a);
  rm.release(*b);
  EXPECT_EQ(rm.busy_nodes(), 0);
  EXPECT_EQ(rm.failed_allocations(), 1);
}

TEST(ResourceManager, StaticPartitionIsolates) {
  ds::Engine eng;
  dsy::ResourceManager rm(eng, {0, 1, 2, 3, 4, 5, 6, 7},
                          dsy::AllocPolicy::StaticPartition, 2);
  // Partition 0 has 4 nodes; a 5-node request must fail even though the
  // pool as a whole has 8 free nodes — the static-assignment pathology.
  EXPECT_FALSE(rm.allocate(5, 0).has_value());
  EXPECT_TRUE(rm.allocate(4, 0).has_value());
  // Partition 1 unaffected.
  EXPECT_TRUE(rm.allocate(4, 1).has_value());
}

TEST(ResourceManager, ReleaseValidation) {
  ds::Engine eng;
  dsy::ResourceManager rm(eng, {5, 6}, dsy::AllocPolicy::Dynamic);
  EXPECT_THROW(rm.release({99}), deep::util::UsageError);
  EXPECT_THROW(rm.release({5}), deep::util::UsageError);  // not allocated
}

TEST(ResourceManager, UtilisationIntegratesBusyTime) {
  ds::Engine eng;
  dsy::ResourceManager rm(eng, {0, 1, 2, 3}, dsy::AllocPolicy::Dynamic);
  eng.spawn("driver", [&](ds::Context& ctx) {
    auto a = rm.allocate(2);  // 50% busy
    ctx.delay(ds::seconds_i(1));
    rm.release(*a);
    ctx.delay(ds::seconds_i(1));  // 0% busy
  });
  eng.run();
  EXPECT_NEAR(rm.utilisation(), 0.25, 1e-9);  // 2 of 4 nodes for half the time
}

TEST(Energy, IdleSystemDrawsIdlePower) {
  dsy::DeepSystem sys(small_config());
  sys.programs().add("sleep", [](dsy::ProgramEnv& env) {
    env.mpi.ctx().delay(ds::seconds_i(1));
  });
  sys.launch("sleep", 1);
  sys.run();
  const auto e = sys.energy();
  const auto& cfg = sys.config();
  const double expected_cluster = cfg.cluster_nodes * cfg.cluster_spec.idle_watts;
  EXPECT_NEAR(e.cluster_joules, expected_cluster, expected_cluster * 0.01);
  EXPECT_GT(e.booster_joules, 0.0);
  EXPECT_GT(e.gateway_joules, 0.0);
}

TEST(Energy, BoosterComputeBooksFlops) {
  dsy::DeepSystem sys(small_config());
  sys.programs().add("kernel", [](dsy::ProgramEnv& env) {
    env.mpi.compute({1e12, 0, 0}, env.mpi.node().spec().cores);
  });
  sys.programs().add("main", [&](dsy::ProgramEnv& env) {
    env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 2);
  });
  sys.launch("main", 1);
  sys.run();
  EXPECT_NEAR(sys.energy().total_flops, 2e12, 1e9);
}

TEST(Accelerated, GpuOffloadFromRanks) {
  dsy::AcceleratedConfig cfg;
  cfg.nodes = 2;
  dsy::AcceleratedCluster sys(cfg);
  ds::Duration rtt{};
  auto job = sys.launch(
      [&](dsy::AccelProgramEnv& env) {
        const auto t0 = env.mpi.ctx().now();
        env.gpu.launch(env.mpi.ctx(), {1e9, 0, 0}, 1 << 20, 1 << 20);
        if (env.mpi.rank() == 0) rtt = env.mpi.ctx().now() - t0;
        env.mpi.barrier(env.mpi.world());
      },
      2);
  sys.run();
  EXPECT_TRUE(job.done());
  EXPECT_GT(rtt.ps, 0);
  EXPECT_EQ(sys.gpu(0).launches(), 1);
  EXPECT_EQ(sys.gpu(1).launches(), 1);
  EXPECT_GT(sys.energy().total_flops, 1.9e9);
}

TEST(Determinism, FullSystemRepeatable) {
  auto run_once = [] {
    dsy::DeepSystem sys(small_config());
    sys.programs().add("kernel", [](dsy::ProgramEnv& env) {
      env.mpi.compute({1e10, 1e6, 0}, 8);
      env.mpi.barrier(*env.mpi.parent(), env.mpi.world());
    });
    sys.programs().add("main", [](dsy::ProgramEnv& env) {
      auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 4);
      env.mpi.barrier(inter, env.mpi.world());
    });
    sys.launch("main", 2);
    sys.run();
    return std::pair(sys.engine().now().ps, sys.engine().events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Report, ContainsAllSections) {
  dsy::DeepSystem sys(small_config());
  sys.programs().add("kernel", [](dsy::ProgramEnv& env) {
    env.mpi.compute({1e10, 0, 0}, 8);
  });
  sys.programs().add("main", [](dsy::ProgramEnv& env) {
    env.mpi.comm_spawn(env.mpi.world(), 0, "kernel", {}, 2);
  });
  sys.launch("main", 2);
  sys.run();
  const std::string report = deep::sys::format_report(sys);
  EXPECT_NE(report.find("DEEP system report"), std::string::npos);
  EXPECT_NE(report.find("infiniband"), std::string::npos);
  EXPECT_NE(report.find("extoll"), std::string::npos);
  EXPECT_NE(report.find("bi0"), std::string::npos);
  EXPECT_NE(report.find("dynamic pool"), std::string::npos);
  EXPECT_NE(report.find("GFlop"), std::string::npos);
  // The engine line reports the chosen worker count (the `--workers auto`
  // resolution is visible here).
  EXPECT_NE(report.find("1 partition(s), 1 worker(s)\n"),
            std::string::npos)
      << report;
}

TEST(Report, AcceleratedVariant) {
  dsy::AcceleratedConfig cfg;
  cfg.nodes = 2;
  dsy::AcceleratedCluster sys(cfg);
  sys.launch([](dsy::AccelProgramEnv& env) {
    env.gpu.launch(env.mpi.ctx(), {1e9, 0, 0}, 0, 0);
  }, 2);
  sys.run();
  const std::string report = deep::sys::format_report(sys);
  EXPECT_NE(report.find("accelerated-cluster report"), std::string::npos);
  EXPECT_NE(report.find("gpu0"), std::string::npos);
  EXPECT_NE(report.find("launches"), std::string::npos);
}

TEST(Spawn, BoosterRanksCanSpawnGrandchildren) {
  // Nothing restricts comm_spawn to the cluster side: a spawned booster
  // world can itself spawn further booster processes (hierarchical offload).
  dsy::SystemConfig cfg;
  cfg.cluster_nodes = 1;
  cfg.booster_nodes = 6;
  cfg.gateways = 1;
  dsy::DeepSystem sys(cfg);
  int grandchild_world = 0;
  bool grandchild_has_parent = false;
  sys.programs().add("grandchild", [&](dsy::ProgramEnv& env) {
    grandchild_world = env.mpi.size();
    grandchild_has_parent = env.mpi.parent().has_value();
    env.mpi.barrier(*env.mpi.parent(), env.mpi.world());
  });
  sys.programs().add("child", [](dsy::ProgramEnv& env) {
    auto inter = env.mpi.comm_spawn(env.mpi.world(), 0, "grandchild", {}, 2);
    env.mpi.barrier(inter, env.mpi.world());
  });
  sys.programs().add("grandchild2", [](dsy::ProgramEnv&) {});
  sys.programs().add("main", [](dsy::ProgramEnv& env) {
    env.mpi.comm_spawn(env.mpi.world(), 0, "child", {}, 2);
  });
  sys.launch("main", 1);
  sys.run();
  EXPECT_EQ(grandchild_world, 2);
  EXPECT_TRUE(grandchild_has_parent);
  EXPECT_EQ(sys.resource_manager().busy_nodes(), 0);
}
