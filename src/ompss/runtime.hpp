#pragma once
// OmpSs-style dataflow task runtime on one simulated node.
//
// "Decouple how we write (think sequential) from how it is executed"
// (slide 23): tasks are submitted in program order with their data regions;
// the runtime builds the dependency DAG and executes ready tasks on a pool
// of worker processes, one per simulated core.  Task bodies are real C++
// (they mutate real data, e.g. Cholesky tiles); their execution *time* is
// modelled by a KernelCost burned on the worker's core.
//
// Threading model: the runtime belongs to one master process.  submit() and
// taskwait() must be called from that process.  Tasks marked External are
// not given to workers; they are executed by the master inside taskwait()
// (this is how the MPI offload abstraction runs, since an Mpi handle is
// bound to its owning process — MPI_THREAD_FUNNELED semantics).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/node.hpp"
#include "ompss/region.hpp"
#include "sim/engine.hpp"

namespace deep::ompss {

using TaskId = std::uint64_t;

struct RuntimeStats {
  std::int64_t tasks_submitted = 0;
  std::int64_t tasks_executed = 0;
  std::int64_t dependency_edges = 0;
  int max_parallelism = 0;          // peak simultaneously-running tasks
  double critical_path_seconds = 0; // longest cost-weighted dependency chain
  double total_task_seconds = 0;    // sum of single-core task times
};

class Runtime {
 public:
  /// Creates the runtime with `workers` worker processes on `node`
  /// (defaults to one per core).  Must be called from the master process.
  Runtime(sim::Context& master, hw::Node& node, int workers = 0);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Submits a task: `body` runs exactly once on some worker after all its
  /// dependencies completed; `cost` is the modelled single-core execution
  /// time on this node.  Higher `priority` tasks are picked from the ready
  /// queue first (ties resolve in submission order).
  TaskId submit(std::string name, std::vector<Region> regions,
                hw::KernelCost cost, std::function<void()> body,
                int priority = 0);

  /// Submits an external (offload) task: executed by the master process
  /// inside taskwait() once its dependencies are satisfied.  The body may
  /// use the master's Mpi handle (blocking communication allowed).
  TaskId submit_external(std::string name, std::vector<Region> regions,
                         std::function<void()> body);

  /// Blocks the master until every submitted task has completed; executes
  /// ready External tasks itself while waiting.
  void taskwait();

  /// Blocks until every task touching a region overlapping `regions` has
  /// completed (OmpSs "taskwait on(...)"). Other tasks may still be running
  /// or pending when this returns.
  void taskwait_on(const std::vector<Region>& regions);

  const RuntimeStats& stats() const { return stats_; }
  int workers() const { return static_cast<int>(workers_.size()); }
  hw::Node& node() const { return *node_; }

 private:
  struct Task {
    TaskId id;
    std::string name;
    hw::KernelCost cost;
    std::function<void()> body;
    bool external = false;
    int priority = 0;
    std::vector<Region> regions;
    int unmet_deps = 0;
    std::vector<TaskId> successors;
    double depth_seconds = 0;  // critical-path depth ending at this task
    bool completed = false;
  };

  struct RegionState {
    Region region;              // key interval (access mode ignored)
    TaskId last_writer = 0;     // 0 = none
    std::vector<TaskId> readers_since_write;
  };

  TaskId submit_impl(std::string name, std::vector<Region> regions,
                     hw::KernelCost cost, std::function<void()> body,
                     bool external, int priority);
  TaskId pop_ready();
  void add_edge(Task& from, Task& to);
  void make_ready(Task& task);
  void run_task(sim::Context& ctx, Task& task, bool on_worker);
  void on_task_done(Task& task);
  void worker_loop(sim::Context& ctx);

  sim::Context* master_;
  hw::Node* node_;
  std::vector<sim::Process*> workers_;
  std::unordered_map<TaskId, std::unique_ptr<Task>> tasks_;
  std::deque<TaskId> ready_;           // for workers
  std::deque<TaskId> ready_external_;  // for the master (taskwait)
  std::vector<RegionState> region_states_;
  RuntimeStats stats_;
  // Metrics handles (see docs/observability.md).
  obs::Counter m_tasks_;
  obs::Counter m_edges_;
  obs::Histogram m_task_ns_;
  TaskId next_id_ = 1;
  std::int64_t pending_ = 0;  // submitted but not completed
  int running_now_ = 0;
  bool shutting_down_ = false;
};

}  // namespace deep::ompss
