#include "sys/resilient.hpp"

#include <memory>
#include <string>
#include <utility>

#include "mpi/types.hpp"
#include "util/error.hpp"

namespace deep::sys {

ResilientJob::ResilientJob(sim::Engine& engine, mpi::MpiSystem& mpi,
                           std::vector<hw::Node*> rank_nodes,
                           ckpt::Manager* manager, ResilienceParams params,
                           RankBody body)
    : engine_(&engine),
      mpi_(&mpi),
      rank_nodes_(std::move(rank_nodes)),
      manager_(manager),
      params_(params),
      body_(std::move(body)) {
  DEEP_EXPECT(!rank_nodes_.empty(), "ResilientJob: needs at least one rank");
  DEEP_EXPECT(static_cast<bool>(body_), "ResilientJob: empty rank body");
  DEEP_EXPECT(params_.max_attempts >= 1,
              "ResilientJob: max_attempts must be >= 1");
  DEEP_EXPECT(params_.poll_quantum.ps > 0 && params_.stall_quanta >= 1,
              "ResilientJob: watchdog parameters must be positive");
  DEEP_EXPECT(manager_ == nullptr || manager_->nranks() == nranks(),
              "ResilientJob: checkpoint manager sized for a different job");
}

void ResilientJob::start() {
  DEEP_EXPECT(!started_, "ResilientJob::start: already started");
  // Restart orchestration mutates job state shared by all ranks (and the
  // fault plan requires it anyway for the chaos that makes restart matter).
  DEEP_EXPECT(engine_->partitions() == 1,
              "ResilientJob: requires a single-partition engine");
  started_ = true;
  engine_->spawn("resilient-ctl", [this](sim::Context& ctx) { controller(ctx); });
}

void ResilientJob::launch_attempt(int attempt) {
  const int n = nranks();
  std::vector<hw::NodeId> placement;
  placement.reserve(static_cast<std::size_t>(n));
  for (const hw::Node* node : rank_nodes_) placement.push_back(node->id());
  // A fresh world per attempt: new endpoints, new context ids.  In-flight
  // stragglers of the previous attempt address the old endpoints and
  // contexts and cannot confuse the new ranks.
  const mpi::MpiSystem::World world = mpi_->create_world(placement);
  succeeded_.assign(static_cast<std::size_t>(n), 0);
  procs_.clear();
  for (int r = 0; r < n; ++r) {
    // Appended piecewise: GCC 12's -Wrestrict misfires on the operator+
    // chain ("a" + to_string(...) + ...), which -Werror turns into an error.
    std::string name = "a";
    name += std::to_string(attempt);
    name += ".rank";
    name += std::to_string(r);
    procs_.push_back(&engine_->spawn(name, [this, world, r](sim::Context& ctx) {
      mpi::Mpi mpi(*mpi_, ctx, *rank_nodes_[static_cast<std::size_t>(r)],
                   world, r);
      std::optional<ckpt::Checkpointer> ck;
      if (manager_ != nullptr) ck.emplace(*manager_, r);
      try {
        body_(mpi, ck ? &*ck : nullptr);
        succeeded_[static_cast<std::size_t>(r)] = 1;
      } catch (const mpi::MpiError&) {
        // A peer (or the path to it) died; the attempt will be retried.
      } catch (const ckpt::RestoreError&) {
        // Every copy of the planned version was unreachable; the controller
        // replans on the next attempt.
      }
    }));
  }
}

int ResilientJob::finished_ranks() const {
  int done = 0;
  for (const sim::Process* p : procs_) done += p->finished() ? 1 : 0;
  return done;
}

std::int64_t ResilientJob::progress() const {
  std::int64_t v = finished_ranks();
  if (manager_ != nullptr) v += manager_->progress_ticks();
  if (probe_) v += probe_();
  return v;
}

void ResilientJob::abort_attempt() {
  for (sim::Process* p : procs_)
    if (!p->finished()) p->request_kill();
}

void ResilientJob::on_node_event(hw::NodeId node, bool up) {
  if (up || done_) return;
  // Kill the rank fibers running on the dead node right away: the failure
  // is detected at death time, not when a survivor eventually blocks on
  // the silent peer.
  for (std::size_t r = 0; r < procs_.size(); ++r) {
    if (rank_nodes_[r]->id() != node) continue;
    if (!procs_[r]->finished()) {
      procs_[r]->request_kill();
      succeeded_[r] = 0;
    }
  }
}

void ResilientJob::controller(sim::Context& ctx) {
  const int n = nranks();
  for (int attempt = 1; attempt <= params_.max_attempts; ++attempt) {
    // Wait for every rank node to be back before (re)launching.  Liveness
    // is the checkpoint manager's view of the fault plan's node events;
    // without a manager, failed nodes are assumed to heal on their own
    // schedule and the relaunch delay plus watchdog absorb the gap.
    if (manager_ != nullptr) {
      const sim::TimePoint wait_start = ctx.now();
      while (!manager_->all_rank_nodes_up()) {
        if (ctx.now() - wait_start > params_.max_node_wait) {
          done_ = true;
          return;  // a rank node never healed; the job cannot complete
        }
        ctx.delay(params_.poll_quantum);
      }
    }
    ctx.delay(params_.relaunch_delay);

    outcome_.attempts = attempt;
    if (manager_ != nullptr) {
      // First attempt starts fresh; retries roll back to the newest version
      // every rank can still reach (nullopt: all copies lost — scratch).
      manager_->set_plan(attempt == 1 ? std::nullopt
                                      : manager_->plan_restart());
    }
    launch_attempt(attempt);

    // Watchdog: abort the attempt when nothing moves for stall_quanta
    // polls — the signature of ranks blocked on a dead peer.
    std::int64_t last = -1;
    int stalled = 0;
    bool aborted = false;
    while (finished_ranks() < n) {
      ctx.delay(params_.poll_quantum);
      const std::int64_t now = progress();
      if (now != last) {
        last = now;
        stalled = 0;
        continue;
      }
      if (++stalled >= params_.stall_quanta && !aborted) {
        abort_attempt();
        aborted = true;
        ++outcome_.aborted_attempts;
      }
    }

    int ok = 0;
    for (char s : succeeded_) ok += s;
    outcome_.rank_failures += n - ok;
    if (ok == n) {
      outcome_.completed = true;
      break;
    }
    if (manager_ != nullptr) manager_->begin_recovery(ctx.now());
  }
  done_ = true;
}

}  // namespace deep::sys
