#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <utility>

#include "hw/nvm.hpp"

namespace deep::ckpt {

// ---------------------------------------------------------------------------
// Store

Store::Store(int nranks, int history) : nranks_(nranks), history_(history) {
  DEEP_EXPECT(nranks_ >= 1, "ckpt::Store: needs at least one rank");
  DEEP_EXPECT(history_ >= 1, "ckpt::Store: history must be >= 1");
  slots_.resize(static_cast<std::size_t>(nranks_) * 3);
}

std::deque<Copy>& Store::slot(int rank, Level level) {
  DEEP_ASSERT(rank >= 0 && rank < nranks_, "ckpt::Store: rank out of range");
  return slots_[static_cast<std::size_t>(rank) * 3 +
                static_cast<std::size_t>(level) - 1];
}

const std::deque<Copy>& Store::slot(int rank, Level level) const {
  return const_cast<Store*>(this)->slot(rank, level);
}

std::vector<Copy> Store::put(int rank, Level level, std::uint64_t version,
                             hw::NodeId holder, std::int64_t alloc_bytes,
                             std::vector<std::byte> bytes) {
  std::deque<Copy>& s = slot(rank, level);
  Copy c;
  c.version = version;
  c.holder = holder;
  c.valid = true;
  c.alloc_bytes = alloc_bytes;
  c.bytes = std::move(bytes);
  s.push_front(std::move(c));
  std::vector<Copy> evicted;
  while (static_cast<int>(s.size()) > history_) {
    evicted.push_back(std::move(s.back()));
    s.pop_back();
  }
  return evicted;
}

const Copy* Store::find(int rank, Level level, std::uint64_t version) const {
  for (const Copy& c : slot(rank, level))
    if (c.valid && c.version == version) return &c;
  return nullptr;
}

std::vector<std::pair<hw::NodeId, std::int64_t>> Store::invalidate_holder(
    hw::NodeId node) {
  std::vector<std::pair<hw::NodeId, std::int64_t>> charges;
  for (std::deque<Copy>& s : slots_) {
    for (Copy& c : s) {
      if (c.holder != node) continue;
      c.valid = false;
      if (c.alloc_bytes > 0) {
        charges.emplace_back(c.holder, c.alloc_bytes);
        c.alloc_bytes = 0;  // charge released exactly once
      }
    }
  }
  return charges;
}

std::vector<std::uint64_t> Store::versions(int rank, Level level) const {
  std::vector<std::uint64_t> out;
  for (const Copy& c : slot(rank, level))
    if (c.valid) out.push_back(c.version);
  return out;
}

std::optional<RestartPlan> Store::plan_restart() const {
  // Candidate versions: everything any rank still holds, newest first.
  std::vector<std::uint64_t> candidates;
  for (const std::deque<Copy>& s : slots_)
    for (const Copy& c : s)
      if (c.valid) candidates.push_back(c.version);
  std::sort(candidates.begin(), candidates.end(),
            std::greater<std::uint64_t>());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (std::uint64_t v : candidates) {
    RestartPlan plan;
    plan.version = v;
    plan.level.reserve(static_cast<std::size_t>(nranks_));
    bool complete = true;
    for (int r = 0; r < nranks_ && complete; ++r) {
      if (find(r, Level::L1, v)) plan.level.push_back(Level::L1);
      else if (find(r, Level::L2, v)) plan.level.push_back(Level::L2);
      else if (find(r, Level::L3, v)) plan.level.push_back(Level::L3);
      else complete = false;
    }
    if (complete) return plan;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Manager

Manager::Manager(sim::Engine& engine, CkptParams params,
                 std::vector<hw::Node*> rank_nodes, io::IoNet* ionet,
                 io::ParallelFs* fs)
    : engine_(&engine),
      params_(params),
      rank_nodes_(std::move(rank_nodes)),
      ionet_(ionet),
      fs_(fs),
      store_(static_cast<int>(rank_nodes_.size()),
             std::max(params.history, 1)),
      save_seq_(rank_nodes_.size(), 0) {
  DEEP_EXPECT(!rank_nodes_.empty(), "ckpt::Manager: needs at least one rank");
  for (hw::Node* n : rank_nodes_)
    DEEP_EXPECT(n != nullptr, "ckpt::Manager: null rank node");
  if (!params_.active()) return;  // inert: no instruments, no requirements
  DEEP_EXPECT(params_.history >= 1, "ckpt::Manager: history must be >= 1");
  DEEP_EXPECT(params_.l2_every == 0 || ionet_ != nullptr,
              "ckpt::Manager: L2 enabled but no IoNet");
  DEEP_EXPECT(params_.l3_every == 0 || fs_ != nullptr,
              "ckpt::Manager: L3 enabled but no parallel FS");
  obs::Registry& reg = engine_->metrics();
  m_l1_bytes_ = reg.counter("ckpt.l1_bytes");
  m_l2_bytes_ = reg.counter("ckpt.l2_bytes");
  m_l3_bytes_ = reg.counter("ckpt.l3_bytes");
  m_saves_ = reg.counter("ckpt.saves");
  m_restores_ = reg.counter("ckpt.restores");
  m_rollbacks_ = reg.counter("ckpt.rollbacks");
  m_scratch_ = reg.counter("ckpt.scratch_restarts");
  m_level_failures_ = reg.counter("ckpt.level_failures");
  m_save_ns_ = reg.histogram("ckpt.save_ns");
  m_restore_ns_ = reg.histogram("ckpt.restore_ns");
  m_recovery_ns_ = reg.histogram("ckpt.recovery_ns");
}

hw::NodeId Manager::buddy_node(int rank) const {
  const int n = nranks();
  const hw::Node* self = rank_nodes_[static_cast<std::size_t>(rank)];
  // Prefer the next rank (cyclically) on the same node kind: buddy traffic
  // then stays on the rank's own fabric instead of crossing the gateways.
  for (int d = 1; d < n; ++d) {
    const hw::Node* cand = rank_nodes_[static_cast<std::size_t>((rank + d) % n)];
    if (cand->kind() == self->kind() && cand->id() != self->id())
      return cand->id();
  }
  for (int d = 1; d < n; ++d) {
    const hw::Node* cand = rank_nodes_[static_cast<std::size_t>((rank + d) % n)];
    if (cand->id() != self->id()) return cand->id();
  }
  return self->id();  // single-node job: L2 adds nothing, save() skips it
}

void Manager::on_node_event(hw::NodeId node, bool up) {
  if (up) {
    down_nodes_.erase(std::remove(down_nodes_.begin(), down_nodes_.end(), node),
                      down_nodes_.end());
    return;
  }
  if (std::find(down_nodes_.begin(), down_nodes_.end(), node) ==
      down_nodes_.end())
    down_nodes_.push_back(node);
  // The node's NVM contents are gone: every copy it held is now invalid,
  // and the residency those copies charged is released (the device restarts
  // empty when the node heals).
  release(store_.invalidate_holder(node));
}

bool Manager::node_up(hw::NodeId node) const {
  return std::find(down_nodes_.begin(), down_nodes_.end(), node) ==
         down_nodes_.end();
}

bool Manager::all_rank_nodes_up() const {
  for (const hw::Node* n : rank_nodes_)
    if (!node_up(n->id())) return false;
  return true;
}

std::string Manager::l3_path(int rank, std::uint64_t version) const {
  return "ckpt/r" + std::to_string(rank) + "/v" + std::to_string(version);
}

void Manager::release(
    const std::vector<std::pair<hw::NodeId, std::int64_t>>& charges) {
  for (const auto& [holder, bytes] : charges) {
    for (hw::Node* n : rank_nodes_) {
      if (n->id() != holder) continue;
      if (hw::NvmDevice* nvm = n->nvm()) nvm->release(bytes);
      break;
    }
  }
}

void Manager::release_evicted(const std::vector<Copy>& evicted) {
  std::vector<std::pair<hw::NodeId, std::int64_t>> charges;
  for (const Copy& c : evicted)
    if (c.alloc_bytes > 0) charges.emplace_back(c.holder, c.alloc_bytes);
  release(charges);
}

void Manager::save(sim::Context& ctx, int rank, std::uint64_t version,
                   std::vector<std::byte> bytes) {
  if (!params_.active()) return;
  const sim::TimePoint t0 = ctx.now();
  const int seq = ++save_seq_[static_cast<std::size_t>(rank)];
  hw::Node* node = rank_nodes_[static_cast<std::size_t>(rank)];
  const auto sz = static_cast<std::int64_t>(bytes.size());

  // L1: the rank's own NVM.
  if (hw::NvmDevice* nvm = node->nvm()) {
    if (nvm->try_alloc(sz)) {
      nvm->write(ctx, sz);
      release_evicted(
          store_.put(rank, Level::L1, version, node->id(), sz, bytes));
      m_l1_bytes_.add(sz);
    } else {
      m_level_failures_.inc();
    }
  }

  // L2: push a copy to the buddy's NVM over the fabric.
  if (params_.l2_every > 0 && seq % params_.l2_every == 0) {
    const hw::NodeId buddy = buddy_node(rank);
    if (buddy != node->id()) {
      if (ionet_->transfer(ctx, node->id(), buddy, io::OpKind::BuddyWrite, sz,
                           0)) {
        std::int64_t alloc = 0;
        for (hw::Node* n : rank_nodes_) {
          if (n->id() != buddy) continue;
          if (hw::NvmDevice* nvm = n->nvm())
            if (nvm->try_alloc(sz)) alloc = sz;
          break;
        }
        release_evicted(
            store_.put(rank, Level::L2, version, buddy, alloc, bytes));
        m_l2_bytes_.add(sz);
      } else {
        m_level_failures_.inc();
      }
    }
  }

  // L3: striped file on the parallel FS (durable).
  if (params_.l3_every > 0 && seq % params_.l3_every == 0) {
    if (fs_->write(ctx, node->id(), l3_path(rank, version), sz)) {
      release_evicted(store_.put(rank, Level::L3, version, hw::kInvalidNode, 0,
                                 std::move(bytes)));
      m_l3_bytes_.add(sz);
    } else {
      m_level_failures_.inc();
    }
  }

  ++saves_;
  ++progress_;
  m_saves_.inc();
  m_save_ns_.record((ctx.now() - t0).ps / 1000);
}

bool Manager::fetch(sim::Context& ctx, int rank, Level level,
                    const Copy& copy) {
  hw::Node* node = rank_nodes_[static_cast<std::size_t>(rank)];
  const auto sz = static_cast<std::int64_t>(copy.bytes.size());
  switch (level) {
    case Level::L1:
      if (hw::NvmDevice* nvm = node->nvm()) nvm->read(ctx, sz);
      return true;  // local: a valid copy is always reachable
    case Level::L2:
      return ionet_->transfer(ctx, node->id(), copy.holder,
                              io::OpKind::BuddyRead, 0, sz);
    case Level::L3:
      return fs_->read(ctx, node->id(), l3_path(rank, copy.version));
  }
  return false;
}

std::optional<RestoredState> Manager::restore(sim::Context& ctx, int rank) {
  if (!params_.active()) return std::nullopt;
  if (!plan_) {
    note_rank_ready(ctx.now());  // fresh start still counts as recovered
    return std::nullopt;
  }
  const sim::TimePoint t0 = ctx.now();
  const std::uint64_t v = plan_->version;
  const Level planned = plan_->level[static_cast<std::size_t>(rank)];
  const Level order[] = {planned, Level::L1, Level::L2, Level::L3};
  for (std::size_t i = 0; i < 4; ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) seen = seen || order[j] == order[i];
    if (seen) continue;
    const Copy* copy = store_.find(rank, order[i], v);
    if (copy == nullptr) continue;
    if (!fetch(ctx, rank, order[i], *copy)) {
      m_level_failures_.inc();
      continue;
    }
    ++restores_;
    ++restores_at_[static_cast<std::size_t>(order[i]) - 1];
    ++progress_;
    m_restores_.inc();
    m_restore_ns_.record((ctx.now() - t0).ps / 1000);
    note_rank_ready(ctx.now());
    return RestoredState{v, copy->bytes};
  }
  throw RestoreError("ckpt: rank " + std::to_string(rank) +
                     ": no reachable copy of version " + std::to_string(v));
}

void Manager::set_plan(std::optional<RestartPlan> plan) {
  plan_ = std::move(plan);
  if (!recovering_) return;
  if (plan_) {
    ++rollbacks_;
    m_rollbacks_.inc();
  } else {
    ++scratch_restarts_;
    m_scratch_.inc();
  }
}

void Manager::begin_recovery(sim::TimePoint failed_at) {
  recovering_ = true;
  failed_at_ = failed_at;
  ranks_ready_ = 0;
}

void Manager::note_rank_ready(sim::TimePoint now) {
  ++progress_;
  if (!recovering_) return;
  if (++ranks_ready_ < nranks()) return;
  m_recovery_ns_.record((now - failed_at_).ps / 1000);
  recovering_ = false;
  ranks_ready_ = 0;
}

}  // namespace deep::ckpt
