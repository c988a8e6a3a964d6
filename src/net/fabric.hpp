#pragma once
// Fabric interface: a network that connects attached nodes and delivers
// Messages to their NICs after a modelled delay.
//
// Fault model (see docs/fault_injection.md): every fabric carries an
// administrative link-state table (set_link_up) and an optional per-message
// drop hook (set_drop_fn, installed by net::FaultPlan for probabilistic
// faults).  A message whose route crosses a dead link, or that the drop hook
// selects, is *dropped*: counted in net.<name>.dropped and handed
// to the drop handler (the CBP bridge retries frames, the MPI layer turns
// losses into error codes).  With no dead links and no drop hook installed
// the fault path costs one branch per send.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace deep::net {

/// Aggregate traffic statistics of a fabric, read by Fabric::stats().
struct FabricStats {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t messages_dropped = 0;  // lost to dead links / injected drops
  // End-to-end per-message latency, exact to the picosecond.
  std::int64_t delivery_ps_sum = 0;
  std::int64_t delivery_ps_max = 0;

  double mean_delivery_us() const {
    return messages > 0 ? static_cast<double>(delivery_ps_sum) /
                              static_cast<double>(messages) * 1e-6
                        : 0.0;
  }
  double max_delivery_us() const {
    return static_cast<double>(delivery_ps_max) * 1e-6;
  }
};

class Fabric {
 public:
  explicit Fabric(sim::Engine& engine, std::string name)
      : engine_(&engine), name_(std::move(name)) {
    obs::Registry& metrics = engine_->metrics();
    m_messages_ = metrics.counter("net." + name_ + ".messages");
    m_bytes_ = metrics.counter("net." + name_ + ".bytes");
    m_dropped_ = metrics.counter("net." + name_ + ".dropped");
    m_delivery_ns_ = metrics.histogram("net." + name_ + ".delivery_ns");
  }
  virtual ~Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const std::string& name() const { return name_; }
  sim::Engine& engine() const { return *engine_; }

  /// Attaches a node; returns its NIC on this fabric (stable reference).
  virtual Nic& attach(hw::NodeId node) {
    DEEP_EXPECT(node >= 0, "Fabric::attach: negative node id");
    const auto slot = static_cast<std::size_t>(node);
    if (slot >= nics_.size()) {
      nics_.resize(slot + 1);
      node_partition_.resize(slot + 1, kUnassigned);
    }
    DEEP_EXPECT(nics_[slot] == nullptr, "Fabric::attach: node already attached");
    nics_[slot] = std::make_unique<Nic>(node);
    ++attached_count_;
    partition_dirty_.store(true, std::memory_order_release);
    return *nics_[slot];
  }

  bool attached(hw::NodeId node) const {
    return node >= 0 && static_cast<std::size_t>(node) < nics_.size() &&
           nics_[static_cast<std::size_t>(node)] != nullptr;
  }

  Nic& nic(hw::NodeId node) {
    DEEP_EXPECT(attached(node), "Fabric::nic: node not attached");
    return *nics_[static_cast<std::size_t>(node)];
  }

  /// Injects a message; the fabric delivers it to the destination NIC after
  /// its modelled delay.  `svc` selects the service class (VELO/RMA on
  /// EXTOLL-like fabrics).
  virtual void send(Message msg, Service svc) = 0;

  /// A conservative lower bound on the delay between injecting any message
  /// and its delivery: every send() schedules its NIC callback no earlier
  /// than now() + lookahead().  The parallel engine derives its safe-window
  /// widths from the fabrics' lookaheads (docs/parallel_engine.md).  The
  /// base fabric promises nothing.
  virtual sim::Duration lookahead() const { return sim::Duration{0}; }

  /// Per-partition-pair lower bound: no send() executing on partition
  /// `src_part` schedules anything onto partition `dst_part` earlier than
  /// now() + lookahead(src_part, dst_part).  Topology-aware fabrics (torus,
  /// fat tree, dragonfly) tighten this with route distance (hop_lookahead);
  /// the base promise is the uniform lookahead when both partitions have
  /// nodes on this fabric and "unconstrained" when either has none (such
  /// pairs never interact through this fabric).
  /// net::install_pair_lookahead() folds the per-pair minima over all
  /// fabrics into the engine.
  virtual sim::Duration lookahead(std::uint32_t src_part,
                                  std::uint32_t dst_part) const {
    if (src_part == dst_part || !has_partition_nodes(src_part) ||
        !has_partition_nodes(dst_part))
      return sim::kUnconstrainedLookahead;
    return lookahead();
  }

  /// Traffic statistics: the counts are the registry's net.<name>.* cells;
  /// the latency comes from per-execution-lane picosecond totals (the
  /// delivery_ns histogram rounds to nanoseconds).  Computed on read.
  FabricStats stats() const {
    FabricStats out;
    out.messages = m_messages_.value();
    out.bytes = m_bytes_.value();
    out.messages_dropped = m_dropped_.value();
    for (const DeliveryLane& lane : delivery_) {
      out.delivery_ps_sum += lane.ps_sum;
      out.delivery_ps_max = std::max(out.delivery_ps_max, lane.ps_max);
    }
    return out;
  }

  // -- partition placement ----------------------------------------------------

  /// Declares that `node` lives on engine partition `p` (see
  /// sim::Engine::set_partitions).  Nodes default to partition 0.  Call
  /// before the run, after attach(); deliveries then cross partitions via
  /// Engine::schedule_on and the fabric's lookahead(p, q) contract applies.
  void set_node_partition(hw::NodeId node, std::uint32_t p) {
    DEEP_EXPECT(attached(node), "Fabric::set_node_partition: not attached");
    DEEP_EXPECT(p < engine_->partitions(),
                "Fabric::set_node_partition: no such partition");
    std::uint32_t& slot = node_partition_[static_cast<std::size_t>(node)];
    if (slot == kUnassigned) ++assigned_count_;
    slot = p;
    partition_dirty_.store(true, std::memory_order_release);
  }

  /// The partition `node`'s NIC events run on (0 unless assigned).
  std::uint32_t partition_of(hw::NodeId node) const {
    const auto slot = static_cast<std::size_t>(node);
    if (node < 0 || slot >= node_partition_.size()) return 0;
    const std::uint32_t p = node_partition_[slot];
    return p == kUnassigned ? 0 : p;
  }

  /// True once any node has an explicit partition assignment.
  bool partitioned() const { return assigned_count_ > 0; }

  /// True when at least one attached node lives on partition `p`.
  bool has_partition_nodes(std::uint32_t p) const {
    if (p != kUnassigned)
      for (const std::uint32_t part : node_partition_)
        if (part == p) return true;
    // Unassigned nodes default to partition 0.
    return p == 0 && assigned_count_ < attached_count_;
  }

  // -- topology introspection (for auto-partitioning) -------------------------

  /// Attached node ids in ascending order.
  std::vector<hw::NodeId> attached_ids() const {
    std::vector<hw::NodeId> ids;
    ids.reserve(attached_count_);
    for (const auto& nic : nics_)
      if (nic != nullptr) ids.push_back(nic->node());
    return ids;
  }

  /// Locality edges between attached nodes, for net::auto_partition():
  /// nodes joined by an edge are cheap to co-locate.  Topology-aware
  /// fabrics override this with their real adjacency; the distance-uniform
  /// base offers a chain in id order (any contiguous split is as good as
  /// any other).
  virtual std::vector<std::pair<hw::NodeId, hw::NodeId>> topology_edges()
      const {
    std::vector<hw::NodeId> ids = attached_ids();
    std::vector<std::pair<hw::NodeId, hw::NodeId>> edges;
    for (std::size_t i = 0; i + 1 < ids.size(); ++i)
      edges.emplace_back(ids[i], ids[i + 1]);
    return edges;
  }

  // -- fault injection --------------------------------------------------------

  /// Marks the link between two attached nodes dead (up=false) or healed.
  /// The pair is unordered (both directions fail together, like pulling a
  /// cable).  `a == b` kills the node's own fabric access (NIC failure).
  void set_link_up(hw::NodeId a, hw::NodeId b, bool up) {
    DEEP_EXPECT(attached(a) && attached(b),
                "Fabric::set_link_up: node not attached");
    if (up)
      down_links_.erase(link_pair(a, b));
    else
      down_links_.insert(link_pair(a, b));
  }

  /// True unless set_link_up(a, b, false) is in effect.
  bool link_up(hw::NodeId a, hw::NodeId b) const {
    return !down_links_.contains(link_pair(a, b));
  }

  std::size_t links_down() const { return down_links_.size(); }

  /// Per-message drop hook (probabilistic fault injection).  Consulted once
  /// per send; returning true drops the message.  Pass nullptr to clear.
  using DropFn = std::function<bool(const Message&)>;
  void set_drop_fn(DropFn fn) { drop_fn_ = std::move(fn); }

  /// Handler invoked with every dropped message (after the drop is counted).
  /// Installed by the transport layer to drive retries / loss reporting;
  /// one handler per fabric.
  using DropHandler = std::function<void(Message&&)>;
  void set_drop_handler(DropHandler handler) {
    drop_handler_ = std::move(handler);
  }

 protected:
  // -- partition geometry (lazy) ----------------------------------------------

  /// Rebuilds the fabric's partition geometry from the node partitions:
  /// unit_owner_, the partition owning each of the fabric's ownership units
  /// (torus coordinates, fat-tree leaves; kNoOwner when shared), and
  /// pair_hops_, the P*P matrix of route distances between partitions (-1
  /// where no route joins the pair).  Runs lazily, once after any attach or
  /// set_node_partition, and only in partitioned runs.
  virtual void refresh_partitions() const {}

  /// Owner of a unit, or of a link, that no partition books.
  static constexpr std::uint32_t kNoOwner = 0xFFFFFFFFu;

  /// The partition owning ownership unit `unit` (0 when unpartitioned: a
  /// serial run never builds the geometry).
  std::uint32_t unit_owner(std::size_t unit) const {
    if (!partitioned()) return 0;
    ensure_partitions();
    return unit_owner_[unit];
  }

  /// Route-distance pair lookahead, floor + step * pair_hops_(src, dst):
  /// the cheapest delivery between the two partitions' closest points.
  /// Unpartitioned fabrics keep the base uniform promise.
  sim::Duration hop_lookahead(std::uint32_t src_part, std::uint32_t dst_part,
                              sim::Duration floor, sim::Duration step) const {
    if (!partitioned()) return Fabric::lookahead(src_part, dst_part);
    if (src_part == dst_part) return sim::kUnconstrainedLookahead;
    ensure_partitions();
    const std::uint32_t nparts = engine_->partitions();
    if (src_part >= nparts || dst_part >= nparts)
      return sim::kUnconstrainedLookahead;
    const std::int64_t d =
        pair_hops_[static_cast<std::size_t>(src_part) * nparts + dst_part];
    if (d < 0) return sim::kUnconstrainedLookahead;
    return floor + step * d;
  }

  /// True when the path this fabric would route src->dst over is usable.
  /// The base implementation knows only the endpoints; topology-aware
  /// fabrics (the torus) override it to walk the actual route.  Called only
  /// while at least one link is down.
  virtual bool route_up(hw::NodeId src, hw::NodeId dst) const {
    return link_up(src, dst);
  }

  /// Fault gate, called at the top of every send() override: returns true
  /// (and consumes `msg`) when the message is dropped.  Costs one branch
  /// when no faults are configured.
  bool faulted(Message& msg) {
    if (down_links_.empty() && !drop_fn_) return false;
    const bool blocked =
        !down_links_.empty() &&
        (!link_up(msg.src, msg.src) || !link_up(msg.dst, msg.dst) ||
         !route_up(msg.src, msg.dst));
    if (!blocked && !(drop_fn_ && drop_fn_(msg))) return false;
    drop(std::move(msg));
    return true;
  }

  /// Books and reports a dropped message.
  void drop(Message&& msg) {
    m_dropped_.add(1);
    if (auto* tracer = engine_->tracer()) {
      tracer->instant(name_ + " wire",
                      "drop " + std::to_string(msg.src) + "->" +
                          std::to_string(msg.dst) + " " +
                          std::to_string(msg.size_bytes) + "B",
                      engine_->now(), "fault");
    }
    if (drop_handler_) drop_handler_(std::move(msg));
  }

  /// Schedules delivery at absolute time `at` and books the statistics.
  void deliver_at(sim::TimePoint at, Message msg) {
    Nic* nic = &this->nic(msg.dst);
    const std::int64_t latency_ps = (at - engine_->now()).ps;
    // A partition's events run on exactly one lane per window, so booking
    // into the lane's totals is race-free.
    DeliveryLane& lane = delivery_[util::exec_lane()];
    lane.ps_sum += latency_ps;
    lane.ps_max = std::max(lane.ps_max, latency_ps);
    m_messages_.add(1);
    m_bytes_.add(msg.size_bytes);
    m_delivery_ns_.record(latency_ps / 1000);
    if (auto* tracer = engine_->tracer()) {
      tracer->span(name_ + " wire",
                   std::to_string(msg.src) + "->" + std::to_string(msg.dst) +
                       " " + std::to_string(msg.size_bytes) + "B",
                   engine_->now(), at, "net");
    }
    // Park the message in a pooled slot: the capture is {Nic*, PooledMessage}
    // (16 bytes), so the event fits the engine's inline buffer and the whole
    // schedule-deliver round trip allocates nothing in steady state.
    if (!partitioned()) {
      // Unpartitioned fabric: historical path, bit-identical scheduling.
      engine_->schedule_at(at,
                           [nic, m = PooledMessage(std::move(msg))]() mutable {
                             nic->deliver(m.take());
                           });
      return;
    }
    engine_->schedule_on(partition_of(msg.dst), at,
                         [nic, m = PooledMessage(std::move(msg))]() mutable {
                           nic->deliver(m.take());
                         });
  }

  sim::Engine* engine_;
  std::string name_;
  std::vector<std::unique_ptr<Nic>> nics_;  // indexed by node; null if absent
  std::size_t attached_count_ = 0;
  struct DeliveryLane {
    std::int64_t ps_sum = 0;
    std::int64_t ps_max = 0;
  };
  std::vector<DeliveryLane> delivery_ =
      std::vector<DeliveryLane>(util::kMaxLanes);  // indexed by execution lane
  // Partition geometry, filled by refresh_partitions().
  mutable std::vector<std::uint32_t> unit_owner_;
  mutable std::vector<std::int64_t> pair_hops_;
  obs::Counter m_messages_;
  obs::Counter m_bytes_;
  obs::Counter m_dropped_;
  obs::Histogram m_delivery_ns_;

 private:
  static constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;

  /// refresh_partitions() if anything changed since the last one.  Normally
  /// first reached on the main thread (install_pair_lookahead queries
  /// lookahead(p, q) before the run); the mutex covers a stray first query
  /// racing across lanes.
  void ensure_partitions() const {
    if (!partition_dirty_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(partition_mu_);
    if (!partition_dirty_.load(std::memory_order_relaxed)) return;
    refresh_partitions();
    partition_dirty_.store(false, std::memory_order_release);
  }

  static std::pair<hw::NodeId, hw::NodeId> link_pair(hw::NodeId a,
                                                     hw::NodeId b) {
    return a <= b ? std::pair{a, b} : std::pair{b, a};
  }

  std::vector<std::uint32_t> node_partition_;  // by node; kUnassigned if not
  std::size_t assigned_count_ = 0;             // explicitly assigned nodes
  mutable std::atomic<bool> partition_dirty_{false};
  mutable std::mutex partition_mu_;
  std::set<std::pair<hw::NodeId, hw::NodeId>> down_links_;
  DropFn drop_fn_;
  DropHandler drop_handler_;
};

}  // namespace deep::net
