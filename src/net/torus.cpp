#include "net/torus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "net/pool.hpp"

namespace deep::net {

TorusFabric::TorusFabric(sim::Engine& engine, std::string name,
                         TorusParams params)
    : Fabric(engine, std::move(name)), params_(params) {
  for (int d = 0; d < 3; ++d)
    DEEP_EXPECT(params_.dims[d] >= 1, "TorusFabric: dims must be >= 1");
  DEEP_EXPECT(params_.bandwidth_bytes_per_sec > 0,
              "TorusFabric: bandwidth must be positive");
  DEEP_EXPECT(params_.packet_bytes > 0, "TorusFabric: packet size must be > 0");
  DEEP_EXPECT(params_.packet_error_rate >= 0.0 && params_.packet_error_rate < 1.0,
              "TorusFabric: packet error rate outside [0,1)");
  capacity_ = params_.dims[0] * params_.dims[1] * params_.dims[2];
  coord_at_.resize(capacity_);
  for (int lin = 0; lin < capacity_; ++lin) {
    coord_at_[lin].x = lin % params_.dims[0];
    coord_at_[lin].y = (lin / params_.dims[0]) % params_.dims[1];
    coord_at_[lin].z = lin / (params_.dims[0] * params_.dims[1]);
  }
  node_at_.assign(capacity_, hw::kInvalidNode);
  // Default TimePoint{} is the epoch: max(now, epoch) == now, so an untouched
  // slot behaves exactly like an absent entry in the old hash map.
  link_free_.assign(static_cast<std::size_t>(capacity_) * kChannelsPerRouter,
                    sim::TimePoint{});
  // Lane 0 (serial runs) reproduces the historical single-RNG stream exactly;
  // other lanes derive theirs from the seed and the lane index, so error
  // sampling is deterministic per partitioning regardless of worker count.
  lanes_.resize(util::kMaxLanes);
  for (std::size_t w = 0; w < lanes_.size(); ++w)
    lanes_[w].rng = util::Rng(
        w == 0 ? params_.seed
               : params_.seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(w)));
  if (auto* metrics = engine.metrics()) {
    m_hops_ = metrics->counter("net." + this->name() + ".hops");
    m_retransmissions_ =
        metrics->counter("net." + this->name() + ".retransmissions");
    m_link_busy_ps_ = metrics->counter("net." + this->name() + ".link_busy_ps");
    m_head_wait_ns_ =
        metrics->histogram("net." + this->name() + ".head_wait_ns");
  }
}

int TorusFabric::linear(TorusCoord c) const {
  return (c.z * params_.dims[1] + c.y) * params_.dims[0] + c.x;
}

Nic& TorusFabric::attach(hw::NodeId node) {
  DEEP_EXPECT(next_linear_ < capacity_, "TorusFabric::attach: torus is full");
  return attach_at(node, coord_at_[next_linear_++]);
}

Nic& TorusFabric::attach_at(hw::NodeId node, TorusCoord coord) {
  DEEP_EXPECT(coord.x >= 0 && coord.x < params_.dims[0] && coord.y >= 0 &&
                  coord.y < params_.dims[1] && coord.z >= 0 &&
                  coord.z < params_.dims[2],
              "TorusFabric::attach_at: coordinate outside torus");
  const int lin = linear(coord);
  DEEP_EXPECT(node_at_[lin] == hw::kInvalidNode,
              "TorusFabric::attach_at: coordinate already occupied");
  Nic& nic = Fabric::attach(node);
  node_at_[lin] = node;
  const auto slot = static_cast<std::size_t>(node);
  if (linear_of_.size() <= slot) linear_of_.resize(slot + 1, -1);
  linear_of_[slot] = lin;
  partition_dirty_.store(true, std::memory_order_release);
  return nic;
}

int TorusFabric::linear_of(hw::NodeId node) const {
  DEEP_EXPECT(node >= 0 && static_cast<std::size_t>(node) < linear_of_.size() &&
                  linear_of_[static_cast<std::size_t>(node)] >= 0,
              "TorusFabric: node not attached");
  return linear_of_[static_cast<std::size_t>(node)];
}

TorusCoord TorusFabric::coord_of(hw::NodeId node) const {
  return coord_at_[linear_of(node)];
}

int TorusFabric::displacement(int from, int to, int dim) const {
  const int n = params_.dims[dim];
  int d = (to - from) % n;
  if (d < 0) d += n;          // forward distance in [0, n)
  if (d * 2 > n) d -= n;      // wrap backwards if shorter
  // Ties (d*2 == n) route in the positive direction.
  return d;
}

int TorusFabric::hops(TorusCoord a, TorusCoord b) const {
  int total = 0;
  total += std::abs(displacement(a.x, b.x, 0));
  total += std::abs(displacement(a.y, b.y, 1));
  total += std::abs(displacement(a.z, b.z, 2));
  return total;
}

int TorusFabric::hops(hw::NodeId src, hw::NodeId dst) const {
  return hops(coord_of(src), coord_of(dst));
}

const TorusFabric::RouteEntry& TorusFabric::route_entry(int src_lin,
                                                        int dst_lin) const {
  LaneState& lane = lane_state();
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(src_lin))
                             << 32) |
                            static_cast<std::uint32_t>(dst_lin);
  auto [it, inserted] = lane.route_memo.try_emplace(key);
  if (!inserted) return it->second;

  // Cold path: build the dimension-ordered route once, append its packed
  // link indices to the lane's arena.  The walk is the exact algorithm the
  // per-message route() used before memoisation, so booked links (and
  // therefore traces) are bit-identical.
  RouteEntry& entry = it->second;
  entry.first = static_cast<std::uint32_t>(lane.route_links.size());
  TorusCoord cur = coord_at_[src_lin];
  const TorusCoord b = coord_at_[dst_lin];
  const auto walk = [&](int dim) {
    int* cur_axis = dim == 0 ? &cur.x : dim == 1 ? &cur.y : &cur.z;
    const int target = dim == 0 ? b.x : dim == 1 ? b.y : b.z;
    int d = displacement(*cur_axis, target, dim);
    const bool positive = d > 0;
    const int n = params_.dims[dim];
    while (d != 0) {
      lane.route_links.push_back(dim_link(linear(cur), dim, positive));
      *cur_axis = ((*cur_axis + (positive ? 1 : -1)) % n + n) % n;
      d += positive ? -1 : 1;
    }
  };
  walk(0);
  walk(1);
  walk(2);
  entry.count =
      static_cast<std::uint32_t>(lane.route_links.size()) - entry.first;
  return entry;
}

std::vector<int> TorusFabric::route_linears(hw::NodeId src,
                                            hw::NodeId dst) const {
  const int src_lin = linear_of(src);
  const int dst_lin = linear_of(dst);
  const RouteEntry& entry = route_entry(src_lin, dst_lin);
  const LaneState& lane = lane_state();
  std::vector<int> linears;
  linears.reserve(entry.count + 1);
  linears.push_back(src_lin);
  // Each arena entry is packed from the router the hop *leaves*; the route's
  // final router is the destination itself.
  for (std::uint32_t i = entry.first + 1; i < entry.first + entry.count; ++i)
    linears.push_back(
        static_cast<int>(lane.route_links[i] / kChannelsPerRouter));
  if (entry.count > 0) linears.push_back(dst_lin);
  return linears;
}

bool TorusFabric::route_up(hw::NodeId src, hw::NodeId dst) const {
  const int src_lin = linear_of(src);
  const int dst_lin = linear_of(dst);
  const RouteEntry& entry = route_entry(src_lin, dst_lin);
  const LaneState& lane = lane_state();
  // The route is memoised; the link-state consultation is live, per hop.
  for (std::uint32_t i = entry.first; i < entry.first + entry.count; ++i) {
    const int from_lin =
        static_cast<int>(lane.route_links[i] / kChannelsPerRouter);
    const int to_lin =
        i + 1 < entry.first + entry.count
            ? static_cast<int>(lane.route_links[i + 1] / kChannelsPerRouter)
            : dst_lin;
    const hw::NodeId from = node_at_[from_lin];
    const hw::NodeId to = node_at_[to_lin];
    if (from != hw::kInvalidNode && to != hw::kInvalidNode && !link_up(from, to))
      return false;
  }
  return true;
}

std::int64_t TorusFabric::retransmissions() const {
  std::int64_t total = 0;
  for (const LaneState& lane : lanes_) total += lane.retransmissions;
  return total;
}

std::int64_t TorusFabric::affected_messages() const {
  std::int64_t total = 0;
  for (const LaneState& lane : lanes_) total += lane.affected_messages;
  return total;
}

std::vector<std::pair<hw::NodeId, hw::NodeId>> TorusFabric::topology_edges()
    const {
  std::vector<int> attached;
  attached.reserve(static_cast<std::size_t>(capacity_));
  for (int lin = 0; lin < capacity_; ++lin)
    if (node_at_[lin] != hw::kInvalidNode) attached.push_back(lin);
  std::vector<std::pair<hw::NodeId, hw::NodeId>> edges;
  for (std::size_t i = 0; i < attached.size(); ++i)
    for (std::size_t j = i + 1; j < attached.size(); ++j)
      if (hops(coord_at_[attached[i]], coord_at_[attached[j]]) == 1)
        edges.emplace_back(node_at_[attached[i]], node_at_[attached[j]]);
  return edges;
}

void TorusFabric::refresh_partitions() const {
  // Attached coordinates take their node's partition.
  coord_part_.assign(capacity_, 0);
  std::vector<int> attached;
  attached.reserve(static_cast<std::size_t>(capacity_));
  for (int lin = 0; lin < capacity_; ++lin)
    if (node_at_[lin] != hw::kInvalidNode) {
      coord_part_[lin] = partition_of(node_at_[lin]);
      attached.push_back(lin);
    }
  // Unattached routers adopt the nearest attached coordinate's partition
  // (ties break to the lowest linear index — attached is in linear order),
  // so every directed link has exactly one owner and endpoint-segmented
  // booking covers the whole route table.
  for (int lin = 0; lin < capacity_; ++lin) {
    if (node_at_[lin] != hw::kInvalidNode) continue;
    int best_h = std::numeric_limits<int>::max();
    int best_lin = -1;
    for (int alin : attached) {
      const int h = hops(coord_at_[lin], coord_at_[alin]);
      if (h < best_h) {
        best_h = h;
        best_lin = alin;
      }
    }
    if (best_lin >= 0) coord_part_[lin] = coord_part_[best_lin];
  }
  // Pair distance: minimum hop count between the two partitions' coordinate
  // regions.  Using regions (not just attached nodes) keeps the bound
  // conservative: fill coordinates only enlarge a region, never shrink the
  // distance below what an actual route can cover per hop.
  const std::uint32_t nparts = engine_->partitions();
  pair_hops_.assign(static_cast<std::size_t>(nparts) * nparts, -1);
  for (int a = 0; a < capacity_; ++a)
    for (int b = 0; b < capacity_; ++b) {
      const std::uint32_t pa = coord_part_[a];
      const std::uint32_t pb = coord_part_[b];
      if (pa == pb || pa >= nparts || pb >= nparts) continue;
      const int h = hops(coord_at_[a], coord_at_[b]);
      std::int64_t& slot = pair_hops_[static_cast<std::size_t>(pa) * nparts + pb];
      if (slot < 0 || h < slot) slot = h;
    }
  partition_dirty_.store(false, std::memory_order_release);
}

void TorusFabric::ensure_partitions() const {
  if (!partition_dirty_.load(std::memory_order_acquire)) return;
  // Normally refreshed on the main thread (install_pair_lookahead queries
  // lookahead() before the run); the mutex covers a stray first query from
  // inside a window.
  std::lock_guard<std::mutex> lock(partition_mu_);
  if (partition_dirty_.load(std::memory_order_relaxed)) refresh_partitions();
}

std::uint32_t TorusFabric::coord_partition(TorusCoord c) const {
  DEEP_EXPECT(c.x >= 0 && c.x < params_.dims[0] && c.y >= 0 &&
                  c.y < params_.dims[1] && c.z >= 0 && c.z < params_.dims[2],
              "TorusFabric::coord_partition: coordinate outside torus");
  if (!partitioned()) return 0;
  ensure_partitions();
  return coord_part_[linear(c)];
}

sim::Duration TorusFabric::lookahead(std::uint32_t src_part,
                                     std::uint32_t dst_part) const {
  if (!partitioned()) return Fabric::lookahead(src_part, dst_part);
  if (src_part == dst_part) return sim::kUnconstrainedLookahead;
  ensure_partitions();
  const std::uint32_t nparts = engine_->partitions();
  if (src_part >= nparts || dst_part >= nparts)
    return sim::kUnconstrainedLookahead;
  const std::int64_t d =
      pair_hops_[static_cast<std::size_t>(src_part) * nparts + dst_part];
  if (d < 0) return sim::kUnconstrainedLookahead;
  // Cheapest cross-partition delivery: engine setup, the injection hop, and
  // one hop per link separating the regions.  Every send/continuation pays
  // at least this much (see send() and deliver_cross()).
  return engine_min() + params_.hop_latency * static_cast<std::int64_t>(d + 1);
}

sim::Duration TorusFabric::retransmission_penalty(std::int64_t bytes,
                                                  int nlinks) {
  if (params_.packet_error_rate <= 0.0 || bytes <= 0 || nlinks == 0) return {};
  LaneState& lane = lane_state();
  const std::int64_t packets =
      (bytes + params_.packet_bytes - 1) / params_.packet_bytes;
  // Each packet traverses each link once; every traversal may require a
  // retransmission (geometric retries are folded to one expected resend —
  // PER is small in all experiments).
  const std::int64_t trials = packets * nlinks;
  std::int64_t resends = 0;
  if (trials <= 256) {
    for (std::int64_t i = 0; i < trials; ++i)
      resends += lane.rng.chance(params_.packet_error_rate) ? 1 : 0;
  } else {
    // Gaussian approximation of the binomial for large transfers, clamped.
    const double mean = static_cast<double>(trials) * params_.packet_error_rate;
    const double sd = std::sqrt(mean * (1.0 - params_.packet_error_rate));
    const double u1 = std::max(lane.rng.uniform(), 1e-12);
    const double u2 = lane.rng.uniform();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    resends = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::llround(mean + sd * gauss)));
  }
  if (resends == 0) return {};
  lane.retransmissions += resends;
  ++lane.affected_messages;
  m_retransmissions_.add(resends);
  const std::int64_t min_packet = std::min(params_.packet_bytes, bytes);
  return (params_.hop_latency + serialisation(min_packet)) *
         static_cast<std::int64_t>(resends);
}

void TorusFabric::send(Message msg, Service svc) {
  DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
              "TorusFabric::send: endpoint not attached");
  DEEP_EXPECT(msg.size_bytes >= 0, "TorusFabric::send: negative size");
  if (faulted(msg)) return;
  const int src_lin = linear_of(msg.src);
  const int dst_lin = linear_of(msg.dst);
  const RouteEntry& route = route_entry(src_lin, dst_lin);
  LaneState& lane = lane_state();

  const sim::Duration engine_overhead =
      svc == Service::Bulk ? params_.rma_setup : params_.velo_injection;
  const sim::Duration wire = serialisation(msg.size_bytes);

  if (svc == Service::Control) {
    // Priority virtual channel (VELO-class): pays engine + per-hop latency
    // but does not queue on, or reserve, the data links.  Purely analytic,
    // so it is partitioning-independent; the base deliver_at() handles the
    // cross-partition hop when the destination lives elsewhere.
    const int nhops = static_cast<int>(route.count) + 2;  // inject+route+eject
    m_hops_.add(route.count);
    deliver_at(engine_->now() + engine_overhead + params_.hop_latency * nhops +
                   wire + params_.ejection,
               std::move(msg));
    return;
  }

  // Head traversal: injection link, memoised route links, ejection link.
  // All link state is a flat-array read/write; nothing allocates.
  const std::int64_t inject = pack(src_lin, kChannelInject);
  const std::int64_t eject = pack(dst_lin, kChannelEject);

  // The engine (VELO or RMA) is busy for the setup overhead of each
  // message, which is what bounds the NIC's message rate.
  const std::int64_t engine_key =
      pack(src_lin, svc == Service::Bulk ? kChannelRma : kChannelVelo);

  if (!partitioned()) {
    // Serial path: the exact historical algorithm (bit-identical traces).
    sim::TimePoint head = engine_->now();
    head = std::max(head, link_free_[engine_key]);
    head = head + engine_overhead;
    link_free_[engine_key] = head;
    const auto traverse = [&](std::int64_t link) {
      head = std::max(head, link_free_[link]);
      head = head + params_.hop_latency;
    };
    traverse(inject);
    for (std::uint32_t i = route.first; i < route.first + route.count; ++i)
      traverse(lane.route_links[i]);
    traverse(eject);

    // Bookkeeping for the observability layer: dimension hops, head latency
    // (queueing included), and wire occupancy summed over every held link —
    // the report divides the latter by elapsed time for utilisation.
    m_hops_.add(route.count);
    m_head_wait_ns_.record((head - engine_->now()).ps / 1000);
    m_link_busy_ps_.add(wire.ps * (static_cast<std::int64_t>(route.count) + 2));

    sim::TimePoint tail = head + wire;
    tail = tail + retransmission_penalty(msg.size_bytes,
                                         static_cast<int>(route.count) + 2);
    link_free_[inject] = tail;
    for (std::uint32_t i = route.first; i < route.first + route.count; ++i)
      link_free_[lane.route_links[i]] = tail;
    link_free_[eject] = tail;

    deliver_at(tail + params_.ejection, std::move(msg));
    return;
  }

  // Partitioned: endpoint-segmented contention model.  A link is owned by
  // the partition of its router's coordinate and only its owner ever touches
  // its booking.  The sender books the engine channel, the injection link
  // and the contiguous source-owned route prefix; the middle of the route is
  // analytic (per-hop latency, no booking — foreign contention is
  // approximated away, see docs/parallel_engine.md); the destination books
  // the contiguous destination-owned suffix and the ejection link from a
  // continuation on its own partition.  Sends must execute on the partition
  // owning the source coordinate (every caller injects from its own node) —
  // Engine::schedule_on enforces the resulting safety condition.
  ensure_partitions();
  const std::uint32_t src_part = coord_part_[src_lin];
  const std::uint32_t dst_part = coord_part_[dst_lin];

  std::uint32_t prefix_end = 0;
  while (prefix_end < route.count &&
         coord_part_[lane.route_links[route.first + prefix_end] /
                     kChannelsPerRouter] == src_part)
    ++prefix_end;
  std::uint32_t suffix_start = route.count;
  while (suffix_start > prefix_end &&
         coord_part_[lane.route_links[route.first + suffix_start - 1] /
                     kChannelsPerRouter] == dst_part)
    --suffix_start;

  sim::TimePoint head = engine_->now();
  head = std::max(head, link_free_[engine_key]);
  head = head + engine_overhead;
  link_free_[engine_key] = head;
  const auto traverse = [&](std::int64_t link) {
    head = std::max(head, link_free_[link]);
    head = head + params_.hop_latency;
  };
  traverse(inject);
  for (std::uint32_t i = 0; i < prefix_end; ++i)
    traverse(lane.route_links[route.first + i]);
  const sim::TimePoint prefix_head = head;
  head = head + params_.hop_latency *
                    static_cast<std::int64_t>(suffix_start - prefix_end);

  m_hops_.add(route.count);

  if (src_part == dst_part) {
    // Same partition: finish inline — suffix traversal, ejection, booking.
    for (std::uint32_t i = suffix_start; i < route.count; ++i)
      traverse(lane.route_links[route.first + i]);
    traverse(eject);
    m_head_wait_ns_.record((head - engine_->now()).ps / 1000);
    const std::int64_t booked =
        static_cast<std::int64_t>(prefix_end) + (route.count - suffix_start) + 2;
    m_link_busy_ps_.add(wire.ps * booked);
    sim::TimePoint tail = head + wire;
    tail = tail + retransmission_penalty(msg.size_bytes,
                                         static_cast<int>(route.count) + 2);
    link_free_[inject] = tail;
    for (std::uint32_t i = 0; i < prefix_end; ++i)
      link_free_[lane.route_links[route.first + i]] = tail;
    for (std::uint32_t i = suffix_start; i < route.count; ++i)
      link_free_[lane.route_links[route.first + i]] = tail;
    link_free_[eject] = tail;
    deliver_at(tail + params_.ejection, std::move(msg));
    return;
  }

  // Cross partition: hold the source-side links until the tail clears them,
  // then continue on the destination partition at the analytic head arrival.
  // `head` here is >= now + engine_min + hop_latency * (1 + suffix_start)
  // and suffix_start >= the region distance D(src_part, dst_part), so the
  // continuation always lands at or beyond the destination's safe window
  // (the per-pair lookahead bound).
  const sim::TimePoint prefix_tail = prefix_head + wire;
  link_free_[inject] = prefix_tail;
  for (std::uint32_t i = 0; i < prefix_end; ++i)
    link_free_[lane.route_links[route.first + i]] = prefix_tail;
  m_head_wait_ns_.record((head - engine_->now()).ps / 1000);
  m_link_busy_ps_.add(wire.ps * (static_cast<std::int64_t>(prefix_end) + 1));
  engine_->schedule_on(
      dst_part, head,
      [this, src_lin, dst_lin, suffix_start,
       m = PooledMessage(std::move(msg))]() mutable {
        deliver_cross(m.take(), src_lin, dst_lin, suffix_start);
      });
}

void TorusFabric::deliver_cross(Message msg, int src_lin, int dst_lin,
                                std::uint32_t suffix_off) {
  // Running as an event on the destination partition: the route lookup and
  // the retransmission sampling use that partition's lane state, and every
  // link booked below is owned by this partition.
  const RouteEntry& route = route_entry(src_lin, dst_lin);
  LaneState& lane = lane_state();
  const sim::Duration wire = serialisation(msg.size_bytes);
  const std::int64_t eject = pack(dst_lin, kChannelEject);

  sim::TimePoint head = engine_->now();
  const auto traverse = [&](std::int64_t link) {
    head = std::max(head, link_free_[link]);
    head = head + params_.hop_latency;
  };
  for (std::uint32_t i = suffix_off; i < route.count; ++i)
    traverse(lane.route_links[route.first + i]);
  traverse(eject);

  const std::int64_t booked =
      static_cast<std::int64_t>(route.count - suffix_off) + 1;
  m_link_busy_ps_.add(wire.ps * booked);

  sim::TimePoint tail = head + wire;
  tail = tail + retransmission_penalty(msg.size_bytes,
                                       static_cast<int>(booked));
  for (std::uint32_t i = suffix_off; i < route.count; ++i)
    link_free_[lane.route_links[route.first + i]] = tail;
  link_free_[eject] = tail;

  deliver_at(tail + params_.ejection, std::move(msg));
}

}  // namespace deep::net
