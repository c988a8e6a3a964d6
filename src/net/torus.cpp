#include "net/torus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace deep::net {

TorusFabric::TorusFabric(sim::Engine& engine, std::string name,
                         TorusParams params)
    : WormholeFabric(engine, std::move(name)), params_(params) {
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
  // Every router's channels, ids pack(lin, channel); idle at the epoch.
  add_links(static_cast<std::size_t>(capacity_) * kChannelsPerRouter);
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

template <typename OnHop>
void TorusFabric::walk_route(int src_lin, int dst_lin, OnHop&& hop) const {
  const TorusCoord a = coord_at_[src_lin];
  const TorusCoord b = coord_at_[dst_lin];
  const int from[3] = {a.x, a.y, a.z};
  const int to[3] = {b.x, b.y, b.z};
  int lin = src_lin;
  int stride = 1;  // linear distance of one step along `dim`
  for (int dim = 0; dim < 3; ++dim) {
    const int n = params_.dims[dim];
    const int d = displacement(from[dim], to[dim], dim);
    const int step = d > 0 ? 1 : -1;
    const int channel = dim * 2 + (d > 0 ? 0 : 1);
    int c = from[dim];
    for (int left = d > 0 ? d : -d; left > 0; --left) {
      int next = lin + step * stride;
      c += step;
      if (c == n) {
        c = 0;
        next -= n * stride;
      } else if (c < 0) {
        c = n - 1;
        next += n * stride;
      }
      hop(lin, next, channel);
      lin = next;
    }
    stride *= n;
  }
}

std::vector<int> TorusFabric::route_linears(hw::NodeId src,
                                            hw::NodeId dst) const {
  const int src_lin = linear_of(src);
  std::vector<int> linears{src_lin};
  walk_route(src_lin, linear_of(dst),
             [&](int, int to, int) { linears.push_back(to); });
  return linears;
}

std::vector<std::int64_t> TorusFabric::route_links(hw::NodeId src,
                                                   hw::NodeId dst) const {
  Message msg;
  msg.src = src;
  msg.dst = dst;
  std::vector<std::int64_t> links;
  for (const Hop& hop : route(msg)) links.push_back(hop.link);
  return links;
}

bool TorusFabric::route_up(hw::NodeId src, hw::NodeId dst) const {
  // The link-state consultation is live, per hop.
  bool up = true;
  walk_route(linear_of(src), linear_of(dst),
             [&](int from_lin, int to_lin, int) {
               const hw::NodeId from = node_at_[from_lin];
               const hw::NodeId to = node_at_[to_lin];
               if (from != hw::kInvalidNode && to != hw::kInvalidNode &&
                   !link_up(from, to))
                 up = false;
             });
  return up;
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
  unit_owner_.assign(capacity_, 0);
  std::vector<int> attached;
  attached.reserve(static_cast<std::size_t>(capacity_));
  for (int lin = 0; lin < capacity_; ++lin)
    if (node_at_[lin] != hw::kInvalidNode) {
      unit_owner_[lin] = partition_of(node_at_[lin]);
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
    if (best_lin >= 0) unit_owner_[lin] = unit_owner_[best_lin];
  }
  // Pair distance: minimum hop count between the two partitions' coordinate
  // regions.  Using regions (not just attached nodes) keeps the bound
  // conservative: fill coordinates only enlarge a region, never shrink the
  // distance below what an actual route can cover per hop.  The cheapest
  // cross-partition delivery is then engine setup, the injection hop and
  // one hop per link separating the regions (lookahead()).
  const std::uint32_t nparts = engine_->partitions();
  pair_hops_.assign(static_cast<std::size_t>(nparts) * nparts, -1);
  for (int a = 0; a < capacity_; ++a)
    for (int b = 0; b < capacity_; ++b) {
      const std::uint32_t pa = unit_owner_[a];
      const std::uint32_t pb = unit_owner_[b];
      if (pa == pb || pa >= nparts || pb >= nparts) continue;
      const int h = hops(coord_at_[a], coord_at_[b]);
      std::int64_t& slot = pair_hops_[static_cast<std::size_t>(pa) * nparts + pb];
      if (slot < 0 || h < slot) slot = h;
    }
}

std::uint32_t TorusFabric::coord_partition(TorusCoord c) const {
  DEEP_EXPECT(c.x >= 0 && c.x < params_.dims[0] && c.y >= 0 &&
                  c.y < params_.dims[1] && c.z >= 0 && c.z < params_.dims[2],
              "TorusFabric::coord_partition: coordinate outside torus");
  return unit_owner(static_cast<std::size_t>(linear(c)));
}

sim::Duration TorusFabric::tail_penalty(std::int64_t bytes, int nlinks) {
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

TorusFabric::Route TorusFabric::route(const Message& msg) const {
  const int src_lin = linear_of(msg.src);
  const int dst_lin = linear_of(msg.dst);
  const auto n = static_cast<std::size_t>(
      hops(coord_at_[src_lin], coord_at_[dst_lin]) + 2);
  Hop* hop = scratch_hops(n);
  const bool owned = partitioned();
  const auto at = [&](int lin, int channel) -> Hop {
    return {pack(lin, channel),
            owned ? unit_owner(static_cast<std::size_t>(lin)) : 0,
            params_.hop_latency};
  };
  hop[0] = at(src_lin, kChannelInject);
  std::size_t i = 1;
  walk_route(src_lin, dst_lin, [&](int from_lin, int, int channel) {
    hop[i++] = at(from_lin, channel);
  });
  hop[n - 1] = at(dst_lin, kChannelEject);
  return {hop, n};
}

void TorusFabric::send(Message msg, Service svc) {
  DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
              "TorusFabric::send: endpoint not attached");
  DEEP_EXPECT(msg.size_bytes >= 0, "TorusFabric::send: negative size");
  if (faulted(msg)) return;
  const Route path = route(msg);
  m_hops_.add(static_cast<std::int64_t>(path.size()) - 2);

  const sim::Duration engine_overhead =
      svc == Service::Bulk ? params_.rma_setup : params_.velo_injection;
  const sim::Duration wire = serialisation(msg.size_bytes);
  sim::TimePoint head = engine_->now();
  if (svc != Service::Control) {
    // The engine (VELO or RMA) is busy for the setup overhead of each
    // message, which is what bounds the NIC's message rate: a pseudo-link
    // booked before the route and held only until the head leaves it.
    sim::TimePoint& engine = link_free(pack(
        linear_of(msg.src), svc == Service::Bulk ? kChannelRma : kChannelVelo));
    head = std::max(head, engine);
    engine = head + engine_overhead;
  }
  // Control (VELO-class priority channel) pays the engine and per-hop
  // latency but neither queues on nor holds the engine or the data links.
  transmit(std::move(msg), svc, path, head + engine_overhead, wire,
           params_.ejection);
}

}  // namespace deep::net
