#include "net/dragonfly.hpp"

#include <algorithm>

namespace deep::net {

DragonflyFabric::DragonflyFabric(sim::Engine& engine, std::string name,
                                 DragonflyParams params)
    : WormholeFabric(engine, std::move(name)), params_(params) {
  DEEP_EXPECT(params_.groups >= 2, "DragonflyFabric: need at least 2 groups");
  DEEP_EXPECT(params_.routers_per_group >= 1,
              "DragonflyFabric: routers_per_group must be >= 1");
  DEEP_EXPECT(params_.nodes_per_router >= 1,
              "DragonflyFabric: nodes_per_router must be >= 1");
  DEEP_EXPECT(params_.local_bandwidth_bytes_per_sec > 0 &&
                  params_.global_bandwidth_bytes_per_sec > 0,
              "DragonflyFabric: bandwidth must be positive");
  total_routers_ = params_.groups * params_.routers_per_group;
  capacity_ = total_routers_ * params_.nodes_per_router;
  router_rep_.assign(static_cast<std::size_t>(total_routers_),
                     hw::kInvalidNode);
  // Every link the fabric can ever use: local, global, then node slots.
  add_links(static_cast<std::size_t>(global_link(params_.groups, 0)) +
            2 * static_cast<std::size_t>(capacity_));
  obs::Registry& metrics = engine_->metrics();
  m_global_hops_ = metrics.counter("net." + name_ + ".global_hops");
  m_valiant_ = metrics.counter("net." + name_ + ".valiant_detours");
}

Nic& DragonflyFabric::attach(hw::NodeId node) {
  DEEP_EXPECT(static_cast<int>(attached_count_) < capacity_,
              "DragonflyFabric: fabric is full (groups * routers_per_group * "
              "nodes_per_router nodes)");
  Nic& nic = Fabric::attach(node);
  const int k = static_cast<int>(attached_count_) - 1;
  const auto slot = static_cast<std::size_t>(node);
  if (index_of_.size() <= slot) index_of_.resize(slot + 1, -1);
  index_of_[slot] = k;
  const int router = k / params_.nodes_per_router;
  auto& rep = router_rep_[static_cast<std::size_t>(router)];
  if (rep == hw::kInvalidNode || node < rep) rep = node;
  return nic;
}

int DragonflyFabric::index_of(hw::NodeId node) const {
  DEEP_EXPECT(node >= 0 && static_cast<std::size_t>(node) < index_of_.size() &&
                  index_of_[static_cast<std::size_t>(node)] >= 0,
              "DragonflyFabric: node not attached");
  return index_of_[static_cast<std::size_t>(node)];
}

int DragonflyFabric::router_of(hw::NodeId node) const {
  return index_of(node) / params_.nodes_per_router;
}

hw::NodeId DragonflyFabric::representative(int router) const {
  DEEP_EXPECT(router >= 0 && router < total_routers_,
              "DragonflyFabric: router index out of range");
  const hw::NodeId rep = router_rep_[static_cast<std::size_t>(router)];
  DEEP_EXPECT(rep != hw::kInvalidNode,
              "DragonflyFabric: router has no attached nodes");
  return rep;
}

int DragonflyFabric::global_host(int group, int other) const {
  DEEP_EXPECT(group != other && group >= 0 && group < params_.groups &&
                  other >= 0 && other < params_.groups,
              "DragonflyFabric: bad group pair");
  // Canonical consecutive assignment: group g's global links (one per other
  // group, in group order) round-robin over its routers.
  const int k = other < group ? other : other - 1;
  return k % params_.routers_per_group;
}

// ---------------------------------------------------------------------------
// Path construction and selection
// ---------------------------------------------------------------------------

DragonflyFabric::Path DragonflyFabric::minimal_path(int src_router,
                                                    int dst_router) const {
  Path path;
  if (src_router == dst_router) return path;
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  if (gs == gd) {
    path.add(src_router, dst_router, false);
    return path;
  }
  const int hs = gs * a + global_host(gs, gd);
  const int hd = gd * a + global_host(gd, gs);
  if (src_router != hs) path.add(src_router, hs, false);
  path.add(hs, hd, true);
  if (hd != dst_router) path.add(hd, dst_router, false);
  return path;
}

DragonflyFabric::Path DragonflyFabric::valiant_path(int src_router,
                                                    int dst_router,
                                                    int via) const {
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  DEEP_ASSERT(via != gs && via != gd && gs != gd,
              "DragonflyFabric: bad Valiant intermediate group");
  Path path;
  path.valiant = true;
  // Leg 1: source group to the intermediate group's entry router.
  const int hs = gs * a + global_host(gs, via);
  const int entry = via * a + global_host(via, gs);
  if (src_router != hs) path.add(src_router, hs, false);
  path.add(hs, entry, true);
  // Leg 2: intermediate group to the destination.
  const int exit = via * a + global_host(via, gd);
  const int hd = gd * a + global_host(gd, via);
  if (entry != exit) path.add(entry, exit, false);
  path.add(exit, hd, true);
  if (hd != dst_router) path.add(hd, dst_router, false);
  return path;
}

bool DragonflyFabric::path_alive(const Path& path) const {
  for (int i = 0; i < path.nhops; ++i) {
    const Path::Hop& hop = path.hops[static_cast<std::size_t>(i)];
    if (!link_up(representative(hop.from), representative(hop.to)))
      return false;
  }
  return true;
}

bool DragonflyFabric::alive_path(int src_router, int dst_router,
                                 Path& out) const {
  Path minimal = minimal_path(src_router, dst_router);
  if (path_alive(minimal)) {
    out = minimal;
    return true;
  }
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  if (gs != gd) {
    // Valiant candidates in the deterministic rotation order.
    for (int i = 0; i < params_.groups; ++i) {
      const int via = (gs + gd + i) % params_.groups;
      if (via == gs || via == gd) continue;
      Path candidate = valiant_path(src_router, dst_router, via);
      if (path_alive(candidate)) {
        out = candidate;
        return true;
      }
    }
    return false;
  }
  // Same group: detour over a third router (local links are all-to-all).
  for (int i = 0; i < a; ++i) {
    const int via = gs * a + (src_router + dst_router + i) % a;
    if (via == src_router || via == dst_router) continue;
    Path candidate;
    candidate.valiant = true;
    candidate.add(src_router, via, false);
    candidate.add(via, dst_router, false);
    if (path_alive(candidate)) {
      out = candidate;
      return true;
    }
  }
  return false;
}

bool DragonflyFabric::route_up(hw::NodeId src, hw::NodeId dst) const {
  Path unused;
  return alive_path(router_of(src), router_of(dst), unused);
}

sim::Duration DragonflyFabric::queue_estimate(LinkId link) const {
  const sim::TimePoint busy = link_free(link);
  const sim::TimePoint now = engine_->now();
  return busy > now ? busy - now : sim::Duration{0};
}

DragonflyFabric::Path DragonflyFabric::choose_path(int src_router,
                                                   int dst_router) const {
  const int a = params_.routers_per_group;
  const int gs = src_router / a, gd = dst_router / a;
  Path path = minimal_path(src_router, dst_router);
  if (gs != gd && !partitioned() &&
      params_.routing == DragonflyRouting::Adaptive) {
    // UGAL: estimated queueing on the minimal global link vs the best
    // detour's two global links plus the extra cable.  Every input is
    // simulated link state, so the choice replays bit-identically.
    const sim::Duration direct = queue_estimate(global_link(gs, gd));
    sim::Duration best_cost = sim::kUnconstrainedLookahead;
    int best_via = -1;
    for (int via = 0; via < params_.groups; ++via) {
      if (via == gs || via == gd) continue;
      const sim::Duration cost = queue_estimate(global_link(gs, via)) +
                                 queue_estimate(global_link(via, gd)) +
                                 params_.global_latency;
      if (cost < best_cost) {
        best_cost = cost;
        best_via = via;
      }
    }
    if (best_via >= 0 && best_cost + params_.adaptive_bias < direct)
      path = valiant_path(src_router, dst_router, best_via);
  }
  // Fault fallback, in every routing mode: when the chosen path crosses a
  // dead link, take the canonical alive candidate instead.  faulted() has
  // already established one exists.
  if (links_down() > 0 && !path_alive(path)) {
    const bool found = alive_path(src_router, dst_router, path);
    DEEP_ASSERT(found, "DragonflyFabric: send passed faulted() with no path");
  }
  return path;
}

// ---------------------------------------------------------------------------
// Topology introspection and partition geometry
// ---------------------------------------------------------------------------

int DragonflyFabric::hops(hw::NodeId src, hw::NodeId dst) const {
  return minimal_path(router_of(src), router_of(dst)).routers();
}

std::vector<std::pair<hw::NodeId, hw::NodeId>> DragonflyFabric::topology_edges()
    const {
  std::vector<std::pair<hw::NodeId, int>> nodes;
  for (std::size_t n = 0; n < index_of_.size(); ++n)
    if (index_of_[n] >= 0)
      nodes.emplace_back(static_cast<hw::NodeId>(n),
                         index_of_[n] / params_.nodes_per_router);
  std::vector<std::pair<hw::NodeId, hw::NodeId>> edges;
  // Same-router pairs: the tightest locality.
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      if (nodes[i].second == nodes[j].second)
        edges.emplace_back(nodes[i].first, nodes[j].first);
  // Intra-group router chain + global-link host adjacency, over the
  // representative nodes, so the graph is connected and the global links
  // form the natural cut for auto_partition.
  const int a = params_.routers_per_group;
  for (int g = 0; g < params_.groups; ++g) {
    hw::NodeId prev = hw::kInvalidNode;
    for (int r = 0; r < a; ++r) {
      const hw::NodeId rep = router_rep_[static_cast<std::size_t>(g * a + r)];
      if (rep == hw::kInvalidNode) continue;
      if (prev != hw::kInvalidNode) edges.emplace_back(prev, rep);
      prev = rep;
    }
  }
  for (int g1 = 0; g1 < params_.groups; ++g1)
    for (int g2 = g1 + 1; g2 < params_.groups; ++g2) {
      const hw::NodeId rep1 =
          router_rep_[static_cast<std::size_t>(g1 * a + global_host(g1, g2))];
      const hw::NodeId rep2 =
          router_rep_[static_cast<std::size_t>(g2 * a + global_host(g2, g1))];
      if (rep1 != hw::kInvalidNode && rep2 != hw::kInvalidNode)
        edges.emplace_back(rep1, rep2);
    }
  return edges;
}

void DragonflyFabric::refresh_partitions() const {
  const std::uint32_t nparts = engine_->partitions();
  pair_hops_.assign(static_cast<std::size_t>(nparts) * nparts, -1);
  // Partitions present per router (small: total_routers_ entries).
  std::vector<std::vector<std::uint32_t>> router_parts(
      static_cast<std::size_t>(total_routers_));
  for (std::size_t n = 0; n < index_of_.size(); ++n) {
    if (index_of_[n] < 0) continue;
    const std::uint32_t p = partition_of(static_cast<hw::NodeId>(n));
    auto& list = router_parts[static_cast<std::size_t>(
        index_of_[n] / params_.nodes_per_router)];
    if (std::find(list.begin(), list.end(), p) == list.end()) list.push_back(p);
  }
  for (int r1 = 0; r1 < total_routers_; ++r1) {
    if (router_parts[static_cast<std::size_t>(r1)].empty()) continue;
    for (int r2 = 0; r2 < total_routers_; ++r2) {
      if (router_parts[static_cast<std::size_t>(r2)].empty()) continue;
      const std::int64_t d = minimal_path(r1, r2).routers();
      for (const std::uint32_t p : router_parts[static_cast<std::size_t>(r1)])
        for (const std::uint32_t q :
             router_parts[static_cast<std::size_t>(r2)]) {
          if (p >= nparts || q >= nparts) continue;
          std::int64_t& cell =
              pair_hops_[static_cast<std::size_t>(p) * nparts + q];
          if (cell < 0 || d < cell) cell = d;
        }
    }
  }
}

// ---------------------------------------------------------------------------
// Send
// ---------------------------------------------------------------------------

DragonflyFabric::Route DragonflyFabric::hops_of(const Message& msg,
                                                const Path& path) const {
  // Router and global links are booked only in unpartitioned runs; with
  // partitions they have no owner (analytic), as choose_path() then reads
  // no shared link state either.
  const std::uint32_t router_owner = partitioned() ? kNoOwner : 0;
  const std::size_t n = static_cast<std::size_t>(path.nhops) + 2;
  Hop* hop = scratch_hops(n);
  hop[0] = {node_tx(msg.src), partition_of(msg.src), {}};
  for (std::size_t i = 0; i + 2 < n; ++i)
    hop[i + 1] = {hop_link(path.hops[i]), router_owner, {}};
  hop[n - 1] = {node_rx(msg.dst), partition_of(msg.dst), {}};
  return {hop, n};
}

DragonflyFabric::Route DragonflyFabric::route(const Message& msg) const {
  return hops_of(msg, choose_path(router_of(msg.src), router_of(msg.dst)));
}

void DragonflyFabric::send(Message msg, Service svc) {
  DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
              "DragonflyFabric::send: endpoint not attached");
  DEEP_EXPECT(msg.size_bytes >= 0, "DragonflyFabric::send: negative size");
  if (faulted(msg)) return;
  const Path path = choose_path(router_of(msg.src), router_of(msg.dst));
  if (path.valiant) {
    m_valiant_.add(1);
  }
  m_global_hops_.add(path.globals);
  const sim::Duration wire = serialisation(msg.size_bytes, path.globals > 0);
  const sim::Duration latency = params_.adapter_latency +
                                params_.router_latency * path.routers() +
                                params_.global_latency * path.globals;
  const Route hops = hops_of(msg, path);
  transmit(std::move(msg), svc, hops, engine_->now() + latency, wire,
           params_.adapter_latency);
}

}  // namespace deep::net
