#pragma once
// DragonflyFabric: the modern counterfactual to both the torus booster and
// the fat-tree cluster — `groups` fully-connected groups of
// `routers_per_group` routers, every group pair joined by one bidirectional
// global (optical) link, `nodes_per_router` nodes per router.
//
// Routing offers the three classic dragonfly policies:
//   * Minimal  — the direct l-g-l path (at most one local hop to the global
//     link's host router, the global hop, one local hop to the destination
//     router);
//   * Valiant  — via a deterministic intermediate group (two global hops),
//     spreading adversarial traffic over the global channels;
//   * Adaptive — UGAL-style: per message, take the Valiant detour when the
//     minimal path's global link is busier than the detour's two global
//     links by more than `adaptive_bias`.  The decision keys ONLY on the
//     simulated link-busy table, never on host state or RNG, so replays are
//     bit-identical at any worker count.
//
// Faults compose like the torus: router-level links are named by the
// *representative node* (lowest attached id) of each endpoint router, so
// chaos FaultPlans kill global links with plain set_link_up(a, b) calls.
// When a route crosses a dead link, send() falls back — in every routing
// mode — to the first alive candidate path in a deterministic scan order
// (minimal, then Valiant per intermediate group, then a same-group router
// detour); a message only drops when no candidate survives.  This is the
// path-diversity story the torus cannot tell: a killed global link reroutes
// instead of dropping.
//
// Wormhole timing follows the fat-tree through the shared core
// (net/wormhole.hpp), path latency first: the head pays per-router latency
// (plus the global cable latency per global hop) up front and queues on
// busy links; every traversed link is reserved until the tail passes.
// Partitioned runs use endpoint-segmented booking: node links belong to
// their endpoint's partition, router/global links have no owner (analytic,
// latency-only), and adaptive selection deterministically degrades to
// minimal routing — other partitions' link state must not be read
// (docs/parallel_engine.md).

#include <array>
#include <cstdint>
#include <vector>

#include "net/wormhole.hpp"

namespace deep::net {

/// Path-selection policy (see file comment).
enum class DragonflyRouting {
  Minimal,
  Valiant,
  Adaptive,
};

struct DragonflyParams {
  int groups = 4;             // g: groups, all-to-all global links
  int routers_per_group = 4;  // a: routers per group, all-to-all local links
  int nodes_per_router = 2;   // p: terminal nodes per router
  sim::Duration adapter_latency = sim::from_nanos(400);  // NIC each end
  sim::Duration router_latency = sim::from_nanos(150);   // per router visited
  sim::Duration global_latency = sim::from_nanos(500);   // optical cable
  double local_bandwidth_bytes_per_sec = 6.0e9;
  double global_bandwidth_bytes_per_sec = 4.5e9;
  DragonflyRouting routing = DragonflyRouting::Minimal;
  /// UGAL hysteresis: the Valiant detour is taken only when it undercuts the
  /// minimal path's estimated queueing by more than this.
  sim::Duration adaptive_bias = sim::from_nanos(200);
};

class DragonflyFabric final : public WormholeFabric {
 public:
  DragonflyFabric(sim::Engine& engine, std::string name,
                  DragonflyParams params);

  const DragonflyParams& params() const { return params_; }

  Nic& attach(hw::NodeId node) override;
  void send(Message msg, Service svc) override;

  int router_of(hw::NodeId node) const;
  int group_of(hw::NodeId node) const { return router_of(node) / params_.routers_per_group; }
  /// Routers visited on the minimal path (1 same router .. 4 cross group).
  int hops(hw::NodeId src, hw::NodeId dst) const;
  /// True when the minimal path src->dst crosses a global link.
  bool crosses_global(hw::NodeId src, hw::NodeId dst) const {
    return group_of(src) != group_of(dst);
  }

  /// The node naming router `router`'s links for set_link_up (lowest
  /// attached id on that router).  Chaos plans kill the global link between
  /// groups via set_link_up(representative(h1), representative(h2), false).
  hw::NodeId representative(int router) const;
  /// Router index (within `group`) hosting the global link to `other`.
  int global_host(int group, int other) const;
  /// Valiant detours taken so far (all lanes) — fault fallbacks included.
  std::int64_t valiant_detours() const;

  /// Cheapest event a dragonfly send can place on another partition: one
  /// adapter plus a single router traversal (the same-router case).
  sim::Duration lookahead() const override {
    return params_.adapter_latency + params_.router_latency;
  }

  /// Router-distance pair lookahead: adapter plus the minimal-path router
  /// count between the two partitions' closest routers.  The minimal count
  /// lower-bounds every candidate path (Valiant only adds hops), so the
  /// bound holds whatever routing policy is active.
  sim::Duration lookahead(std::uint32_t src_part,
                          std::uint32_t dst_part) const override {
    return hop_lookahead(src_part, dst_part, params_.adapter_latency,
                         params_.router_latency);
  }

  /// Same-router pairs, an intra-group router chain and the global-link
  /// host adjacency — the locality graph net::auto_partition() grows
  /// blocks from (groups are the natural blocks; global links the cut).
  std::vector<std::pair<hw::NodeId, hw::NodeId>> topology_edges()
      const override;

  sim::Duration serialisation(std::int64_t bytes, bool global) const {
    return sim::from_seconds(static_cast<double>(bytes) /
                             (global ? params_.global_bandwidth_bytes_per_sec
                                     : params_.local_bandwidth_bytes_per_sec));
  }

 protected:
  /// True when any candidate path (minimal, Valiant, same-group detour)
  /// survives the live link-state table; send() then picks that same path.
  bool route_up(hw::NodeId src, hw::NodeId dst) const override;

  /// Node tx, the chosen path's router and global links, node rx.
  Route route(const Message& msg) const override;

  /// Rebuilds pair_hops_: the minimal router count between the two
  /// partitions' closest routers.
  void refresh_partitions() const override;

 private:
  /// One candidate route: the router-level hops between src's and dst's
  /// routers (node links are implicit).  Valiant worst case is five hops:
  /// local, global, local, global, local.
  struct Path {
    struct Hop {
      int from = 0;  // router
      int to = 0;    // router
      bool global = false;
    };
    std::array<Hop, 5> hops{};
    int nhops = 0;
    int globals = 0;
    bool valiant = false;
    int routers() const { return nhops + 1; }
    void add(int from, int to, bool global) {
      hops[static_cast<std::size_t>(nhops++)] = {from, to, global};
      if (global) ++globals;
    }
  };

  // Link ids, all allocated at construction: directed local links
  // (r_from, r_to within its group), directed global links, then a tx/rx
  // pair per node slot in attach order.
  LinkId local_link(int r_from, int r_to) const {
    return static_cast<LinkId>(r_from * params_.routers_per_group +
                               r_to % params_.routers_per_group);
  }
  LinkId global_link(int g_from, int g_to) const {
    return static_cast<LinkId>(total_routers_ * params_.routers_per_group +
                               g_from * params_.groups + g_to);
  }
  LinkId node_tx(hw::NodeId n) const {
    // global_link(groups, 0) is one past the last global link.
    return global_link(params_.groups, 0) +
           static_cast<LinkId>(2 * index_of(n));
  }
  LinkId node_rx(hw::NodeId n) const { return node_tx(n) + 1; }
  LinkId hop_link(const Path::Hop& hop) const {
    return hop.global ? global_link(hop.from / params_.routers_per_group,
                                    hop.to / params_.routers_per_group)
                      : local_link(hop.from, hop.to);
  }

  Path minimal_path(int src_router, int dst_router) const;
  /// The l-g-l-g-l detour via intermediate group `via`.
  Path valiant_path(int src_router, int dst_router, int via) const;
  /// Deterministic default intermediate group for (src, dst) groups.
  int valiant_group(int src_group, int dst_group) const;
  /// Every hop's link admin-up (named by endpoint-router representatives).
  bool path_alive(const Path& path) const;
  /// Canonical alive-candidate scan; false only when every candidate is cut.
  bool alive_path(int src_router, int dst_router, Path& out) const;
  /// The path send() takes: routing policy, then fault fallback.
  Path choose_path(int src_router, int dst_router) const;
  /// Estimated queueing delay of a link right now (0 when idle).
  sim::Duration queue_estimate(LinkId link) const;
  /// The core's route for `msg` over `path`.
  Route hops_of(const Message& msg, const Path& path) const;

  /// The node's attach order (its router is index / nodes_per_router).
  int index_of(hw::NodeId node) const;

  DragonflyParams params_;
  int total_routers_ = 0;
  int capacity_ = 0;
  std::vector<int> index_of_;                      // node -> attach order
  std::vector<hw::NodeId> router_rep_;             // router -> lowest node
  // Per-lane Valiant counters (summed on read; lanes never share a window).
  mutable std::vector<std::int64_t> valiant_lane_;
  obs::Counter m_global_hops_;  // global-link traversals
  obs::Counter m_valiant_;      // Valiant detours taken
};

}  // namespace deep::net
