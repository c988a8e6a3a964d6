#pragma once
// FatTreeFabric: a two-level fat-tree, the realistic construction of the
// cluster's InfiniBand network.
//
// Nodes attach to leaf switches (`leaf_radix` nodes per leaf); every leaf
// has `uplinks` links to the spine.  With uplinks == leaf_radix the tree is
// non-blocking and behaves like the idealised crossbar; smaller uplink
// counts model the oversubscribed (cheaper) fabrics real clusters deploy,
// where cross-leaf traffic contends on the uplinks.
//
// Routing is ECMP-style: the uplink (and the matching spine->leaf downlink)
// is chosen by a deterministic hash of (src, dst), as real IB subnet
// managers do with static routing.  Wormhole timing through the shared core
// (net/wormhole.hpp), path latency first: the head pays the adapter and
// per-switch latency up front, then queues on busy links; every traversed
// link is reserved until the tail passes.  Node links belong to their
// node's partition; a trunk belongs to its leaf's partition when every node
// on the leaf shares one, and to nobody otherwise.

#include <vector>

#include "net/wormhole.hpp"

namespace deep::net {

/// Spine-plane selection for cross-leaf traffic.
enum class FatTreeRouting {
  Ecmp,      // static hash of (src, dst), as IB subnet managers route
  Adaptive,  // least-loaded plane by simulated trunk-busy state; replays
             // stay bit-identical (the choice keys only on link state)
};

struct FatTreeParams {
  int leaf_radix = 8;  // nodes per leaf switch
  int uplinks = 8;     // leaf->spine links (== leaf_radix: non-blocking)
  sim::Duration adapter_latency = sim::from_nanos(400);  // NIC each end
  sim::Duration switch_latency = sim::from_nanos(200);   // per switch hop
  double bandwidth_bytes_per_sec = 6.0e9;
  FatTreeRouting routing = FatTreeRouting::Ecmp;
};

class FatTreeFabric final : public WormholeFabric {
 public:
  FatTreeFabric(sim::Engine& engine, std::string name, FatTreeParams params);

  const FatTreeParams& params() const { return params_; }

  Nic& attach(hw::NodeId node) override;
  void send(Message msg, Service svc) override;

  int leaf_of(hw::NodeId node) const;
  /// Switch hops between two attached nodes (1 same leaf, 3 cross leaf).
  int hops(hw::NodeId src, hw::NodeId dst) const;

  /// Cheapest event a fat-tree send can place on another partition: one
  /// adapter plus a single switch hop (the same-leaf case).
  sim::Duration lookahead() const override {
    return params_.adapter_latency + params_.switch_latency;
  }

  /// Leaf-distance pair lookahead: one switch when the two partitions share
  /// a leaf switch, the full three-switch spine crossing otherwise.
  sim::Duration lookahead(std::uint32_t src_part,
                          std::uint32_t dst_part) const override {
    return hop_lookahead(src_part, dst_part, params_.adapter_latency,
                         params_.switch_latency);
  }

  /// Same-leaf adjacency between attached nodes — the locality graph
  /// net::auto_partition() grows blocks from.
  std::vector<std::pair<hw::NodeId, hw::NodeId>> topology_edges()
      const override;

  sim::Duration serialisation(std::int64_t bytes) const {
    return sim::from_seconds(static_cast<double>(bytes) /
                             params_.bandwidth_bytes_per_sec);
  }

 protected:
  /// Node tx, then (cross leaf) the up and down trunks of one spine plane,
  /// then node rx.  Adaptive plane choice only when unpartitioned: trunk
  /// state is owned per leaf partition otherwise.
  Route route(const Message& msg) const override;

  /// Rebuilds unit_owner_ (leaf -> the partition all its nodes share, or
  /// kNoOwner: the trunks of a mixed leaf are analytic) and pair_hops_ (1
  /// when two partitions share a leaf, 3 otherwise, -1 when either has no
  /// node here).
  void refresh_partitions() const override;

 private:
  // Link ids.  Each leaf owns a block of links, allocated when its first
  // node attaches: 2 * uplinks trunks, then a tx/rx pair per node slot.
  enum class Dir : std::uint8_t { Up, Down };
  LinkId leaf_block(int leaf) const {
    return static_cast<LinkId>(leaf) *
           static_cast<LinkId>(2 * (params_.uplinks + params_.leaf_radix));
  }
  LinkId trunk(int leaf, int uplink, Dir dir) const {
    return leaf_block(leaf) + static_cast<LinkId>(2 * uplink) +
           static_cast<LinkId>(dir);
  }
  LinkId node_tx(hw::NodeId n) const {
    const int k = index_of(n);
    return leaf_block(k / params_.leaf_radix) +
           static_cast<LinkId>(2 * (params_.uplinks + k % params_.leaf_radix));
  }
  LinkId node_rx(hw::NodeId n) const { return node_tx(n) + 1; }

  /// The node's attach order (its leaf is index / leaf_radix).
  int index_of(hw::NodeId node) const;

  FatTreeParams params_;
  std::vector<int> index_of_;  // node -> attach order, -1 if absent
};

}  // namespace deep::net
