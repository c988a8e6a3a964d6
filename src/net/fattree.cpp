#include "net/fattree.hpp"

#include <algorithm>

namespace deep::net {

FatTreeFabric::FatTreeFabric(sim::Engine& engine, std::string name,
                             FatTreeParams params)
    : WormholeFabric(engine, std::move(name)), params_(params) {
  DEEP_EXPECT(params_.leaf_radix >= 1, "FatTreeFabric: leaf_radix must be >= 1");
  DEEP_EXPECT(params_.uplinks >= 1 && params_.uplinks <= params_.leaf_radix,
              "FatTreeFabric: uplinks must be in [1, leaf_radix]");
  DEEP_EXPECT(params_.bandwidth_bytes_per_sec > 0,
              "FatTreeFabric: bandwidth must be positive");
}

Nic& FatTreeFabric::attach(hw::NodeId node) {
  Nic& nic = Fabric::attach(node);
  const int k = static_cast<int>(attached_count_) - 1;
  const auto slot = static_cast<std::size_t>(node);
  if (index_of_.size() <= slot) index_of_.resize(slot + 1, -1);
  index_of_[slot] = k;
  // A new leaf brings its whole link block (trunks and node slots).
  if (k % params_.leaf_radix == 0)
    add_links(2 * static_cast<std::size_t>(params_.uplinks + params_.leaf_radix));
  return nic;
}

int FatTreeFabric::index_of(hw::NodeId node) const {
  DEEP_EXPECT(node >= 0 && static_cast<std::size_t>(node) < index_of_.size() &&
                  index_of_[static_cast<std::size_t>(node)] >= 0,
              "FatTreeFabric: node not attached");
  return index_of_[static_cast<std::size_t>(node)];
}

int FatTreeFabric::leaf_of(hw::NodeId node) const {
  return index_of(node) / params_.leaf_radix;
}

int FatTreeFabric::hops(hw::NodeId src, hw::NodeId dst) const {
  return leaf_of(src) == leaf_of(dst) ? 1 : 3;
}

std::vector<std::pair<hw::NodeId, hw::NodeId>> FatTreeFabric::topology_edges()
    const {
  // Same-leaf pairs: the only locality a two-level tree has.
  std::vector<std::pair<hw::NodeId, int>> nodes;
  for (std::size_t n = 0; n < index_of_.size(); ++n)
    if (index_of_[n] >= 0)
      nodes.emplace_back(static_cast<hw::NodeId>(n),
                         index_of_[n] / params_.leaf_radix);
  std::vector<std::pair<hw::NodeId, hw::NodeId>> edges;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      if (nodes[i].second == nodes[j].second)
        edges.emplace_back(nodes[i].first, nodes[j].first);
  return edges;
}

void FatTreeFabric::refresh_partitions() const {
  const std::uint32_t nparts = engine_->partitions();
  const int nleaves = (static_cast<int>(attached_count_) + params_.leaf_radix -
                       1) / params_.leaf_radix;
  unit_owner_.assign(static_cast<std::size_t>(std::max(nleaves, 1)), kNoOwner);
  std::vector<char> present(nparts, 0);
  // Per-leaf member partitions (leaves are small: leaf_radix nodes).
  std::vector<std::vector<std::uint32_t>> members(unit_owner_.size());
  for (std::size_t n = 0; n < index_of_.size(); ++n) {
    if (index_of_[n] < 0) continue;
    const std::uint32_t p = partition_of(static_cast<hw::NodeId>(n));
    if (p < nparts) present[p] = 1;
    members[static_cast<std::size_t>(index_of_[n] / params_.leaf_radix)]
        .push_back(p);
  }
  // Partitions with nodes here are three switches apart, one when they
  // share a leaf.
  pair_hops_.assign(static_cast<std::size_t>(nparts) * nparts, -1);
  for (std::uint32_t p = 0; p < nparts; ++p)
    for (std::uint32_t q = 0; q < nparts; ++q)
      if (present[p] && present[q])
        pair_hops_[static_cast<std::size_t>(p) * nparts + q] = 3;
  for (std::size_t leaf = 0; leaf < members.size(); ++leaf) {
    if (members[leaf].empty()) continue;
    std::uint32_t owner = members[leaf].front();
    for (const std::uint32_t p : members[leaf]) {
      if (p != owner) owner = kNoOwner;
      for (const std::uint32_t q : members[leaf])
        if (p != q && p < nparts && q < nparts)
          pair_hops_[static_cast<std::size_t>(p) * nparts + q] = 1;
    }
    unit_owner_[leaf] = owner;
  }
}

FatTreeFabric::Route FatTreeFabric::route(const Message& msg) const {
  const int src_leaf = leaf_of(msg.src);
  const int dst_leaf = leaf_of(msg.dst);
  const std::size_t n = src_leaf == dst_leaf ? 2 : 4;
  Hop* hop = scratch_hops(n);
  hop[0] = {node_tx(msg.src), partition_of(msg.src), {}};
  hop[n - 1] = {node_rx(msg.dst), partition_of(msg.dst), {}};
  if (src_leaf != dst_leaf) {
    int plane = 0;
    if (params_.routing == FatTreeRouting::Adaptive && !partitioned()) {
      // Least-loaded plane: the spine plane whose up/down trunk pair frees
      // earliest, lowest index on ties.  Reads only the simulated link-busy
      // table, so the choice — and the whole run — replays bit-identically.
      // Partitioned runs fall back to the ECMP hash below: trunk state is
      // owned per-leaf-partition there and must not be read cross-worker.
      sim::TimePoint best{};
      for (int u = 0; u < params_.uplinks; ++u) {
        const sim::TimePoint busy =
            std::max(link_free(trunk(src_leaf, u, Dir::Up)),
                     link_free(trunk(dst_leaf, u, Dir::Down)));
        if (u == 0 || busy < best) {
          best = busy;
          plane = u;
        }
      }
    } else {
      // Static ECMP: a well-mixed hash of (src, dst) picks the uplink /
      // spine plane for this pair (linear hashes degenerate on strided
      // traffic).
      std::uint64_t h = (static_cast<std::uint64_t>(msg.src) << 32) ^
                        static_cast<std::uint64_t>(msg.dst);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      h *= 0xc4ceb9fe1a85ec53ULL;
      h ^= h >> 33;
      plane = static_cast<int>(h % static_cast<std::uint64_t>(params_.uplinks));
    }
    hop[1] = {trunk(src_leaf, plane, Dir::Up),
              unit_owner(static_cast<std::size_t>(src_leaf)), {}};
    hop[2] = {trunk(dst_leaf, plane, Dir::Down),
              unit_owner(static_cast<std::size_t>(dst_leaf)), {}};
  }
  return {hop, n};
}

void FatTreeFabric::send(Message msg, Service svc) {
  DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
              "FatTreeFabric::send: endpoint not attached");
  DEEP_EXPECT(msg.size_bytes >= 0, "FatTreeFabric::send: negative size");
  if (faulted(msg)) return;
  const Route path = route(msg);
  const int switches = path.size() == 2 ? 1 : 3;
  const sim::Duration wire = serialisation(msg.size_bytes);
  transmit(std::move(msg), svc, path,
           engine_->now() + params_.adapter_latency +
               params_.switch_latency * switches,
           wire, params_.adapter_latency);
}

}  // namespace deep::net
