#pragma once
// TorusFabric: the EXTOLL-style booster interconnect.
//
// Models the EXTOLL NIC features the paper lists (slide 16):
//   * 6 links forming a 3-D torus, dimension-ordered shortest-path routing,
//   * a VELO engine for latency-critical small messages (low injection
//     overhead; used by the MPI eager path),
//   * an RMA engine for bulk transfers (descriptor setup cost, full link
//     bandwidth; used by the MPI rendezvous path),
//   * link-level retransmission: packets are CRC-protected, a corrupted
//     packet is retransmitted on the affected link (latency penalty, no
//     data loss), with counters exposed for the RAS benches.
//
// Wormhole-style timing through the shared core (net/wormhole.hpp), hop by
// hop: the head flit pays a per-hop router latency and queues on busy links;
// every traversed link (including the injection and ejection links) is then
// held until the message tail passes.  A link is owned by the partition of
// its router's coordinate.
//
// Hot-path layout (docs/perf.md): geometry is fixed at construction, so all
// per-message state lives in flat arrays indexed by the linear coordinate —
// node_at_/coord_at_ for attachment, the core's link table for booking.
// Dimension-ordered routes are arithmetic: a send walks its route with
// linear-coordinate strides straight into the core's hop span, with no
// per-pair table, no hashing and no allocation.  Fault checks (route_up)
// walk the same route against the *live* link-state table.

#include <array>
#include <cstdint>
#include <vector>

#include "net/wormhole.hpp"
#include "util/rng.hpp"

namespace deep::net {

/// Coordinates of a node on the 3-D torus.
struct TorusCoord {
  int x = 0;
  int y = 0;
  int z = 0;
  bool operator==(const TorusCoord&) const = default;
};

struct TorusParams {
  std::array<int, 3> dims{4, 4, 4};
  sim::Duration hop_latency = sim::from_nanos(60);
  sim::Duration velo_injection = sim::from_nanos(300);
  sim::Duration rma_setup = sim::from_micros(1.2);
  sim::Duration ejection = sim::from_nanos(300);
  double bandwidth_bytes_per_sec = 5.0e9;  // per link direction
  std::int64_t packet_bytes = 2048;        // retransmission granularity
  double packet_error_rate = 0.0;          // probability a packet needs resend
  std::uint64_t seed = 0x5EED;             // for error sampling
};

class TorusFabric final : public WormholeFabric {
 public:
  TorusFabric(sim::Engine& engine, std::string name, TorusParams params);

  const TorusParams& params() const { return params_; }

  /// Cheapest possible delivery: the faster engine's setup overhead plus the
  /// two unavoidable hops (injection and ejection link traversal).  Queueing,
  /// route hops, serialisation and retransmission only add to this.
  sim::Duration lookahead() const override {
    return engine_min() + params_.hop_latency * 2;
  }

  /// Route-distance-derived pair lookahead: nothing injected on partition
  /// `src_part` reaches partition `dst_part` earlier than the engine setup
  /// minimum plus one hop per torus link separating the two partitions'
  /// coordinate blocks (plus the injection hop).  Partitions that own no
  /// torus coordinates are unconstrained.  See docs/parallel_engine.md for
  /// why the partitioned contention model (endpoint-segmented booking)
  /// preserves this bound.
  sim::Duration lookahead(std::uint32_t src_part,
                          std::uint32_t dst_part) const override {
    return hop_lookahead(src_part, dst_part,
                         engine_min() + params_.hop_latency,
                         params_.hop_latency);
  }

  /// Attaches the node at the next free coordinate (lexicographic order).
  Nic& attach(hw::NodeId node) override;
  /// Attaches the node at an explicit coordinate.
  Nic& attach_at(hw::NodeId node, TorusCoord coord);

  TorusCoord coord_of(hw::NodeId node) const;
  /// Number of torus hops between two attached nodes (dimension-ordered).
  int hops(hw::NodeId src, hw::NodeId dst) const;
  /// Shortest-path hop count between two coordinates on this torus.
  int hops(TorusCoord a, TorusCoord b) const;

  void send(Message msg, Service svc) override;

  /// The linear coordinates the dimension-ordered route src->dst visits,
  /// endpoints included.  Introspection for the route equivalence tests;
  /// uses the same walk as send()/route_up().
  std::vector<int> route_linears(hw::NodeId src, hw::NodeId dst) const;
  /// The directed links (packed_link_index) a message src->dst books, in
  /// order: injection, one per dimension hop, ejection.  Introspection for
  /// the route equivalence tests; read from route(), as send() books it.
  std::vector<std::int64_t> route_links(hw::NodeId src, hw::NodeId dst) const;

  /// Total link-level retransmissions performed so far (all lanes).
  std::int64_t retransmissions() const { return m_retransmissions_.value(); }
  /// Messages that traversed at least one retransmitted packet (all lanes).
  std::int64_t affected_messages() const;

  /// Torus adjacency between attached nodes (distance-1 coordinate pairs),
  /// the locality graph net::auto_partition() grows blocks from.
  std::vector<std::pair<hw::NodeId, hw::NodeId>> topology_edges()
      const override;

  sim::Duration serialisation(std::int64_t bytes) const {
    return sim::from_seconds(static_cast<double>(bytes) /
                             params_.bandwidth_bytes_per_sec);
  }

  // Per-router channel map.  A directed link is identified by the index
  // `linear * kChannelsPerRouter + channel` into the link table; pack()
  // guards that a channel can never alias the next router's channel 0.
  static constexpr int kChannelsPerRouter = 16;
  // Channels 0..5 are the torus dimension links: dim * 2 (+x/+y/+z) and
  // dim * 2 + 1 (-x/-y/-z).
  static constexpr int kChannelInject = 6;
  static constexpr int kChannelEject = 7;
  // The VELO/RMA engines serialise message setup per NIC: modelled as
  // pseudo-links occupied for the injection overhead of each message.
  static constexpr int kChannelVelo = 8;
  static constexpr int kChannelRma = 9;

  /// Directed-link index for (router, channel).  A channel outside
  /// [0, kChannelsPerRouter) would silently alias a neighbouring router's
  /// links, so it is rejected here.
  static std::int64_t packed_link_index(int lin, int channel) {
    DEEP_EXPECT(channel >= 0 && channel < kChannelsPerRouter,
                "TorusFabric: channel would alias another router's links");
    return static_cast<std::int64_t>(lin) * kChannelsPerRouter + channel;
  }

 protected:
  /// Walks the dimension-ordered route and fails if any hop
  /// between two attached nodes crosses a dead link (coordinates without an
  /// attached node cannot be named by set_link_up and are skipped).  The
  /// link-state check itself is live — never cached.
  bool route_up(hw::NodeId src, hw::NodeId dst) const override;

  /// Injection link, dimension links, ejection link; each owned by
  /// its router's coordinate partition (all partition 0 when unpartitioned).
  Route route(const Message& msg) const override;

  /// Link-level retransmission: each of `nlinks` link traversals of every
  /// packet may need a resend (sampled on this lane's RNG stream).
  sim::Duration tail_penalty(std::int64_t bytes, int nlinks) override;

  /// Rebuilds unit_owner_ (coordinate -> owning partition) and pair_hops_
  /// (partition-pair min hop distance) from the current node partitions.
  void refresh_partitions() const override;

 private:
  /// Mutable send-path state, replicated per execution lane so partitioned
  /// runs never share it across workers.  Serial runs (and all existing
  /// traces) use lane 0 exclusively: lane 0 is seeded with params.seed, so
  /// single-partition behaviour is bit-identical to the pre-partitioned
  /// fabric.  Other lanes derive their error-sampling streams from the seed
  /// and the lane index — deterministic for a fixed partitioning, whatever
  /// the worker count.
  struct LaneState {
    util::Rng rng{0};
    std::int64_t affected_messages = 0;
  };

  LaneState& lane_state() const { return lanes_[util::exec_lane()]; }

  int linear(TorusCoord c) const;
  int linear_of(hw::NodeId node) const;
  /// Directed-link id in the link table.
  LinkId pack(int lin, int channel) const {
    return static_cast<LinkId>(packed_link_index(lin, channel));
  }

  sim::Duration engine_min() const {
    return params_.velo_injection < params_.rma_setup ? params_.velo_injection
                                                      : params_.rma_setup;
  }

  /// Walks the dimension-ordered route src->dst (x, then y, then z, each
  /// the shorter way round, ties positive), calling hop(from_lin, to_lin,
  /// channel) once per dimension link in order.
  template <typename OnHop>
  void walk_route(int src_lin, int dst_lin, OnHop&& hop) const;

  /// Signed shortest displacement along `dim` from `from` to `to`.
  int displacement(int from, int to, int dim) const;

  TorusParams params_;
  int capacity_ = 0;
  std::vector<TorusCoord> coord_at_;   // linear -> coordinate (fixed)
  std::vector<hw::NodeId> node_at_;    // linear -> node (kInvalidNode if free)
  std::vector<int> linear_of_;         // node -> linear (-1 if absent)
  // Per-execution-lane send state (sized once at construction).
  mutable std::vector<LaneState> lanes_;
  int next_linear_ = 0;
  // Metrics (see Fabric).  The core's m_link_busy_ps_ and m_head_wait_ns_
  // are registered here too.
  obs::Counter m_hops_;             // torus dimension hops traversed
  obs::Counter m_retransmissions_;  // link-level packet resends
};

}  // namespace deep::net
