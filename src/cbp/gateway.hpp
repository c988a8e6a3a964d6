#pragma once
// Cluster-Booster Protocol (CBP) bridging.
//
// The DEEP machine joins two independent fabrics (slide 29): the cluster's
// InfiniBand and the booster's EXTOLL torus.  Booster Interface (BI) nodes
// sit on both and forward traffic between them; the EXTOLL SMFU engine is
// what makes this bridging possible on real hardware (slide 16).
//
// A cross-fabric message is wrapped in a CbpFrame, carried to a gateway on
// the source-side fabric, processed by the gateway's SMFU (store-and-forward
// latency + per-byte cost, serialised per gateway), and re-injected on the
// far fabric towards its final destination.

#include <cstdint>
#include <deque>
#include <vector>

#include "cbp/transport.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace deep::cbp {

/// How a sender picks the gateway for a cross-fabric message.
enum class GatewayPolicy {
  ByPair,      // static: hash of (src,dst) — preserves per-pair ordering,
               // fails over to the next healthy gateway
  RoundRobin,  // spreads load; per-pair ordering NOT guaranteed by the wire
               // (the MPI endpoint reorders via sequence numbers)
  Pinned,      // static hash of (src,dst) with NO failover: a pair keeps
               // retrying its pinned gateway even while it is down (models
               // firmware routing tables that cannot be rewritten at runtime)
};

struct BridgeParams {
  sim::Duration smfu_latency = sim::from_nanos(600);  // frame processing
  double smfu_bandwidth_bytes_per_sec = 4.5e9;        // bridging throughput
  std::int64_t frame_header_bytes = 32;
  GatewayPolicy policy = GatewayPolicy::ByPair;

  // Fault handling: a frame that dies on the wire or hits a dead gateway is
  // retried after retry_timeout (the sender-side timeout), doubling per
  // attempt (backoff_factor), at most max_retries times; then the wrapped
  // message is reported lost to the MPI layer.
  sim::Duration retry_timeout = sim::from_micros(20);
  double backoff_factor = 2.0;
  int max_retries = 4;
};

/// Per-gateway forwarding statistics.
struct GatewayStats {
  std::int64_t forwarded_messages = 0;
  std::int64_t forwarded_bytes = 0;
  std::int64_t timeouts = 0;    // frames that found this gateway dead
  std::int64_t retries = 0;     // re-sent frames this gateway carried
  std::int64_t failovers = 0;   // retries that switched TO this gateway
};

/// The DEEP global interconnect: cluster fabric + booster fabric + BI
/// gateways.  Nodes must be registered on exactly one side; gateways are
/// attached to both fabrics by the caller before registration here.
class BridgedTransport final : public Transport {
 public:
  BridgedTransport(sim::Engine& engine, net::Fabric& cluster_fabric,
                   net::Fabric& booster_fabric, BridgeParams params = {});

  /// Declares `node` a cluster node (must already be attached to the
  /// cluster fabric).
  void register_cluster_node(hw::NodeId node);
  /// Declares `node` a booster node (must already be attached to the
  /// booster fabric).
  void register_booster_node(hw::NodeId node);
  /// Declares `node` a gateway (must be attached to BOTH fabrics); binds the
  /// CBP port handlers on both NICs.
  void register_gateway(hw::NodeId node);

  void send(net::Message msg, net::Service svc) override;
  net::Nic& home_nic(hw::NodeId node) override;

  std::size_t num_gateways() const { return gateways_.size(); }
  const GatewayStats& gateway_stats(hw::NodeId gateway) const;
  const BridgeParams& params() const { return params_; }

  /// Sums over all gateways (plus retries that could not be routed at all).
  std::int64_t total_retries() const;
  std::int64_t total_failovers() const;
  std::int64_t total_timeouts() const;
  /// Wrapped messages abandoned after max_retries (reported to the MPI
  /// layer as losses).
  std::int64_t frames_lost() const { return m_frames_lost_.value(); }

  /// RAS: marks a gateway as failed (or repaired).  Subsequent cross-fabric
  /// traffic fails over to the remaining gateways; frames already in flight
  /// towards the failed gateway time out on arrival and re-enter the retry
  /// path (the real SMFU stops acking once the board faults).
  void set_gateway_up(hw::NodeId gateway, bool up);
  bool gateway_up(hw::NodeId gateway) const;
  std::size_t num_gateways_up() const;

  /// True if `node` lives on the cluster side (gateways count as both).
  bool on_cluster_side(hw::NodeId node) const;
  bool on_booster_side(hw::NodeId node) const;

 private:
  enum class Side : std::uint8_t { Unregistered, Cluster, Booster, Gateway };

  struct GatewayState {
    hw::NodeId node;
    sim::TimePoint smfu_free{};
    GatewayStats stats;
    bool up = true;
  };

  /// Records `node`'s side; false if it already has one.
  bool register_side(hw::NodeId node, Side side);
  Side side_of(hw::NodeId node) const;
  GatewayState& pick_gateway(hw::NodeId src, hw::NodeId dst);
  /// Retry-path selection: may return a down gateway (Pinned) or nullptr
  /// (no healthy gateway right now) instead of throwing.
  GatewayState* pick_gateway_for_retry(hw::NodeId src, hw::NodeId dst);
  GatewayState* find_gateway(hw::NodeId node);
  void forward(GatewayState& gw, net::Message&& wrapped);
  /// Drop handler installed on both fabrics: retries CBP frames, reports
  /// naked MPI messages (same-side traffic, post-gateway legs) as lost.
  void on_fabric_drop(net::Message&& msg);
  /// Schedules a timed-out/dropped frame for re-send with backoff, or
  /// reports the wrapped message lost once retries are exhausted.
  void retry_frame(net::Message&& wrapped);
  void resend_frame(net::Message&& wrapped);
  net::Fabric& fabric_for_side(bool cluster_side) {
    return cluster_side ? *cluster_ : *booster_;
  }

  sim::Engine* engine_;
  net::Fabric* cluster_;
  net::Fabric* booster_;
  BridgeParams params_;
  std::vector<Side> sides_;  // indexed by node
  // deque: register_gateway hands out stable references to elements.
  std::deque<GatewayState> gateways_;
  std::size_t rr_next_ = 0;
  std::int64_t unrouted_retries_ = 0;  // retries while no gateway was up
  // Metrics handles (see docs/observability.md).
  obs::Counter m_forwarded_;
  obs::Counter m_forwarded_bytes_;
  obs::Counter m_timeouts_;
  obs::Counter m_retries_;
  obs::Counter m_failovers_;
  obs::Counter m_frames_lost_;
  obs::Counter m_smfu_busy_ps_;     // SMFU occupancy (processing time booked)
  obs::Histogram m_smfu_wait_ns_;   // queueing behind the gateway's SMFU
  obs::Histogram m_retry_delay_ns_; // backoff delays of retried frames
};

}  // namespace deep::cbp
