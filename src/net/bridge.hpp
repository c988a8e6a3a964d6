#pragma once
// BridgeFabric: the partition-aware Cluster–Booster interface.
//
// The DEEP architecture couples two independent interconnects — the
// cluster's InfiniBand-class crossbar and the booster's EXTOLL torus —
// through a dedicated bridge.  BridgeFabric models that coupling as a
// constant-latency, per-source-serialised pipe, and it is the one fabric
// that may span *engine partitions* (sim::Engine::set_partitions):
// each endpoint is registered with its home partition (attach_in) and
// delivery is scheduled onto the destination's partition, so a partitioned
// engine can run each island's fabric in parallel while the bridge carries
// the cross-island traffic.  The bridge's latency is exactly the kind of
// physical lower bound the parallel engine needs: set the engine lookahead
// to (at most) the minimum bridge lookahead() and the conservative window
// protocol is sound (docs/parallel_engine.md).
//
// Thread-safety contract (only relevant when the engine is partitioned):
//  * attach/attach_in happen before the run (single-threaded setup);
//  * send() runs on the source endpoint's partition: the per-source tx
//    booking it mutates is keyed by source node, hence partition-confined;
//  * traffic statistics go to per-lane shards merged on read;
//  * delivery crosses partitions through Engine::schedule_on, the NIC is
//    touched only by its destination partition.
//
// Fault injection (set_link_up / set_drop_fn) is NOT supported on the
// bridge: the fault bookkeeping in the Fabric base is partition-agnostic
// shared state.  Inject faults on the island fabrics instead.

#include <vector>

#include "net/fabric.hpp"
#include "util/lane.hpp"

namespace deep::net {

struct BridgeParams {
  sim::Duration latency = sim::from_micros(2.0);  // NIC + bridge + NIC
  double bandwidth_bytes_per_sec = 8.0e9;         // per source direction
};

class BridgeFabric final : public Fabric {
 public:
  BridgeFabric(sim::Engine& engine, std::string name, BridgeParams params)
      : Fabric(engine, std::move(name)), params_(params) {
    DEEP_EXPECT(params_.bandwidth_bytes_per_sec > 0,
                "BridgeFabric: bandwidth must be positive");
    DEEP_EXPECT(params_.latency.ps > 0,
                "BridgeFabric: latency must be positive (it bounds the "
                "parallel engine's lookahead)");
  }

  const BridgeParams& params() const { return params_; }

  /// Every message pays at least the constant bridge latency — uniformly,
  /// for every partition pair with bridge endpoints (the base per-pair
  /// lookahead already reports pairs without endpoints as unconstrained).
  sim::Duration lookahead() const override { return params_.latency; }

  /// Attaches a node that lives on engine partition `p` (see
  /// sim::Engine::spawn_on).  Plain attach() places the node on partition 0.
  Nic& attach_in(hw::NodeId node, std::uint32_t p) {
    Nic& nic = Fabric::attach(node);
    set_node_partition(node, p);
    // Sized here: send() must not reallocate the vector.
    const auto slots = static_cast<std::size_t>(node) + 1;
    if (tx_free_.size() < slots) tx_free_.resize(slots);
    return nic;
  }

  Nic& attach(hw::NodeId node) override { return attach_in(node, 0); }

  void send(Message msg, Service svc) override {
    DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
                "BridgeFabric::send: endpoint not attached");
    DEEP_EXPECT(msg.size_bytes >= 0, "BridgeFabric::send: negative size");
    const sim::TimePoint now = engine_->now();
    const sim::Duration wire = serialisation(msg.size_bytes);

    sim::TimePoint deliver;
    if (svc == Service::Control) {
      // Priority channel: latency only, no queueing behind bulk.
      deliver = now + params_.latency + wire;
    } else {
      sim::TimePoint& tx = tx_free_[static_cast<std::size_t>(msg.src)];
      const sim::TimePoint tx_start = std::max(now, tx);
      tx = tx_start + wire;
      deliver = tx_start + wire + params_.latency;
    }
    // Booking and the cross-partition delivery hop both live in the base:
    // per-lane stat shards, and schedule_on to the destination's partition.
    deliver_at(deliver, std::move(msg));
  }

  sim::Duration serialisation(std::int64_t bytes) const {
    return sim::from_seconds(static_cast<double>(bytes) /
                             params_.bandwidth_bytes_per_sec);
  }

 private:
  BridgeParams params_;
  std::vector<sim::TimePoint> tx_free_;  // per-source busy-until, by node
};

}  // namespace deep::net
