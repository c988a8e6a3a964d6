#pragma once
// CrossbarFabric: the InfiniBand-style cluster interconnect.
//
// Flat topology (slide 6): any node reaches any other through a central
// switching core modelled as a constant fabric latency.  Contention appears
// only at the endpoints: each NIC's injection (tx) and ejection (rx) links
// serialise at the fabric bandwidth.  The model is pipelined cut-through:
// a message occupies tx for size/bw, travels for `latency`, and occupies rx
// for size/bw; overlapping use of an endpoint link queues.

#include <vector>

#include "net/fabric.hpp"
#include "net/pool.hpp"

namespace deep::net {

struct CrossbarParams {
  sim::Duration latency = sim::from_micros(1.5);  // adapter + switch + wire
  double bandwidth_bytes_per_sec = 6.0e9;         // FDR-class effective
};

class CrossbarFabric final : public Fabric {
 public:
  CrossbarFabric(sim::Engine& engine, std::string name, CrossbarParams params)
      : Fabric(engine, std::move(name)), params_(params) {
    DEEP_EXPECT(params_.bandwidth_bytes_per_sec > 0,
                "CrossbarFabric: bandwidth must be positive");
    m_link_busy_ps_ =
        engine.metrics().counter("net." + this->name() + ".link_busy_ps");
    m_tx_wait_ns_ =
        engine.metrics().histogram("net." + this->name() + ".tx_wait_ns");
  }

  const CrossbarParams& params() const { return params_; }

  /// Every path pays at least the constant core latency (serialisation and
  /// queueing only add to it) — the bound holds per partition pair too, so
  /// the base per-pair lookahead (this for pairs with endpoints on both
  /// sides, unconstrained otherwise) is sound.
  sim::Duration lookahead() const override { return params_.latency; }

  /// Endpoint link slots are sized here so the partitioned send path never
  /// resizes the vectors (a reallocation would race across workers).
  Nic& attach(hw::NodeId node) override {
    Nic& nic = Fabric::attach(node);
    const auto slots = static_cast<std::size_t>(node) + 1;
    if (tx_free_.size() < slots) {
      tx_free_.resize(slots);
      rx_free_.resize(slots);
    }
    return nic;
  }

  void send(Message msg, Service svc) override {
    DEEP_EXPECT(attached(msg.src) && attached(msg.dst),
                "CrossbarFabric::send: endpoint not attached");
    DEEP_EXPECT(msg.size_bytes >= 0, "CrossbarFabric::send: negative size");
    if (faulted(msg)) return;
    const sim::TimePoint now = engine_->now();
    const sim::Duration wire = serialisation(msg.size_bytes);

    if (svc == Service::Control) {
      // Priority virtual channel: pure latency, no queueing behind bulk.
      // Analytic, so partitioning-independent; the base deliver_at handles
      // a cross-partition destination.
      deliver_at(now + params_.latency + wire, std::move(msg));
      return;
    }

    // Injection booking is owned by the source endpoint's partition (send()
    // executes there — every caller injects from its own node).
    sim::TimePoint& tx = tx_free_[static_cast<std::size_t>(msg.src)];
    const sim::TimePoint tx_start = std::max(now, tx);
    const sim::TimePoint tx_end = tx_start + wire;
    tx = tx_end;
    // Endpoint-link occupancy (tx + rx) and injection queueing delay.
    m_link_busy_ps_.add(wire.ps * 2);
    m_tx_wait_ns_.record((tx_start - now).ps / 1000);

    const sim::TimePoint nominal = tx_end + params_.latency;
    if (partitioned()) {
      const std::uint32_t dst_part = partition_of(msg.dst);
      if (dst_part != partition_of(msg.src)) {
        // Ejection booking belongs to the destination's partition: continue
        // there at the nominal arrival (>= now + latency, i.e. at or beyond
        // the pair lookahead, so the hop is always inside the safe window).
        engine_->schedule_on(
            dst_part, nominal,
            [this, wire, m = PooledMessage(std::move(msg))]() mutable {
              Message msg = m.take();
              sim::TimePoint& rx = rx_free_[static_cast<std::size_t>(msg.dst)];
              const sim::TimePoint deliver =
                  std::max(engine_->now(), rx + wire);
              rx = deliver;
              deliver_at(deliver, std::move(msg));
            });
        return;
      }
    }
    sim::TimePoint& rx = rx_free_[static_cast<std::size_t>(msg.dst)];
    const sim::TimePoint deliver = std::max(nominal, rx + wire);
    rx = deliver;

    deliver_at(deliver, std::move(msg));
  }

  /// Time the wire is occupied by `bytes` (zero for zero-byte messages).
  sim::Duration serialisation(std::int64_t bytes) const {
    return sim::from_seconds(static_cast<double>(bytes) /
                             params_.bandwidth_bytes_per_sec);
  }

 private:
  CrossbarParams params_;
  // Endpoint link busy-until times, indexed by node.
  std::vector<sim::TimePoint> tx_free_;
  std::vector<sim::TimePoint> rx_free_;
  obs::Counter m_link_busy_ps_;
  obs::Histogram m_tx_wait_ns_;
};

}  // namespace deep::net
