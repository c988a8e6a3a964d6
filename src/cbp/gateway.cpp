#include "cbp/gateway.hpp"

#include <cmath>

#include "net/pool.hpp"

namespace deep::cbp {

namespace {

// Reconstructs the bridged message from its flattened frame (net::CbpFrame
// keeps the inner metadata as plain fields so it can live in the header
// variant; the payload rides on the wrapped carrier).
net::Message unwrap_frame(net::Message&& wrapped, const net::CbpFrame& frame) {
  net::Message inner;
  inner.src = frame.inner_src;
  inner.dst = frame.inner_dst;
  inner.port = frame.inner_port;
  inner.size_bytes = frame.inner_size_bytes;
  if (frame.inner_has_wire)
    inner.header = frame.inner_wire;
  else if (frame.inner_has_io)
    inner.header = frame.inner_io;
  inner.payload = std::move(wrapped.payload);
  return inner;
}

}  // namespace

BridgedTransport::BridgedTransport(sim::Engine& engine,
                                   net::Fabric& cluster_fabric,
                                   net::Fabric& booster_fabric,
                                   BridgeParams params)
    : engine_(&engine),
      cluster_(&cluster_fabric),
      booster_(&booster_fabric),
      params_(params) {
  DEEP_EXPECT(params_.smfu_bandwidth_bytes_per_sec > 0,
              "BridgedTransport: SMFU bandwidth must be positive");
  DEEP_EXPECT(params_.frame_header_bytes >= 0,
              "BridgedTransport: negative frame header");
  DEEP_EXPECT(params_.retry_timeout.ps > 0,
              "BridgedTransport: retry timeout must be positive");
  DEEP_EXPECT(params_.backoff_factor >= 1.0,
              "BridgedTransport: backoff factor must be >= 1");
  DEEP_EXPECT(params_.max_retries >= 0,
              "BridgedTransport: negative retry budget");
  // Fabric drops (dead links, injected faults) re-enter through the retry
  // path for CBP frames and surface as losses for everything else.
  const auto handler = [this](net::Message&& msg) {
    on_fabric_drop(std::move(msg));
  };
  cluster_->set_drop_handler(handler);
  booster_->set_drop_handler(handler);
  obs::Registry& metrics = engine_->metrics();
  m_forwarded_ = metrics.counter("cbp.forwarded");
  m_forwarded_bytes_ = metrics.counter("cbp.forwarded_bytes");
  m_timeouts_ = metrics.counter("cbp.timeouts");
  m_retries_ = metrics.counter("cbp.retries");
  m_failovers_ = metrics.counter("cbp.failovers");
  m_frames_lost_ = metrics.counter("cbp.frames_lost");
  m_smfu_busy_ps_ = metrics.counter("cbp.smfu_busy_ps");
  m_smfu_wait_ns_ = metrics.histogram("cbp.smfu_wait_ns");
  m_retry_delay_ns_ = metrics.histogram("cbp.retry_delay_ns");
}

void BridgedTransport::register_cluster_node(hw::NodeId node) {
  DEEP_EXPECT(cluster_->attached(node),
              "register_cluster_node: not attached to cluster fabric");
  DEEP_EXPECT(register_side(node, Side::Cluster),
              "register_cluster_node: node already registered");
}

void BridgedTransport::register_booster_node(hw::NodeId node) {
  DEEP_EXPECT(booster_->attached(node),
              "register_booster_node: not attached to booster fabric");
  DEEP_EXPECT(register_side(node, Side::Booster),
              "register_booster_node: node already registered");
}

void BridgedTransport::register_gateway(hw::NodeId node) {
  DEEP_EXPECT(cluster_->attached(node) && booster_->attached(node),
              "register_gateway: gateway must sit on both fabrics");
  DEEP_EXPECT(register_side(node, Side::Gateway),
              "register_gateway: node already registered");
  gateways_.push_back(GatewayState{node, {}, {}});
  GatewayState& gw = gateways_.back();
  auto handler = [this, &gw](net::Message&& wrapped) {
    forward(gw, std::move(wrapped));
  };
  cluster_->nic(node).bind(net::Port::Cbp, handler);
  booster_->nic(node).bind(net::Port::Cbp, handler);
}

bool BridgedTransport::register_side(hw::NodeId node, Side side) {
  // Registered nodes are attached to a fabric, so node >= 0.
  const auto slot = static_cast<std::size_t>(node);
  if (sides_.size() <= slot) sides_.resize(slot + 1, Side::Unregistered);
  if (sides_[slot] != Side::Unregistered) return false;
  sides_[slot] = side;
  return true;
}

BridgedTransport::Side BridgedTransport::side_of(hw::NodeId node) const {
  const Side side = node >= 0 && static_cast<std::size_t>(node) < sides_.size()
                        ? sides_[static_cast<std::size_t>(node)]
                        : Side::Unregistered;
  DEEP_EXPECT(side != Side::Unregistered, "BridgedTransport: node not registered");
  return side;
}

bool BridgedTransport::on_cluster_side(hw::NodeId node) const {
  const Side s = side_of(node);
  return s == Side::Cluster || s == Side::Gateway;
}

bool BridgedTransport::on_booster_side(hw::NodeId node) const {
  const Side s = side_of(node);
  return s == Side::Booster || s == Side::Gateway;
}

net::Nic& BridgedTransport::home_nic(hw::NodeId node) {
  switch (side_of(node)) {
    case Side::Cluster:
    case Side::Gateway:  // gateways' protocol endpoints live cluster-side
      return cluster_->nic(node);
    case Side::Booster:
      return booster_->nic(node);
    case Side::Unregistered:
      break;  // side_of() never returns it
  }
  throw util::SimError("unreachable");
}

const GatewayStats& BridgedTransport::gateway_stats(hw::NodeId gateway) const {
  for (const auto& gw : gateways_)
    if (gw.node == gateway) return gw.stats;
  throw util::UsageError("gateway_stats: no such gateway");
}

void BridgedTransport::set_gateway_up(hw::NodeId gateway, bool up) {
  for (auto& gw : gateways_) {
    if (gw.node == gateway) {
      gw.up = up;
      return;
    }
  }
  throw util::UsageError("set_gateway_up: no such gateway");
}

bool BridgedTransport::gateway_up(hw::NodeId gateway) const {
  for (const auto& gw : gateways_)
    if (gw.node == gateway) return gw.up;
  throw util::UsageError("gateway_up: no such gateway");
}

std::size_t BridgedTransport::num_gateways_up() const {
  std::size_t n = 0;
  for (const auto& gw : gateways_) n += gw.up ? 1 : 0;
  return n;
}

BridgedTransport::GatewayState& BridgedTransport::pick_gateway(
    hw::NodeId src, hw::NodeId dst) {
  DEEP_EXPECT(!gateways_.empty(),
              "BridgedTransport: cross-fabric send with no gateways");
  DEEP_EXPECT(num_gateways_up() > 0,
              "BridgedTransport: all gateways down — booster unreachable");
  switch (params_.policy) {
    case GatewayPolicy::ByPair: {
      const auto h = static_cast<std::size_t>(src) * 1000003u +
                     static_cast<std::size_t>(dst);
      // Linear probe from the hash slot to the next healthy gateway, so a
      // failure deterministically re-pins each pair.
      for (std::size_t i = 0; i < gateways_.size(); ++i) {
        GatewayState& gw = gateways_[(h + i) % gateways_.size()];
        if (gw.up) return gw;
      }
      break;
    }
    case GatewayPolicy::RoundRobin: {
      for (std::size_t i = 0; i < gateways_.size(); ++i) {
        GatewayState& gw = gateways_[rr_next_];
        rr_next_ = (rr_next_ + 1) % gateways_.size();
        if (gw.up) return gw;
      }
      break;
    }
    case GatewayPolicy::Pinned: {
      // Same hash as ByPair but no probing: the pair sticks to its slot even
      // when that gateway is down (it will time out and retry in place).
      const auto h = static_cast<std::size_t>(src) * 1000003u +
                     static_cast<std::size_t>(dst);
      return gateways_[h % gateways_.size()];
    }
  }
  throw util::SimError("unreachable");
}

BridgedTransport::GatewayState* BridgedTransport::find_gateway(
    hw::NodeId node) {
  for (auto& gw : gateways_)
    if (gw.node == node) return &gw;
  return nullptr;
}

BridgedTransport::GatewayState* BridgedTransport::pick_gateway_for_retry(
    hw::NodeId src, hw::NodeId dst) {
  if (gateways_.empty()) return nullptr;
  const auto h = static_cast<std::size_t>(src) * 1000003u +
                 static_cast<std::size_t>(dst);
  switch (params_.policy) {
    case GatewayPolicy::Pinned:
      // No failover by design: keep hammering the pinned gateway.
      return &gateways_[h % gateways_.size()];
    case GatewayPolicy::ByPair: {
      for (std::size_t i = 0; i < gateways_.size(); ++i) {
        GatewayState& gw = gateways_[(h + i) % gateways_.size()];
        if (gw.up) return &gw;
      }
      return nullptr;
    }
    case GatewayPolicy::RoundRobin: {
      for (std::size_t i = 0; i < gateways_.size(); ++i) {
        GatewayState& gw = gateways_[rr_next_];
        rr_next_ = (rr_next_ + 1) % gateways_.size();
        if (gw.up) return &gw;
      }
      return nullptr;
    }
  }
  throw util::SimError("unreachable");
}

void BridgedTransport::on_fabric_drop(net::Message&& msg) {
  if (msg.port == net::Port::Cbp) {
    // A wrapped frame died between sender and gateway: the sender's timeout
    // fires and the frame re-enters the retry path.
    retry_frame(std::move(msg));
  } else if (msg.port == net::Port::Mpi) {
    // Same-side traffic or the post-gateway leg: no wrapped copy survives,
    // so the loss is final and the MPI layer must be told.
    report_loss(std::move(msg));
  }
  // Anything else (Raw probes etc.): counted by the fabric, nothing to do.
}

void BridgedTransport::retry_frame(net::Message&& wrapped) {
  auto* frame = net::cbp_frame(wrapped);
  DEEP_EXPECT(frame != nullptr, "CBP: malformed frame in retry path");
  if (frame->attempts >= params_.max_retries) {
    m_frames_lost_.add(1);
    report_loss(unwrap_frame(std::move(wrapped), *frame));
    return;
  }
  frame->attempts += 1;
  // Exponential backoff: retry_timeout * factor^(attempts-1).  Duration has
  // no floating-point scaling, so compute the picosecond count directly; the
  // result is a pure function of the params, hence reproducible.
  const double scale = std::pow(params_.backoff_factor, frame->attempts - 1);
  const sim::Duration delay{static_cast<std::int64_t>(
      static_cast<double>(params_.retry_timeout.ps) * scale)};
  m_retry_delay_ns_.record(delay.ps / 1000);
  engine_->schedule_in(delay,
                       [this, w = net::PooledMessage(std::move(wrapped))]() mutable {
                         resend_frame(w.take());
                       });
}

void BridgedTransport::resend_frame(net::Message&& wrapped) {
  auto* frame = net::cbp_frame(wrapped);
  DEEP_EXPECT(frame != nullptr, "CBP: malformed frame in retry path");
  GatewayState* gw = pick_gateway_for_retry(wrapped.src, frame->inner_dst);
  if (gw == nullptr) {
    // No gateway can take the frame right now: burn one attempt and back off
    // again.  The retry budget bounds this loop, so a permanently dead
    // bridge ends in a reported loss, never a hang.
    ++unrouted_retries_;
    retry_frame(std::move(wrapped));
    return;
  }
  gw->stats.retries += 1;
  m_retries_.add(1);
  if (frame->last_gateway != hw::kInvalidNode &&
      gw->node != frame->last_gateway) {
    gw->stats.failovers += 1;
    m_failovers_.add(1);
  }
  frame->last_gateway = gw->node;
  wrapped.dst = gw->node;
  const net::Service svc = frame->svc;
  fabric_for_side(side_of(wrapped.src) != Side::Booster)
      .send(std::move(wrapped), svc);
}

std::int64_t BridgedTransport::total_retries() const {
  std::int64_t n = unrouted_retries_;
  for (const auto& gw : gateways_) n += gw.stats.retries;
  return n;
}

std::int64_t BridgedTransport::total_failovers() const {
  std::int64_t n = 0;
  for (const auto& gw : gateways_) n += gw.stats.failovers;
  return n;
}

std::int64_t BridgedTransport::total_timeouts() const {
  std::int64_t n = 0;
  for (const auto& gw : gateways_) n += gw.stats.timeouts;
  return n;
}

void BridgedTransport::send(net::Message msg, net::Service svc) {
  const Side src_side = side_of(msg.src);
  const Side dst_side = side_of(msg.dst);

  // Same side (gateways are reachable from both): direct fabric delivery.
  const bool src_cluster = src_side != Side::Booster;
  const bool dst_cluster = dst_side != Side::Booster;
  if (src_side == Side::Gateway || dst_side == Side::Gateway ||
      src_side == dst_side) {
    // Pick the fabric both endpoints share; prefer the cluster fabric for
    // gateway-involved traffic on the cluster side.
    const bool use_cluster = src_cluster && dst_cluster;
    net::Fabric& fabric = fabric_for_side(use_cluster);
    DEEP_EXPECT(fabric.attached(msg.src) && fabric.attached(msg.dst),
                "BridgedTransport: endpoints not on a common fabric");
    fabric.send(std::move(msg), svc);
    return;
  }

  // Cross-fabric: wrap and route through a gateway on the source side.
  DEEP_EXPECT(!gateways_.empty(),
              "BridgedTransport: cross-fabric send with no gateways");
  // Flatten the inner message into the frame (metadata + wire header as
  // plain fields); its payload rides on the wrapped carrier directly.
  net::Message wrapped;
  wrapped.src = msg.src;
  wrapped.port = net::Port::Cbp;
  wrapped.size_bytes = msg.size_bytes + params_.frame_header_bytes;
  net::CbpFrame frame;
  frame.inner_src = msg.src;
  frame.inner_dst = msg.dst;
  frame.inner_port = msg.port;
  frame.inner_size_bytes = msg.size_bytes;
  if (const auto* wh = net::wire_header(msg)) {
    frame.inner_has_wire = true;
    frame.inner_wire = *wh;
  } else if (const auto* ih = net::io_header(msg)) {
    frame.inner_has_io = true;
    frame.inner_io = *ih;
  }
  frame.svc = svc;
  frame.attempts = 0;
  wrapped.payload = std::move(msg.payload);
  if (num_gateways_up() == 0) {
    // Every gateway is down right now: the frame cannot even start its
    // crossing.  It enters the retry path and waits for a heal; the bounded
    // budget turns a permanent outage into a reported loss, not a hang.
    frame.last_gateway = hw::kInvalidNode;
    wrapped.header = frame;
    retry_frame(std::move(wrapped));
    return;
  }
  GatewayState& gw = pick_gateway(msg.src, msg.dst);
  wrapped.dst = gw.node;
  frame.last_gateway = gw.node;
  wrapped.header = frame;
  fabric_for_side(src_side == Side::Cluster).send(std::move(wrapped), svc);
}

void BridgedTransport::forward(GatewayState& gw, net::Message&& wrapped) {
  if (!gw.up) {
    // The frame reached a dead gateway: its SMFU no longer acks, the sender
    // times out and the frame re-enters the retry path.
    gw.stats.timeouts += 1;
    m_timeouts_.add(1);
    retry_frame(std::move(wrapped));
    return;
  }
  auto* frame = net::cbp_frame(wrapped);
  DEEP_EXPECT(frame != nullptr, "CBP: malformed frame at gateway");
  const net::Service svc = frame->svc;
  net::Message inner = unwrap_frame(std::move(wrapped), *frame);

  // SMFU processing: store-and-forward latency + per-byte cost, serialised
  // per gateway.
  const sim::Duration processing =
      params_.smfu_latency +
      sim::from_seconds(static_cast<double>(wrapped.size_bytes) /
                        params_.smfu_bandwidth_bytes_per_sec);
  const sim::TimePoint start = std::max(engine_->now(), gw.smfu_free);
  const sim::TimePoint done = start + processing;
  gw.smfu_free = done;

  gw.stats.forwarded_messages += 1;
  gw.stats.forwarded_bytes += wrapped.size_bytes;
  m_forwarded_.add(1);
  m_forwarded_bytes_.add(wrapped.size_bytes);
  m_smfu_busy_ps_.add(processing.ps);
  m_smfu_wait_ns_.record((start - engine_->now()).ps / 1000);

  const bool dst_on_cluster = side_of(inner.dst) != Side::Booster;
  net::Fabric& out = fabric_for_side(dst_on_cluster);
  // Re-injected with the gateway as the wire-level source so the fabric
  // books contention on the gateway's links; the logical (MPI) source lives
  // in the protocol header.
  // Pooled slot keeps the capture at 24 bytes — inline in the event queue.
  const hw::NodeId gw_node = gw.node;
  engine_->schedule_at(
      done, [&out, gw_node, m = net::PooledMessage(std::move(inner)),
             svc]() mutable {
        net::Message inner = m.take();
        inner.src = gw_node;
        out.send(std::move(inner), svc);
      });
}

}  // namespace deep::cbp
