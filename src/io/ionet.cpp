#include "io/ionet.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hw/node.hpp"
#include "hw/nvm.hpp"
#include "util/error.hpp"

namespace deep::io {

namespace {

// The deadlock-report note of a process waiting on I/O.  IoNet::wait never
// clears it, so the note outlives the wait: its subject is static.
constexpr const char* kIoWaitNote = "io.wait";
std::string note_text(const char* const& text) { return text; }

}  // namespace

IoNet::IoNet(sim::Engine& engine, cbp::Transport& transport, IoParams params)
    : engine_(&engine), transport_(&transport), params_(params) {
  DEEP_EXPECT(params_.max_attempts >= 1, "IoNet: max_attempts must be >= 1");
  DEEP_EXPECT(params_.timeout.ps > 0, "IoNet: timeout must be positive");
  DEEP_EXPECT(params_.backoff_factor >= 1.0,
              "IoNet: backoff factor must be >= 1");
  if (obs::Registry* reg = engine_->metrics()) {
    m_requests_ = reg->counter("io.requests");
    m_retries_ = reg->counter("io.retries");
    m_failures_ = reg->counter("io.failures");
    m_bytes_ = reg->counter("io.bytes");
    m_op_ns_ = reg->histogram("io.op_ns");
  }
}

void IoNet::attach(net::Nic& nic) {
  nic.rebind(net::Port::Io, [this](net::Message&& msg) {
    on_message(std::move(msg));
  });
}

IoNet::OpHandle IoNet::issue(sim::Context& ctx, hw::NodeId self,
                             hw::NodeId target, OpKind kind,
                             std::int64_t fwd_bytes,
                             std::int64_t reply_bytes) {
  DEEP_EXPECT(self != hw::kInvalidNode && target != hw::kInvalidNode,
              "IoNet::issue: invalid endpoint");
  DEEP_EXPECT(fwd_bytes >= 0 && reply_bytes >= 0,
              "IoNet::issue: negative byte count");
  const std::uint64_t id = next_op_++;
  PendingOp& op = pending_[id];
  op.self = self;
  op.target = target;
  op.kind = kind;
  op.fwd_bytes = fwd_bytes;
  op.reply_bytes = reply_bytes;
  op.issued_at = ctx.now();
  op.waiter = &ctx.process();
  op.attempts = 1;
  send_request(id, op);
  arm_timeout(id, 1);
  return OpHandle{id};
}

bool IoNet::wait(sim::Context& ctx, OpHandle handle) {
  auto it = pending_.find(handle.id);
  DEEP_EXPECT(it != pending_.end(), "IoNet::wait: unknown operation");
  DEEP_EXPECT(it->second.waiter == &ctx.process(),
              "IoNet::wait: operation belongs to another process");
  while (!it->second.done) {
    ctx.process().set_block_note<&note_text>(kIoWaitNote);
    ctx.suspend();
  }
  const bool ok = it->second.ok;
  m_op_ns_.record((ctx.now() - it->second.issued_at).ps / 1000);
  pending_.erase(it);
  return ok;
}

void IoNet::send_request(std::uint64_t id, const PendingOp& op) {
  net::IoHeader hdr;
  hdr.op = id;
  hdr.requester = op.self;
  hdr.kind = static_cast<std::uint8_t>(op.kind);
  hdr.reply = false;
  hdr.reply_bytes = op.reply_bytes;
  net::Message msg;
  msg.src = op.self;
  msg.dst = op.target;
  msg.port = net::Port::Io;
  msg.size_bytes = params_.header_bytes + op.fwd_bytes;
  msg.header = hdr;
  ++requests_;
  m_requests_.inc();
  m_bytes_.add(op.fwd_bytes);
  transport_->send(std::move(msg), net::Service::Bulk);
}

void IoNet::arm_timeout(std::uint64_t id, int attempt) {
  const double scale =
      std::pow(params_.backoff_factor, static_cast<double>(attempt - 1));
  const sim::Duration wait{static_cast<std::int64_t>(
      static_cast<double>(params_.timeout.ps) * scale)};
  engine_->schedule_in(wait, [this, id, attempt] { on_timeout(id, attempt); });
}

void IoNet::on_timeout(std::uint64_t id, int attempt) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // completed and reaped
  PendingOp& op = it->second;
  if (op.done || op.attempts != attempt) return;  // completed or resent since
  if (op.attempts >= params_.max_attempts) {
    op.done = true;
    op.ok = false;
    ++failures_;
    m_failures_.inc();
    if (op.waiter) op.waiter->wake();
    return;
  }
  ++op.attempts;
  ++retries_;
  m_retries_.inc();
  send_request(id, op);
  arm_timeout(id, op.attempts);
}

void IoNet::on_message(net::Message&& msg) {
  const net::IoHeader* hdr = net::io_header(msg);
  DEEP_EXPECT(hdr != nullptr, "IoNet: Io message without an IoHeader");
  if (!hdr->reply) {
    // Request arriving at the target (msg.dst).  Service it — a modelled
    // storage-device delay — then reply.  A duplicate request (the original
    // raced its timeout) is serviced again: repeated device work is the
    // honest cost of an end-to-end retry; the requester ignores the
    // duplicate completion.
    const std::int64_t data_bytes =
        std::max(msg.size_bytes - params_.header_bytes, hdr->reply_bytes);
    const OpKind kind = static_cast<OpKind>(hdr->kind);
    const sim::Duration service =
        service_cost_ ? service_cost_(kind, msg.dst, data_bytes)
                      : sim::Duration{};
    net::IoHeader ack = *hdr;
    ack.reply = true;
    net::Message reply;
    reply.src = msg.dst;
    reply.dst = hdr->requester;
    reply.port = net::Port::Io;
    reply.size_bytes = params_.header_bytes + hdr->reply_bytes;
    reply.header = ack;
    if (service.ps > 0) {
      engine_->schedule_in(service, [this, reply = std::move(reply)]() mutable {
        transport_->send(std::move(reply), net::Service::Bulk);
      });
    } else {
      transport_->send(std::move(reply), net::Service::Bulk);
    }
    return;
  }
  // Completion arriving back at the requester.
  auto it = pending_.find(hdr->op);
  if (it == pending_.end() || it->second.done) return;  // stale duplicate
  PendingOp& op = it->second;
  op.done = true;
  op.ok = true;
  ++replies_;
  m_bytes_.add(op.reply_bytes);
  if (op.waiter) op.waiter->wake();
}

void install_nvm_service(IoNet& net,
                         std::function<hw::Node*(hw::NodeId)> node_of) {
  net.set_service_cost([&net, node_of = std::move(node_of)](
                           OpKind kind, hw::NodeId target,
                           std::int64_t data_bytes) {
    hw::Node* node = node_of(target);
    if (node == nullptr) return sim::Duration{};
    hw::NvmDevice* nvm = node->nvm();
    if (nvm == nullptr) return sim::Duration{};
    const bool write = kind == OpKind::FsWrite || kind == OpKind::BuddyWrite;
    const sim::TimePoint now = net.engine().now();
    return nvm->reserve(now, data_bytes, write) - now;
  });
}

}  // namespace deep::io
