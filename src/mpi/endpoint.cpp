#include "mpi/endpoint.hpp"

#include <algorithm>
#include <cstring>

#include "mpi/system.hpp"
#include "util/error.hpp"

namespace deep::mpi {

namespace {

// Hot-path payload copy into a recycled pool buffer (net/pool.hpp).
net::Payload copy_to_payload(std::span<const std::byte> bytes) {
  return net::copy_payload(bytes);
}

}  // namespace

Endpoint::Endpoint(MpiSystem& system, EpId id, hw::NodeId node)
    : system_(&system), id_(id), node_(node) {}

Endpoint::Flow& Endpoint::flow(EpId peer) {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), peer,
      [](const Flow& f, EpId p) { return f.peer < p; });
  if (it != flows_.end() && it->peer == peer) return *it;
  return *flows_.insert(it, Flow{peer});
}

RequestPtr Endpoint::start_send(const EpAddr& dst, ContextId context,
                                Rank src_rank, Tag tag,
                                std::span<const std::byte> bytes) {
  auto request = RequestPtr::make();
  request->waiter = owner_;
  request->op = "isend";
  request->tag = tag;

  WireHeader h;
  h.context = context;
  h.src_rank = src_rank;
  h.tag = tag;
  h.bytes = static_cast<std::int64_t>(bytes.size());
  h.src_ep = id_;
  h.dst_ep = dst.ep;
  h.seq = next_seq_to(dst.ep);

  const auto& p = system_->params();
  net::Message msg;
  msg.src = node_;
  msg.dst = dst.node;
  msg.port = net::Port::Mpi;
  system_->metrics().msg_bytes.record(h.bytes);

  if (h.bytes <= p.eager_threshold) {
    // Eager: one message, data inline, locally complete at injection.
    system_->metrics().eager_sends.add(1);
    h.kind = MsgKind::Eager;
    msg.size_bytes = h.bytes + p.header_bytes;
    msg.header = h;
    msg.payload = copy_to_payload(bytes);
    system_->route(std::move(msg), net::Service::Small);
    complete(request, src_rank, tag, h.bytes);
  } else {
    // Rendezvous: RTS now, bulk data after CTS.
    system_->metrics().rendezvous_sends.add(1);
    h.kind = MsgKind::Rts;
    h.op = next_op_++;
    msg.size_bytes = p.header_bytes;
    msg.header = h;
    system_->route(std::move(msg), net::Service::Control);

    WireHeader dh = h;
    dh.kind = MsgKind::RData;
    dh.seq = 0;  // assigned when the data message is sent
    pending_sends_.emplace(
        h.op, PendingSend{dh, dst, copy_to_payload(bytes), request});
  }
  return request;
}

RequestPtr Endpoint::post_recv(ContextId context, Rank src, Tag tag,
                               std::span<std::byte> buffer) {
  auto request = RequestPtr::make();
  request->waiter = owner_;
  request->op = "irecv";
  request->peer = src;
  request->tag = tag;
  PostedRecv posted{context, src, tag, buffer, request};

  // First try the unexpected queue (earliest arrival first).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(posted, it->header)) continue;
    UnexpectedMsg msg = unexpected_.take(it);
    if (msg.header.kind == MsgKind::Eager) {
      accept_into(posted, msg.header, msg.payload);
    } else {  // RTS: register the pending bulk recv, answer with CTS
      pending_recvs_[{msg.header.src_ep, msg.header.op}] =
          PendingRecv{buffer, request};
      send_cts(msg.header);
    }
    return request;
  }

  // Then the dead letters: a matching send was already reported lost, so the
  // receive can never be satisfied — error-complete it right away.
  for (auto it = dead_letters_.begin(); it != dead_letters_.end(); ++it) {
    if (!matches(posted, *it)) continue;
    const WireHeader h = dead_letters_.take(it);
    complete_error(request, ErrCode::MessageLost, h.src_rank, h.tag);
    return request;
  }

  posted_.push_back(std::move(posted));
  return request;
}

std::optional<Status> Endpoint::probe_unexpected(ContextId context, Rank src,
                                                 Tag tag) const {
  for (const UnexpectedMsg& msg : unexpected_) {
    const WireHeader& h = msg.header;
    if (h.context == context && (src == kAnySource || src == h.src_rank) &&
        (tag == kAnyTag || tag == h.tag)) {
      return Status{h.src_rank, h.tag, h.bytes};
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// One-sided (RMA engine)
// ---------------------------------------------------------------------------

void Endpoint::detach_owner() {
  owner_ = nullptr;
  detached_ = true;
  // Requests still referenced here must never wake the dead process.
  for (auto& posted : posted_) {
    if (posted.request) posted.request->waiter = nullptr;
  }
  posted_.clear();
  for (auto& [key, pending] : pending_recvs_) {
    if (pending.request) pending.request->waiter = nullptr;
  }
  pending_recvs_.clear();
  for (auto& [op, get] : pending_gets_) {
    if (get.request) get.request->waiter = nullptr;
  }
  pending_gets_.clear();
  // In-flight rendezvous sends keep their (endpoint-owned) payload so the
  // protocol can still finish, but nobody is left to wake.
  for (auto& [op, send] : pending_sends_) {
    if (send.request) send.request->waiter = nullptr;
  }
  windows_.clear();
}

void Endpoint::expose_window(std::uint64_t win, std::span<std::byte> region) {
  DEEP_EXPECT(windows_.try_emplace(win, region).second,
              "Endpoint: window id already exposed");
}

void Endpoint::close_window(std::uint64_t win) {
  DEEP_EXPECT(windows_.erase(win) == 1, "Endpoint: closing unknown window");
}

std::span<std::byte> Endpoint::window_slice(std::uint64_t win,
                                            std::int64_t offset,
                                            std::int64_t bytes) {
  auto it = windows_.find(win);
  DEEP_EXPECT(it != windows_.end(),
              "RMA: target window is not exposed on this rank");
  DEEP_EXPECT(offset >= 0 && bytes >= 0 &&
                  offset + bytes <= static_cast<std::int64_t>(it->second.size()),
              "RMA: access outside the window");
  return it->second.subspan(static_cast<std::size_t>(offset),
                            static_cast<std::size_t>(bytes));
}

RequestPtr Endpoint::start_put(const EpAddr& dst, std::uint64_t win,
                               std::int64_t offset,
                               std::span<const std::byte> data) {
  auto request = RequestPtr::make();
  request->waiter = owner_;
  request->op = "put";
  const auto& p = system_->params();

  WireHeader h;
  h.kind = MsgKind::Put;
  h.bytes = static_cast<std::int64_t>(data.size());
  h.src_ep = id_;
  h.dst_ep = dst.ep;
  h.op = next_op_++;
  h.window = win;
  h.offset = offset;
  h.seq = next_seq_to(dst.ep);

  net::Message msg;
  msg.src = node_;
  msg.dst = dst.node;
  msg.port = net::Port::Mpi;
  msg.size_bytes = h.bytes + p.header_bytes;
  msg.header = h;
  msg.payload = copy_to_payload(data);
  system_->route(std::move(msg),
                 h.bytes <= p.eager_threshold ? net::Service::Small
                                              : net::Service::Bulk);
  ++outstanding_puts_;
  // Local completion: the origin buffer is reusable immediately (we copied).
  complete(request, kAnySource, kAnyTag, h.bytes);
  return request;
}

RequestPtr Endpoint::start_accumulate(const EpAddr& dst, std::uint64_t win,
                                      std::int64_t offset,
                                      std::span<const std::byte> data, Op op,
                                      std::uint8_t dtype) {
  auto request = RequestPtr::make();
  request->waiter = owner_;
  request->op = "accumulate";
  const auto& p = system_->params();

  WireHeader h;
  h.kind = MsgKind::Accum;
  h.bytes = static_cast<std::int64_t>(data.size());
  h.src_ep = id_;
  h.dst_ep = dst.ep;
  h.op = next_op_++;
  h.window = win;
  h.offset = offset;
  h.accum_op = op;
  h.accum_dtype = dtype;
  h.seq = next_seq_to(dst.ep);

  net::Message msg;
  msg.src = node_;
  msg.dst = dst.node;
  msg.port = net::Port::Mpi;
  msg.size_bytes = h.bytes + p.header_bytes;
  msg.header = h;
  msg.payload = copy_to_payload(data);
  system_->route(std::move(msg),
                 h.bytes <= p.eager_threshold ? net::Service::Small
                                              : net::Service::Bulk);
  ++outstanding_puts_;  // remote completion acked like a Put
  complete(request, kAnySource, kAnyTag, h.bytes);
  return request;
}

namespace {

template <typename T>
void apply_accumulate(Op op, std::span<std::byte> slice,
                      const net::Payload& payload) {
  auto* dst = reinterpret_cast<T*>(slice.data());
  const auto* src = reinterpret_cast<const T*>(payload->data());
  const std::size_t n = slice.size() / sizeof(T);
  for (std::size_t i = 0; i < n; ++i) dst[i] = apply_op(op, dst[i], src[i]);
}

}  // namespace

void Endpoint::handle_accum(const WireHeader& header,
                            const net::Payload& payload) {
  if (detached_) {  // target rank died: the origin's fence reports the loss
    system_->endpoint(header.src_ep).fail_put();
    return;
  }
  auto slice = window_slice(header.window, header.offset, header.bytes);
  DEEP_ASSERT(payload &&
                  static_cast<std::int64_t>(payload->size()) == header.bytes,
              "RMA: accumulate payload size mismatch");
  switch (header.accum_dtype) {
    case 0:
      DEEP_EXPECT(header.bytes % 8 == 0, "RMA: accumulate size not double[]");
      apply_accumulate<double>(header.accum_op, slice, payload);
      break;
    case 1:
      DEEP_EXPECT(header.bytes % 8 == 0, "RMA: accumulate size not int64[]");
      apply_accumulate<std::int64_t>(header.accum_op, slice, payload);
      break;
    default:
      throw util::SimError("RMA: unknown accumulate dtype");
  }
  // Same remote-completion ack as a Put.
  const auto& p = system_->params();
  WireHeader ack;
  ack.kind = MsgKind::PutAck;
  ack.src_ep = id_;
  ack.dst_ep = header.src_ep;
  ack.seq = next_seq_to(header.src_ep);
  net::Message msg;
  msg.src = node_;
  msg.dst = system_->endpoint(header.src_ep).node();
  msg.port = net::Port::Mpi;
  msg.size_bytes = p.header_bytes;
  msg.header = ack;
  system_->route(std::move(msg), net::Service::Control);
}

RequestPtr Endpoint::start_get(const EpAddr& dst, std::uint64_t win,
                               std::int64_t offset, std::span<std::byte> dest) {
  auto request = RequestPtr::make();
  request->waiter = owner_;
  request->op = "get";
  const auto& p = system_->params();

  WireHeader h;
  h.kind = MsgKind::GetReq;
  h.bytes = static_cast<std::int64_t>(dest.size());
  h.src_ep = id_;
  h.dst_ep = dst.ep;
  h.op = next_op_++;
  h.window = win;
  h.offset = offset;
  h.seq = next_seq_to(dst.ep);
  pending_gets_.emplace(h.op, PendingGet{dest, request});

  net::Message msg;
  msg.src = node_;
  msg.dst = dst.node;
  msg.port = net::Port::Mpi;
  msg.size_bytes = p.header_bytes;
  msg.header = h;
  system_->route(std::move(msg), net::Service::Control);
  return request;
}

void Endpoint::handle_put(const WireHeader& header, const net::Payload& payload) {
  if (detached_) {  // target rank died: the origin's fence reports the loss
    system_->endpoint(header.src_ep).fail_put();
    return;
  }
  auto slice = window_slice(header.window, header.offset, header.bytes);
  if (header.bytes > 0) {
    DEEP_ASSERT(payload &&
                    static_cast<std::int64_t>(payload->size()) == header.bytes,
                "RMA: put payload size mismatch");
    std::memcpy(slice.data(), payload->data(),
                static_cast<std::size_t>(header.bytes));
  }
  // Acknowledge remote completion to the origin.
  const auto& p = system_->params();
  WireHeader ack;
  ack.kind = MsgKind::PutAck;
  ack.src_ep = id_;
  ack.dst_ep = header.src_ep;
  ack.seq = next_seq_to(header.src_ep);
  net::Message msg;
  msg.src = node_;
  msg.dst = system_->endpoint(header.src_ep).node();
  msg.port = net::Port::Mpi;
  msg.size_bytes = p.header_bytes;
  msg.header = ack;
  system_->route(std::move(msg), net::Service::Control);
}

void Endpoint::handle_put_ack() {
  DEEP_ASSERT(outstanding_puts_ > 0, "RMA: unexpected PutAck");
  --outstanding_puts_;
  if (owner_ != nullptr) owner_->wake();  // a fence may be waiting
}

void Endpoint::handle_get_req(const WireHeader& header) {
  if (detached_) {  // target rank died: error-complete the origin's get
    system_->endpoint(header.src_ep).fail_pending_get(header.op);
    return;
  }
  auto slice = window_slice(header.window, header.offset, header.bytes);
  const auto& p = system_->params();
  WireHeader resp;
  resp.kind = MsgKind::GetResp;
  resp.bytes = header.bytes;
  resp.src_ep = id_;
  resp.dst_ep = header.src_ep;
  resp.op = header.op;
  resp.seq = next_seq_to(header.src_ep);
  net::Message msg;
  msg.src = node_;
  msg.dst = system_->endpoint(header.src_ep).node();
  msg.port = net::Port::Mpi;
  msg.size_bytes = header.bytes + p.header_bytes;
  msg.header = resp;
  msg.payload = copy_to_payload(std::span<const std::byte>(slice));
  system_->route(std::move(msg),
                 header.bytes <= p.eager_threshold ? net::Service::Small
                                                   : net::Service::Bulk);
}

void Endpoint::handle_get_resp(const WireHeader& header,
                               const net::Payload& payload) {
  auto it = pending_gets_.find(header.op);
  if (it == pending_gets_.end()) {
    DEEP_ASSERT(detached_, "RMA: response without pending get");
    return;  // origin died before the response arrived: drop it
  }
  PendingGet pending = std::move(it->second);
  pending_gets_.erase(it);
  DEEP_EXPECT(header.bytes == static_cast<std::int64_t>(pending.dest.size()),
              "RMA: get response size mismatch");
  if (header.bytes > 0) {
    DEEP_ASSERT(payload &&
                    static_cast<std::int64_t>(payload->size()) == header.bytes,
                "RMA: get payload size mismatch");
    std::memcpy(pending.dest.data(), payload->data(),
                static_cast<std::size_t>(header.bytes));
  }
  complete(pending.request, kAnySource, kAnyTag, header.bytes);
}

void Endpoint::on_message(net::Message&& msg) {
  auto* header = net::wire_header(msg);
  DEEP_EXPECT(header != nullptr, "Endpoint: malformed MPI wire message");
  DEEP_ASSERT(header->dst_ep == id_, "Endpoint: misrouted message");

  // Restore per-flow ordering (the CBP round-robin path may reorder).
  std::uint64_t& expected = flow(header->src_ep).seq_in;
  if (header->seq != expected) {
    DEEP_ASSERT(header->seq > expected, "Endpoint: duplicate sequence number");
    reorder_[header->src_ep].emplace(
        header->seq, UnexpectedMsg{*header, std::move(msg.payload)});
    ++parked_total_;
    ++lifetime_parked_;
    return;
  }
  ++expected;
  const EpId src_ep = header->src_ep;
  process_in_order(std::move(*header), std::move(msg.payload));
  drain_reorder(src_ep);
}

void Endpoint::drain_reorder(EpId src_ep) {
  // Consume directly-following parked messages and lost-sequence holes until
  // the flow blocks on a number that is still genuinely in flight.
  if (parked_total_ == 0 && lost_seqs_.empty()) return;
  for (;;) {
    // Re-read each round: process_in_order may grow flows_.
    std::uint64_t& exp = flow(src_ep).seq_in;
    auto it = reorder_.find(src_ep);
    if (it != reorder_.end() && !it->second.empty() &&
        it->second.begin()->first == exp) {
      UnexpectedMsg next = std::move(it->second.begin()->second);
      it->second.erase(it->second.begin());
      --parked_total_;
      if (it->second.empty()) reorder_.erase(it);
      ++exp;
      process_in_order(std::move(next.header), std::move(next.payload));
      continue;
    }
    auto lost = lost_seqs_.find(src_ep);
    if (lost != lost_seqs_.end() && lost->second.contains(exp)) {
      lost->second.erase(exp);
      if (lost->second.empty()) lost_seqs_.erase(lost);
      ++exp;
      continue;
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// Loss recovery
// ---------------------------------------------------------------------------

void Endpoint::note_lost_seq(EpId src_ep, std::uint64_t seq) {
  std::uint64_t& expected = flow(src_ep).seq_in;
  if (seq == expected) {
    ++expected;
    drain_reorder(src_ep);
    return;
  }
  DEEP_ASSERT(seq > expected, "Endpoint: lost sequence already consumed");
  lost_seqs_[src_ep].insert(seq);
}

void Endpoint::fail_recv(const WireHeader& header) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (!matches(*it, header)) continue;
    PostedRecv posted = posted_.take(it);
    complete_error(posted.request, ErrCode::MessageLost, header.src_rank,
                   header.tag);
    return;
  }
  dead_letters_.push_back(header);
  if (owner_ != nullptr) owner_->wake();
}

void Endpoint::fail_pending_send(std::uint64_t op) {
  auto it = pending_sends_.find(op);
  if (it == pending_sends_.end()) return;  // already completed
  PendingSend pending = std::move(it->second);
  pending_sends_.erase(it);
  complete_error(pending.request, ErrCode::MessageLost,
                 pending.data_header.src_rank, pending.data_header.tag);
}

void Endpoint::fail_pending_recv(EpId src_ep, std::uint64_t op) {
  auto it = pending_recvs_.find({src_ep, op});
  if (it == pending_recvs_.end()) return;
  PendingRecv pending = std::move(it->second);
  pending_recvs_.erase(it);
  complete_error(pending.request, ErrCode::MessageLost);
}

void Endpoint::fail_pending_get(std::uint64_t op) {
  auto it = pending_gets_.find(op);
  if (it == pending_gets_.end()) return;
  PendingGet pending = std::move(it->second);
  pending_gets_.erase(it);
  complete_error(pending.request, ErrCode::MessageLost);
}

void Endpoint::fail_put() {
  DEEP_ASSERT(outstanding_puts_ > 0,
              "Endpoint: put failure without outstanding put");
  --outstanding_puts_;
  ++put_failures_;
  if (owner_ != nullptr) owner_->wake();  // a fence may be waiting
}

void Endpoint::complete_error(const RequestPtr& request, ErrCode code,
                              Rank source, Tag tag) {
  request->status = Status{source, tag, 0};
  request->error = code;
  request->done = true;
  if (request->waiter != nullptr) request->waiter->wake();
}

void Endpoint::process_in_order(WireHeader&& header, net::Payload&& payload) {
  switch (header.kind) {
    case MsgKind::Eager:
    case MsgKind::Rts:
      handle_eager_or_rts(std::move(header), std::move(payload));
      return;
    case MsgKind::Cts:
      handle_cts(header);
      return;
    case MsgKind::RData:
      handle_rdata(std::move(header), std::move(payload));
      return;
    case MsgKind::Put:
      handle_put(header, payload);
      return;
    case MsgKind::Accum:
      handle_accum(header, payload);
      return;
    case MsgKind::PutAck:
      handle_put_ack();
      return;
    case MsgKind::GetReq:
      handle_get_req(header);
      return;
    case MsgKind::GetResp:
      handle_get_resp(header, payload);
      return;
  }
  throw util::SimError("Endpoint: unknown message kind");
}

void Endpoint::handle_eager_or_rts(WireHeader&& header, net::Payload&& payload) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (!matches(*it, header)) continue;
    PostedRecv posted = posted_.take(it);
    if (header.kind == MsgKind::Eager) {
      accept_into(posted, header, payload);
    } else {
      pending_recvs_[{header.src_ep, header.op}] =
          PendingRecv{posted.buffer, posted.request};
      send_cts(header);
    }
    return;
  }
  unexpected_.push_back(UnexpectedMsg{header, std::move(payload)});
  // A blocking probe may be waiting for exactly this arrival.
  if (owner_ != nullptr) owner_->wake();
}

void Endpoint::handle_cts(const WireHeader& header) {
  auto it = pending_sends_.find(header.op);
  DEEP_ASSERT(it != pending_sends_.end(), "Endpoint: CTS without pending send");
  PendingSend pending = std::move(it->second);
  pending_sends_.erase(it);

  const auto& p = system_->params();
  net::Message msg;
  msg.src = node_;
  msg.dst = pending.dst.node;
  msg.port = net::Port::Mpi;
  msg.size_bytes = pending.data_header.bytes + p.header_bytes;
  pending.data_header.seq = next_seq_to(pending.dst.ep);
  msg.header = pending.data_header;
  msg.payload = std::move(pending.payload);
  system_->route(std::move(msg), net::Service::Bulk);

  // Local completion: the data left our buffer.
  complete(pending.request, pending.data_header.src_rank,
           pending.data_header.tag, pending.data_header.bytes);
}

void Endpoint::handle_rdata(WireHeader&& header, net::Payload&& payload) {
  auto it = pending_recvs_.find({header.src_ep, header.op});
  if (it == pending_recvs_.end()) {
    DEEP_ASSERT(detached_, "Endpoint: rendezvous data without pending recv");
    return;  // receiver died after sending CTS: drop the data
  }
  PendingRecv pending = std::move(it->second);
  pending_recvs_.erase(it);

  DEEP_EXPECT(payload && static_cast<std::int64_t>(payload->size()) == header.bytes,
              "Endpoint: rendezvous payload size mismatch");
  DEEP_EXPECT(header.bytes <= static_cast<std::int64_t>(pending.buffer.size()),
              "Endpoint: message truncated (buffer too small)");
  std::memcpy(pending.buffer.data(), payload->data(),
              static_cast<std::size_t>(header.bytes));
  complete(pending.request, header.src_rank, header.tag, header.bytes);
}

void Endpoint::accept_into(const PostedRecv& posted, const WireHeader& header,
                           const net::Payload& payload) {
  DEEP_EXPECT(header.bytes <= static_cast<std::int64_t>(posted.buffer.size()),
              "Endpoint: message truncated (buffer too small)");
  if (header.bytes > 0) {
    DEEP_ASSERT(payload && static_cast<std::int64_t>(payload->size()) ==
                               header.bytes,
                "Endpoint: eager payload size mismatch");
    std::memcpy(posted.buffer.data(), payload->data(),
                static_cast<std::size_t>(header.bytes));
  }
  complete(posted.request, header.src_rank, header.tag, header.bytes);
}

void Endpoint::send_cts(const WireHeader& rts) {
  const auto& p = system_->params();
  WireHeader h;
  h.kind = MsgKind::Cts;
  h.context = rts.context;
  h.src_rank = rts.src_rank;  // echoed back; unused for matching
  h.tag = rts.tag;
  h.bytes = 0;
  h.src_ep = id_;
  h.dst_ep = rts.src_ep;
  h.op = rts.op;
  h.seq = next_seq_to(rts.src_ep);

  net::Message msg;
  msg.src = node_;
  // The peer's node: endpoints are resolvable through the system registry.
  msg.dst = system_->endpoint(rts.src_ep).node();
  msg.port = net::Port::Mpi;
  msg.size_bytes = p.header_bytes;
  msg.header = h;
  system_->route(std::move(msg), net::Service::Control);
}

void Endpoint::complete(const RequestPtr& request, Rank source, Tag tag,
                        std::int64_t bytes) {
  request->status = Status{source, tag, bytes};
  request->done = true;
  if (request->waiter != nullptr) request->waiter->wake();
}

}  // namespace deep::mpi
