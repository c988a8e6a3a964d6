#include "mpi/system.hpp"

#include "mpi/endpoint.hpp"
#include "util/error.hpp"

namespace deep::mpi {

MpiSystem::MpiSystem(sim::Engine& engine, cbp::Transport& transport,
                     MpiParams params)
    : engine_(&engine), transport_(&transport), params_(params) {
  DEEP_EXPECT(params_.eager_threshold >= 0,
              "MpiSystem: negative eager threshold");
  DEEP_EXPECT(params_.header_bytes >= 0, "MpiSystem: negative header size");
  transport_->set_loss_handler(
      [this](net::Message&& msg) { handle_loss(std::move(msg)); });
  obs::Registry& m = engine_->metrics();
  metrics_.eager_sends = m.counter("mpi.eager_sends");
  metrics_.rendezvous_sends = m.counter("mpi.rendezvous_sends");
  metrics_.messages_lost = m.counter("mpi.messages_lost");
  metrics_.msg_bytes = m.histogram("mpi.msg_bytes");
  metrics_.wait_ns = m.histogram("mpi.wait_ns");
}

MpiSystem::~MpiSystem() = default;

void MpiSystem::EndpointTable::put(EpId id, std::shared_ptr<Endpoint> ep) {
  const std::size_t c = static_cast<std::size_t>(id) >> kChunkBits;
  DEEP_EXPECT(c < kMaxChunks, "MpiSystem: endpoint id space exhausted");
  Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[c].store(chunk, std::memory_order_release);
  }
  chunk->slots[static_cast<std::size_t>(id) & (kChunkSize - 1)] =
      std::move(ep);
}

const std::shared_ptr<Endpoint>* MpiSystem::EndpointTable::find(
    EpId id) const {
  const std::size_t c = static_cast<std::size_t>(id) >> kChunkBits;
  if (c >= kMaxChunks) return nullptr;
  const Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  const std::shared_ptr<Endpoint>& slot =
      chunk->slots[static_cast<std::size_t>(id) & (kChunkSize - 1)];
  return slot ? &slot : nullptr;
}

Endpoint& MpiSystem::create_endpoint(hw::NodeId node) {
  DEEP_EXPECT(engine_->current_partition() == 0,
              "MpiSystem::create_endpoint: worlds are created on partition 0 "
              "(the launcher / cluster-side spawn root)");
  const EpId id = next_ep_++;
  auto ep = std::make_shared<Endpoint>(*this, id, node);
  Endpoint& ref = *ep;
  endpoints_.put(id, std::move(ep));

  auto [it, first_on_node] = by_node_.try_emplace(node);
  it->second.push_back(&ref);
  if (first_on_node) {
    // Demux arriving MPI messages to the right endpoint on this node.
    transport_->home_nic(node).bind(
        net::Port::Mpi, [this](net::Message&& msg) {
          auto* header = net::wire_header(msg);
          DEEP_EXPECT(header != nullptr, "MpiSystem: malformed MPI message");
          endpoint(header->dst_ep).on_message(std::move(msg));
        });
  }
  return ref;
}

Endpoint& MpiSystem::endpoint(EpId id) {
  const auto* slot = endpoints_.find(id);
  DEEP_EXPECT(slot != nullptr, "MpiSystem: unknown endpoint");
  return **slot;
}

std::shared_ptr<Endpoint> MpiSystem::endpoint_ptr(EpId id) {
  const auto* slot = endpoints_.find(id);
  DEEP_EXPECT(slot != nullptr, "MpiSystem: unknown endpoint");
  return *slot;
}

void MpiSystem::route(net::Message msg, net::Service svc) {
  transport_->send(std::move(msg), svc);
}

void MpiSystem::handle_loss(net::Message&& msg) {
  auto* h = net::wire_header(msg);
  if (h == nullptr) return;  // not an MPI protocol message
  metrics_.messages_lost.add(1);

  // The destination endpoint will never see this sequence number; punch the
  // hole so later messages of the flow are not parked behind it forever.
  Endpoint& dst = endpoint(h->dst_ep);
  dst.note_lost_seq(h->src_ep, h->seq);

  switch (h->kind) {
    case MsgKind::Eager:
      dst.fail_recv(*h);
      return;
    case MsgKind::Rts:
      // The receiver never learns of the send; the sender's rendezvous is
      // stuck waiting for a CTS that cannot come.
      endpoint(h->src_ep).fail_pending_send(h->op);
      dst.fail_recv(*h);
      return;
    case MsgKind::Cts:
      // CTS travels receiver -> sender: dst is the sender (pending send),
      // src the receiver (pending recv keyed by the sender's endpoint).
      dst.fail_pending_send(h->op);
      endpoint(h->src_ep).fail_pending_recv(h->dst_ep, h->op);
      return;
    case MsgKind::RData:
      dst.fail_pending_recv(h->src_ep, h->op);
      return;
    case MsgKind::Put:
    case MsgKind::Accum:
      endpoint(h->src_ep).fail_put();
      return;
    case MsgKind::PutAck:
      dst.fail_put();
      return;
    case MsgKind::GetReq:
      endpoint(h->src_ep).fail_pending_get(h->op);
      return;
    case MsgKind::GetResp:
      dst.fail_pending_get(h->op);
      return;
  }
}

ContextId MpiSystem::context_block(std::uint64_t key_a, std::uint64_t key_b) {
  if (engine_->partitions() > 1) {
    // Pure function of the collective's identity: ranks on different
    // partitions compute the same block with no shared mutation.  The block
    // lives in the top half of the 64-bit context space (bit 63 set, stride
    // aligned), disjoint from the sequential allocator below; 2^53 possible
    // blocks make collisions across a run's collectives negligible.
    std::uint64_t h = key_a * 0x9E3779B97F4A7C15ULL;
    h ^= key_b + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return (std::uint64_t{1} << 63) | ((h >> 11) * kContextStride);
  }
  auto [it, inserted] = context_memo_.try_emplace({key_a, key_b}, 0);
  if (inserted) {
    it->second = next_context_;
    next_context_ += kContextStride;
  }
  return it->second;
}

ContextId MpiSystem::fresh_context_block() {
  DEEP_EXPECT(engine_->current_partition() == 0,
              "MpiSystem::fresh_context_block: confined to partition 0");
  const ContextId base = next_context_;
  next_context_ += kContextStride;
  DEEP_ASSERT(next_context_ < (std::uint64_t{1} << 62),
              "MpiSystem: sequential context space exhausted");
  return base;
}

MpiSystem::World MpiSystem::create_world(const std::vector<hw::NodeId>& nodes) {
  DEEP_EXPECT(!nodes.empty(), "create_world: empty node list");
  auto group = std::make_shared<GroupInfo>();
  group->members.reserve(nodes.size());
  for (const hw::NodeId node : nodes) {
    Endpoint& ep = create_endpoint(node);
    group->members.push_back(EpAddr{ep.id(), node});
  }
  const ContextId base = fresh_context_block();
  return World{std::move(group), base, base + 1};
}

const SpawnResult& MpiSystem::spawn_collective(const SpawnRequest& request) {
  DEEP_EXPECT(engine_->current_partition() == 0,
              "MpiSystem::spawn_collective: spawning ranks must live on "
              "partition 0 (the cluster side)");
  const auto key = std::pair{request.parent_context, request.epoch};
  auto it = spawn_memo_.find(key);
  if (it == spawn_memo_.end()) {
    DEEP_EXPECT(static_cast<bool>(spawner_),
                "MpiSystem: no spawner installed (system layer missing)");
    it = spawn_memo_.emplace(key, spawner_(request)).first;
  }
  return it->second;
}

}  // namespace deep::mpi
