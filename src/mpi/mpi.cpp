#include "mpi/mpi.hpp"

#include <algorithm>
#include <map>

namespace deep::mpi {

Mpi::Mpi(MpiSystem& system, sim::Context& ctx, hw::Node& node,
         const MpiSystem::World& world, Rank rank,
         std::optional<Intercomm> parent)
    : system_(&system),
      ctx_(&ctx),
      node_(&node),
      parent_(std::move(parent)) {
  DEEP_EXPECT(rank >= 0 && rank < world.group->size(),
              "Mpi: rank outside its world");
  auto state = std::make_shared<CommState>();
  state->ctx_p2p = world.ctx_p2p;
  state->ctx_coll = world.ctx_coll;
  state->group = world.group;
  state->rank = rank;
  world_ = Comm(std::move(state));
  const EpId ep = world.group->members[static_cast<std::size_t>(rank)].ep;
  const std::shared_ptr<Endpoint> endpoint = system.endpoint_ptr(ep);
  endpoint_ = endpoint.get();
  endpoint_ref_ = endpoint;
  endpoint_->set_owner(&ctx.process());
  // Per-rank wait-time distribution, keyed by endpoint id (stable across
  // replays: endpoint ids are allocated in deterministic creation order).
  m_wait_ns_ = system.engine().metrics().histogram(
      "mpi.wait_ns.ep" + std::to_string(ep));
}

Mpi::~Mpi() {
  // Quiesce the endpoint: late arrivals must not touch this rank's buffers
  // or wake its (dying) process.  Skipped when the endpoint itself is
  // already gone — rank fibers can unwind during engine teardown, after
  // the MpiSystem that owned the endpoints was destroyed.
  if (auto ep = endpoint_ref_.lock()) ep->detach_owner();
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

RequestPtr Mpi::isend_raw(const EpAddr& dst, ContextId context, Rank src_rank,
                          Tag tag, std::span<const std::byte> data) {
  ctx_->delay(system_->params().send_overhead);
  return endpoint_->start_send(dst, context, src_rank, tag, data);
}

RequestPtr Mpi::irecv_raw(ContextId context, Rank src, Tag tag,
                          std::span<std::byte> buffer) {
  ctx_->delay(system_->params().recv_overhead);
  return endpoint_->post_recv(context, src, tag, buffer);
}

RequestPtr Mpi::isend_bytes(const Comm& comm, Rank dst, Tag tag,
                            std::span<const std::byte> data) {
  DEEP_EXPECT(tag >= 0, "isend: negative tags are reserved for the library");
  auto r = isend_raw(comm.addr_of(dst), comm.state()->ctx_p2p, comm.rank(),
                     tag, data);
  r->peer = dst;
  return r;
}

RequestPtr Mpi::irecv_bytes(const Comm& comm, Rank src, Tag tag,
                            std::span<std::byte> buffer) {
  DEEP_EXPECT(tag >= 0 || tag == kAnyTag,
              "irecv: negative tags are reserved for the library");
  DEEP_EXPECT(src == kAnySource || (src >= 0 && src < comm.size()),
              "irecv: source rank out of range");
  return irecv_raw(comm.state()->ctx_p2p, src, tag, buffer);
}

RequestPtr Mpi::isend_bytes(const Intercomm& inter, Rank dst, Tag tag,
                            std::span<const std::byte> data) {
  DEEP_EXPECT(tag >= 0, "isend: negative tags are reserved for the library");
  auto r = isend_raw(inter.remote_addr(dst), inter.state()->context,
                     inter.rank(), tag, data);
  r->peer = dst;
  return r;
}

RequestPtr Mpi::irecv_bytes(const Intercomm& inter, Rank src, Tag tag,
                            std::span<std::byte> buffer) {
  DEEP_EXPECT(tag >= 0 || tag == kAnyTag,
              "irecv: negative tags are reserved for the library");
  DEEP_EXPECT(src == kAnySource || (src >= 0 && src < inter.remote_size()),
              "irecv: remote source rank out of range");
  return irecv_raw(inter.state()->context, src, tag, buffer);
}

namespace {

/// Human-readable description of a request, for deadlock reports and
/// MpiError messages (slow paths only).
std::string describe(const Request& r) {
  std::string s = *r.op != '\0' ? r.op : "request";
  if (r.peer != kAnySource) s += " peer=" + std::to_string(r.peer);
  if (r.tag != kAnyTag) s += " tag=" + std::to_string(r.tag);
  return s;
}

// Block-note formatters (sim::Process::set_block_note): run only when a
// deadlock report reads the note.
std::string wait_note(const Request& r) { return "wait(" + describe(r) + ")"; }

std::string wait_any_note(const std::span<const RequestPtr>& requests) {
  return "wait_any(" + std::to_string(requests.size()) +
         " requests, first: " + describe(*requests[0]) + ")";
}

struct ProbeTarget {
  Rank src;
  Tag tag;
};

std::string probe_note(const ProbeTarget& t) {
  return "probe(src=" + std::to_string(t.src) +
         ", tag=" + std::to_string(t.tag) + ")";
}

std::string fence_note(const std::int64_t& outstanding) {
  return "fence: waiting for remote completion of " +
         std::to_string(outstanding) + " one-sided op(s)";
}

[[noreturn]] void throw_request_error(const Request& r) {
  throw MpiError(r.error, "MPI " + describe(r) +
                              " failed: a message it needed was lost "
                              "(link down or gateway retries exhausted)");
}

}  // namespace

void Mpi::wait(const RequestPtr& request) {
  DEEP_EXPECT(request != nullptr, "wait: null request");
  if (!request->done) {
    sim::Process& self = ctx_->process();
    self.set_block_note<&wait_note>(*request);
    const sim::TimePoint blocked_at = ctx_->now();
    while (!request->done) ctx_->suspend();
    record_wait(blocked_at);
    self.clear_block_note();
  }
  if (request->error != ErrCode::Success) throw_request_error(*request);
}

bool Mpi::test(const RequestPtr& request) const {
  DEEP_EXPECT(request != nullptr, "test: null request");
  return request->done;
}

void Mpi::wait_all(std::span<const RequestPtr> requests) {
  for (const auto& r : requests) wait(r);
}

std::size_t Mpi::wait_any(std::span<const RequestPtr> requests) {
  DEEP_EXPECT(!requests.empty(), "wait_any: empty request list");
  sim::Process& self = ctx_->process();
  bool noted = false;
  sim::TimePoint blocked_at{};
  for (;;) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      DEEP_EXPECT(requests[i] != nullptr, "wait_any: null request");
      if (!requests[i]->done) continue;
      if (noted) {
        record_wait(blocked_at);
        self.clear_block_note();
      }
      if (requests[i]->error != ErrCode::Success)
        throw_request_error(*requests[i]);
      return i;
    }
    if (!noted) {
      self.set_block_note<&wait_any_note>(requests);
      noted = true;
      blocked_at = ctx_->now();
    }
    ctx_->suspend();
  }
}

std::optional<Status> Mpi::iprobe(const Comm& comm, Rank src, Tag tag) {
  return endpoint_->probe_unexpected(comm.state()->ctx_p2p, src, tag);
}

Status Mpi::probe(const Comm& comm, Rank src, Tag tag) {
  sim::Process& self = ctx_->process();
  const ProbeTarget target{src, tag};
  bool noted = false;
  for (;;) {
    if (auto st = iprobe(comm, src, tag)) {
      if (noted) self.clear_block_note();
      return *st;
    }
    if (!noted) {
      self.set_block_note<&probe_note>(target);
      noted = true;
    }
    ctx_->suspend();
  }
}

Status Mpi::sendrecv_bytes(const Comm& comm, Rank dst, Tag stag,
                           std::span<const std::byte> sdata, Rank src,
                           Tag rtag, std::span<std::byte> rbuf) {
  auto rr = irecv_bytes(comm, src, rtag, rbuf);
  auto sr = isend_bytes(comm, dst, stag, sdata);
  wait(sr);
  wait(rr);
  return rr->status;
}

// ---------------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------------

void Mpi::barrier(const Comm& comm) {
  const Tag tag = coll_tags(comm);
  const ContextId ctx = comm.state()->ctx_coll;
  const int n = comm.size();
  const Rank me = comm.rank();
  // Dissemination barrier: log2(n) rounds.
  for (int round = 0, dist = 1; dist < n; ++round, dist <<= 1) {
    const Rank to = (me + dist) % n;
    const Rank from = (me - dist % n + n) % n;
    const RequestPtr reqs[2] = {
        irecv_raw(ctx, from, tag - round, {}),
        isend_raw(comm.addr_of(to), ctx, me, tag - round, {})};
    wait_all(reqs);
  }
}

void Mpi::barrier(const Intercomm& inter, const Comm& local) {
  // Local barrier, leader ping-pong across, local barrier.
  barrier(local);
  if (inter.rank() == 0) {
    const Tag tag = kCollTagBase - 1;  // reserved inter-barrier handshake tag
    const ContextId ctx = inter.state()->context;
    const EpAddr& peer = inter.remote_addr(0);
    if (inter.state()->low_side) {
      wait(isend_raw(peer, ctx, 0, tag, {}));
      wait(irecv_raw(ctx, 0, tag, {}));
    } else {
      wait(irecv_raw(ctx, 0, tag, {}));
      wait(isend_raw(peer, ctx, 0, tag, {}));
    }
  }
  barrier(local);
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

Comm Mpi::split(const Comm& comm, int color, int key) {
  const std::uint64_t epoch = comm.state()->coll_epoch;  // consumed by allgather
  const int n = comm.size();

  // Exchange (color, key, old rank) triples.
  const std::int32_t mine[3] = {color, key, comm.rank()};
  std::vector<std::int32_t> all(static_cast<std::size_t>(n) * 3);
  allgather<std::int32_t>(comm, std::span<const std::int32_t>(mine, 3), all);

  // All ranks see identical data, so all compute identical groups/contexts.
  std::vector<int> colors;
  for (int r = 0; r < n; ++r) {
    const int c = all[static_cast<std::size_t>(r) * 3];
    if (c != kUndefinedColor &&
        std::find(colors.begin(), colors.end(), c) == colors.end())
      colors.push_back(c);
  }
  std::sort(colors.begin(), colors.end());

  if (color == kUndefinedColor) {
    // Still allocate the shared block so other ranks' contexts line up.
    (void)system_->context_block(comm.state()->ctx_p2p, epoch);
    return Comm();
  }

  struct Entry {
    int key;
    Rank old_rank;
  };
  std::vector<Entry> members;
  for (int r = 0; r < n; ++r) {
    if (all[static_cast<std::size_t>(r) * 3] != color) continue;
    members.push_back(Entry{static_cast<int>(all[static_cast<std::size_t>(r) * 3 + 1]),
                            static_cast<Rank>(all[static_cast<std::size_t>(r) * 3 + 2])});
  }
  std::stable_sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
  });

  auto group = std::make_shared<GroupInfo>();
  Rank my_new_rank = kAnySource;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group->members.push_back(comm.addr_of(members[i].old_rank));
    if (members[i].old_rank == comm.rank()) my_new_rank = static_cast<Rank>(i);
  }
  DEEP_ASSERT(my_new_rank != kAnySource, "split: caller missing from own color");

  const auto color_index = static_cast<std::uint64_t>(
      std::find(colors.begin(), colors.end(), color) - colors.begin());
  const ContextId base = system_->context_block(comm.state()->ctx_p2p, epoch);
  DEEP_ASSERT(2 * colors.size() <= MpiSystem::kContextStride,
              "split: too many colors for one context block");

  auto state = std::make_shared<CommState>();
  state->ctx_p2p = base + 2 * color_index;
  state->ctx_coll = base + 2 * color_index + 1;
  state->group = std::move(group);
  state->rank = my_new_rank;
  return Comm(std::move(state));
}

Comm Mpi::dup(const Comm& comm) {
  const std::uint64_t epoch = comm.state()->coll_epoch++;
  const ContextId base = system_->context_block(comm.state()->ctx_p2p, epoch);
  auto state = std::make_shared<CommState>();
  state->ctx_p2p = base;
  state->ctx_coll = base + 1;
  state->group = comm.state()->group;
  state->rank = comm.rank();
  return Comm(std::move(state));
}

// ---------------------------------------------------------------------------
// One-sided communication
// ---------------------------------------------------------------------------

Mpi::Window Mpi::win_create(const Comm& comm, std::span<std::byte> local) {
  const std::uint64_t epoch = comm.state()->coll_epoch;  // consumed by barrier
  const std::uint64_t id =
      system_->context_block(comm.state()->ctx_coll, epoch) + 7;
  endpoint_->expose_window(id, local);
  barrier(comm);  // no one-sided access before every member exposed
  Window window;
  window.id_ = id;
  window.comm_ = comm;
  return window;
}

void Mpi::win_free(Window& window) {
  DEEP_EXPECT(window.valid(), "win_free: null window");
  fence(window);
  endpoint_->close_window(window.id_);
  window.id_ = 0;
}

void Mpi::put(const Window& window, Rank target, std::int64_t offset,
              std::span<const std::byte> data) {
  DEEP_EXPECT(window.valid(), "put: null window");
  ctx_->delay(system_->params().send_overhead);
  endpoint_->start_put(window.comm().addr_of(target), window.id(), offset,
                       data);
}

RequestPtr Mpi::iget(const Window& window, Rank target, std::int64_t offset,
                     std::span<std::byte> dest) {
  DEEP_EXPECT(window.valid(), "get: null window");
  ctx_->delay(system_->params().send_overhead);
  return endpoint_->start_get(window.comm().addr_of(target), window.id(),
                              offset, dest);
}

void Mpi::get(const Window& window, Rank target, std::int64_t offset,
              std::span<std::byte> dest) {
  wait(iget(window, target, offset, dest));
}

void Mpi::fence(const Window& window) {
  DEEP_EXPECT(window.valid(), "fence: null window");
  // Local puts must be remotely complete...
  if (endpoint_->outstanding_puts() > 0) {
    sim::Process& self = ctx_->process();
    const std::int64_t outstanding = endpoint_->outstanding_puts();
    self.set_block_note<&fence_note>(outstanding);
    while (endpoint_->outstanding_puts() > 0) ctx_->suspend();
    self.clear_block_note();
  }
  // A lost Put/Accum (or its ack) counts as a failed remote completion.
  const std::int64_t lost = endpoint_->take_put_failures();
  // ...and every member must have reached the same point.  Keep the
  // collective in step even on failure, then report (comm_spawn precedent).
  barrier(window.comm());
  if (lost > 0) {
    throw MpiError(ErrCode::MessageLost,
                   "MPI fence failed: " + std::to_string(lost) +
                       " one-sided operation(s) lost on the wire");
  }
}

// ---------------------------------------------------------------------------
// DEEP offload primitives
// ---------------------------------------------------------------------------

Intercomm Mpi::comm_spawn(const Comm& comm, Rank root,
                          const std::string& command,
                          const std::vector<std::string>& args, int maxprocs,
                          const Info& info) {
  DEEP_EXPECT(root >= 0 && root < comm.size(), "comm_spawn: bad root");
  DEEP_EXPECT(maxprocs > 0, "comm_spawn: maxprocs must be positive");
  const std::uint64_t epoch = comm.state()->coll_epoch++;

  SpawnRequest request;
  request.command = command;
  request.args = args;
  request.maxprocs = maxprocs;
  request.info = info;
  request.parent_context = comm.state()->ctx_p2p;
  request.epoch = epoch;
  request.root_ep = comm.addr_of(root).ep;
  request.parents = comm.state()->group;

  const SpawnResult& result = system_->spawn_collective(request);
  if (!result.children) {
    barrier(comm);  // keep the collective in step before reporting failure
    throw util::ResourceError(
        "comm_spawn: could not start '" + command + "' x" +
        std::to_string(maxprocs) + " (insufficient booster resources)");
  }

  if (comm.rank() == root) {
    // MPI_Comm_spawn returns once the children are up: collect one READY
    // message from each child (they arrive over the new inter-context).
    std::vector<RequestPtr> ready;
    ready.reserve(static_cast<std::size_t>(maxprocs));
    for (int i = 0; i < maxprocs; ++i)
      ready.push_back(
          irecv_raw(result.intercomm_context, kAnySource, kReadyTag, {}));
    wait_all(ready);
  }
  barrier(comm);

  auto state = std::make_shared<IntercommState>();
  state->context = result.intercomm_context;
  state->local = comm.state()->group;
  state->remote = result.children;
  state->rank = comm.rank();
  state->low_side = true;  // parents take the low ranks on merge
  return Intercomm(std::move(state));
}

Comm Mpi::merge(const Intercomm& inter) {
  auto* istate = inter.state();
  const std::uint64_t epoch = istate->merge_epoch++;
  const ContextId base = system_->context_block(istate->context, epoch);

  const GroupInfo& low = istate->low_side ? *istate->local : *istate->remote;
  const GroupInfo& high = istate->low_side ? *istate->remote : *istate->local;
  auto group = std::make_shared<GroupInfo>();
  group->members.reserve(static_cast<std::size_t>(low.size() + high.size()));
  group->members.insert(group->members.end(), low.members.begin(),
                        low.members.end());
  group->members.insert(group->members.end(), high.members.begin(),
                        high.members.end());

  auto state = std::make_shared<CommState>();
  state->ctx_p2p = base;
  state->ctx_coll = base + 1;
  state->group = std::move(group);
  state->rank = istate->low_side ? istate->rank : low.size() + istate->rank;
  return Comm(std::move(state));
}

}  // namespace deep::mpi
