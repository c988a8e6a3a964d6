#pragma once
// Endpoint: the per-rank MPI transport engine.
//
// Implements tag matching with wildcards, the unexpected-message queue, the
// eager and rendezvous (RTS/CTS/RData) protocols, and per-flow sequence
// numbers that restore ordering when the wire may reorder (e.g. round-robin
// gateway selection in the Cluster-Booster Protocol).
//
// on_message() runs in event context (from the NIC handler) and never
// blocks; blocking happens in the owning process via Request + wake().

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpi/types.hpp"
#include "net/message.hpp"

namespace deep::mpi {

class MpiSystem;

class Endpoint {
 public:
  Endpoint(MpiSystem& system, EpId id, hw::NodeId node);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  EpId id() const { return id_; }
  hw::NodeId node() const { return node_; }

  /// The process that owns this endpoint (set when the rank binds).
  void set_owner(sim::Process* owner) { owner_ = owner; }
  sim::Process* owner() const { return owner_; }

  /// Called when the rank's Mpi handle is destroyed (normal exit, MpiError
  /// bail-out, or kill): every buffer span held here points into the dying
  /// process's memory.  Drops receive-side state and windows, orphans
  /// request waiters so completions never wake the dead process, and makes
  /// late arrivals safe: eager data parks in the unexpected queue (which
  /// owns its storage) and RMA to this rank fails back to the origin.
  void detach_owner();

  /// Starts a send of `bytes` to `dst`; returns the request (already
  /// completed for eager sends).  `src_rank` is the caller's rank within
  /// `context`'s group.
  RequestPtr start_send(const EpAddr& dst, ContextId context, Rank src_rank,
                        Tag tag, std::span<const std::byte> bytes);

  /// Posts a receive into `buffer`; matches immediately against the
  /// unexpected queue, otherwise waits for arrival.
  RequestPtr post_recv(ContextId context, Rank src, Tag tag,
                       std::span<std::byte> buffer);

  /// NIC handler entry point.
  void on_message(net::Message&& msg);

  /// Non-destructive check of the unexpected queue (MPI_Iprobe): the Status
  /// of the first buffered message matching (context, src, tag), if any.
  std::optional<Status> probe_unexpected(ContextId context, Rank src,
                                         Tag tag) const;

  // -- one-sided (RMA engine) -----------------------------------------------
  /// Exposes `region` as window `win` for incoming Put/Get.
  void expose_window(std::uint64_t win, std::span<std::byte> region);
  void close_window(std::uint64_t win);

  /// One-sided write into the target's window.  The request completes
  /// locally at injection; remote completion is tracked by PutAck counting
  /// (see outstanding_puts()).
  RequestPtr start_put(const EpAddr& dst, std::uint64_t win,
                       std::int64_t offset, std::span<const std::byte> data);
  /// One-sided read from the target's window into `dest`; the request
  /// completes when the response data arrived.
  RequestPtr start_get(const EpAddr& dst, std::uint64_t win,
                       std::int64_t offset, std::span<std::byte> dest);

  /// One-sided element-wise reduction (MPI_Accumulate): the target combines
  /// `data` into its window with `op`.  dtype: 0 = double, 1 = int64.
  RequestPtr start_accumulate(const EpAddr& dst, std::uint64_t win,
                              std::int64_t offset,
                              std::span<const std::byte> data, Op op,
                              std::uint8_t dtype);

  /// Puts issued from this endpoint whose remote completion is pending.
  std::int64_t outstanding_puts() const { return outstanding_puts_; }

  // -- loss recovery (called by MpiSystem::handle_loss) ---------------------
  /// Marks `seq` from `src_ep` as never arriving, so later messages of the
  /// flow are not parked forever behind the hole.
  void note_lost_seq(EpId src_ep, std::uint64_t seq);
  /// An inbound Eager/RTS was lost: error-completes the matching posted
  /// receive, or records a dead letter that fails the next matching
  /// post_recv (the receiver may not have posted yet).
  void fail_recv(const WireHeader& header);
  /// A rendezvous this endpoint is sending died (lost CTS or the RTS itself).
  void fail_pending_send(std::uint64_t op);
  /// A rendezvous this endpoint is receiving died (lost CTS or RData).
  void fail_pending_recv(EpId src_ep, std::uint64_t op);
  /// A one-sided read died (lost GetReq or GetResp).
  void fail_pending_get(std::uint64_t op);
  /// A Put/Accum (or its ack) died: remote completion will never be counted.
  void fail_put();

  /// Put/Accum operations whose remote completion was lost; consumed by
  /// fence(), which reports them as an MpiError.
  std::int64_t put_failures() const { return put_failures_; }
  std::int64_t take_put_failures() {
    return std::exchange(put_failures_, 0);
  }

  /// Introspection for tests.
  std::size_t unexpected_count() const { return unexpected_.size(); }
  std::size_t posted_count() const { return posted_.size(); }
  std::size_t parked_count() const { return parked_total_; }
  /// Messages ever parked in the reorder buffer (lifetime counter).
  std::size_t lifetime_parked() const { return lifetime_parked_; }

 private:
  /// A match queue: arrival order is index order in one vector.  Taking
  /// the front advances a head index; taking a later entry shifts the rest
  /// down, so matching stays earliest-first.  The dead prefix is dropped
  /// once it is half the vector, and the capacity is kept, so a warm
  /// queue does not allocate.
  template <typename T>
  class Fifo {
   public:
    using iterator = typename std::vector<T>::iterator;
    using const_iterator = typename std::vector<T>::const_iterator;

    iterator begin() {
      return items_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    iterator end() { return items_.end(); }
    const_iterator begin() const {
      return items_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    const_iterator end() const { return items_.end(); }
    std::size_t size() const { return items_.size() - head_; }

    void push_back(T item) {
      if (head_ > 0 && head_ * 2 >= items_.size()) {
        items_.erase(items_.begin(), begin());
        head_ = 0;
      }
      items_.push_back(std::move(item));
    }

    /// Moves `it` out of the queue.
    T take(iterator it) {
      T item = std::move(*it);
      if (it == begin()) {
        ++head_;
      } else {
        std::move(it + 1, end(), it);
        items_.pop_back();
      }
      if (head_ == items_.size()) clear();
      return item;
    }

    void clear() {
      items_.clear();
      head_ = 0;
    }

   private:
    std::vector<T> items_;
    std::size_t head_ = 0;  // entries before it were taken
  };

  struct PostedRecv {
    ContextId context;
    Rank src;
    Tag tag;
    std::span<std::byte> buffer;
    RequestPtr request;
  };

  struct UnexpectedMsg {
    WireHeader header;
    net::Payload payload;  // eager data (null for RTS)
  };

  struct PendingSend {        // rendezvous sender state, keyed by op id
    WireHeader data_header;   // header to use for the RData message
    EpAddr dst;
    net::Payload payload;
    RequestPtr request;
  };

  struct PendingRecv {  // rendezvous receiver state, keyed by (src_ep, op)
    std::span<std::byte> buffer;
    RequestPtr request;
  };

  struct PendingGet {  // one-sided read awaiting its response, keyed by op
    std::span<std::byte> dest;
    RequestPtr request;
  };

  static bool matches(const PostedRecv& r, const WireHeader& h) {
    return r.context == h.context && (r.src == kAnySource || r.src == h.src_rank) &&
           (r.tag == kAnyTag || r.tag == h.tag);
  }

  void process_in_order(WireHeader&& header, net::Payload&& payload);
  void drain_reorder(EpId src_ep);
  void complete_error(const RequestPtr& request, ErrCode code,
                      Rank source = kAnySource, Tag tag = kAnyTag);
  void handle_eager_or_rts(WireHeader&& header, net::Payload&& payload);
  void handle_cts(const WireHeader& header);
  void handle_rdata(WireHeader&& header, net::Payload&& payload);
  void handle_put(const WireHeader& header, const net::Payload& payload);
  void handle_accum(const WireHeader& header, const net::Payload& payload);
  void handle_put_ack();
  void handle_get_req(const WireHeader& header);
  void handle_get_resp(const WireHeader& header, const net::Payload& payload);
  std::span<std::byte> window_slice(std::uint64_t win, std::int64_t offset,
                                    std::int64_t bytes);
  void accept_into(const PostedRecv& posted, const WireHeader& header,
                   const net::Payload& payload);
  void send_cts(const WireHeader& rts);
  void complete(const RequestPtr& request, Rank source, Tag tag,
                std::int64_t bytes);
  std::uint64_t next_seq_to(EpId dst) { return flow(dst).seq_out++; }

  // Flow sequencing state with one peer endpoint.  A rank talks to few
  // peers (halo neighbours, collective partners), so the table is a small
  // vector sorted by peer; an entry is created on first contact.
  struct Flow {
    EpId peer;
    std::uint64_t seq_out = 0;  // next sequence number sent to peer
    std::uint64_t seq_in = 0;   // next sequence number expected from peer
  };
  /// The flow with `peer`.  The reference is invalidated by the next
  /// first contact with another peer (any send may make one).
  Flow& flow(EpId peer);

  MpiSystem* system_;
  EpId id_;
  hw::NodeId node_;
  sim::Process* owner_ = nullptr;
  bool detached_ = false;  // owner died; tolerate late arrivals

  Fifo<PostedRecv> posted_;
  Fifo<UnexpectedMsg> unexpected_;
  std::unordered_map<std::uint64_t, PendingSend> pending_sends_;
  std::map<std::pair<EpId, std::uint64_t>, PendingRecv> pending_recvs_;
  std::unordered_map<std::uint64_t, std::span<std::byte>> windows_;
  std::unordered_map<std::uint64_t, PendingGet> pending_gets_;
  std::int64_t outstanding_puts_ = 0;

  // Flow sequencing: per-peer counters and inbound reorder buffers.
  std::vector<Flow> flows_;
  std::unordered_map<EpId, std::map<std::uint64_t, UnexpectedMsg>> reorder_;
  std::size_t parked_total_ = 0;
  std::size_t lifetime_parked_ = 0;

  // Loss recovery: per-flow holes left by lost messages, headers of lost
  // sends awaiting a matching post_recv, failed remote completions.
  std::unordered_map<EpId, std::set<std::uint64_t>> lost_seqs_;
  Fifo<WireHeader> dead_letters_;
  std::int64_t put_failures_ = 0;

  std::uint64_t next_op_ = 1;
};

}  // namespace deep::mpi
