#pragma once
// IoNet: the storage-traffic protocol of the DEEP-ER I/O stack.
//
// A reliable request/reply engine on net::Port::Io, riding whatever
// cbp::Transport the system uses — a single fabric in unit tests, the
// bridged cluster+booster interconnect in production systems, where Io
// messages crossing the gateway are flattened into CBP frames like MPI
// traffic.  Because every Io message traverses net::Fabric::send, storage
// traffic composes with chaos (dead links, NIC kills, injected drops) and
// with the parallel engine's lookahead exactly like compute traffic.
//
// Reliability is end-to-end: the requester arms a timeout per attempt and
// resends with exponential backoff; the bridge deliberately ignores dropped
// Io messages (cbp/gateway.cpp), so a drop anywhere on the path simply costs
// a timeout.  An operation whose attempts exhaust fails — the caller (the
// checkpoint layer, the parallel FS) decides what a failed transfer means.
//
// Service cost: the target spends a modelled duration per request before
// replying (an NVM write at a buddy node, a striped-chunk write at a storage
// target), supplied through set_service_cost(); io::install_nvm_service()
// wires the targets' hw::NvmDevice queues in.

#include <cstdint>
#include <functional>
#include <map>

#include "cbp/transport.hpp"
#include "net/message.hpp"
#include "net/nic.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace deep::hw {
class Node;
}

namespace deep::io {

/// What a request asks the target to do.  Carried as the raw byte
/// net::IoHeader::kind.
enum class OpKind : std::uint8_t {
  FsWrite = 1,    // store one FS chunk at a storage target
  FsRead = 2,     // fetch one FS chunk from a storage target
  BuddyWrite = 3, // store a checkpoint copy on a partner node's NVM
  BuddyRead = 4,  // fetch a checkpoint copy back from the partner
};

struct IoParams {
  std::int64_t header_bytes = 64;   // wire overhead per request/reply
  int max_attempts = 5;             // sends per operation before giving up
  sim::Duration timeout = sim::from_micros(250);  // first-attempt timeout
  double backoff_factor = 2.0;      // timeout scaling per further attempt
};

class IoNet {
 public:
  IoNet(sim::Engine& engine, cbp::Transport& transport, IoParams params = {});
  IoNet(const IoNet&) = delete;
  IoNet& operator=(const IoNet&) = delete;

  const IoParams& params() const { return params_; }
  sim::Engine& engine() const { return *engine_; }

  /// Virtual-time cost the target spends on a request before acking.
  /// `data_bytes` is the operation's payload (forwarded bytes for writes,
  /// reply bytes for reads).  Default: zero.
  using ServiceCost =
      std::function<sim::Duration(OpKind kind, hw::NodeId target,
                                  std::int64_t data_bytes)>;
  void set_service_cost(ServiceCost cost) { service_cost_ = std::move(cost); }

  /// Binds this protocol's handler on `nic` (call for every NIC a node can
  /// receive storage traffic on; gateways sit on two fabrics and need both).
  void attach(net::Nic& nic);

  /// One in-flight operation.
  struct OpHandle {
    std::uint64_t id = 0;
  };

  /// Starts an operation from the calling process's node `self`: sends
  /// `fwd_bytes` of data to `target`, which services the request and replies
  /// with `reply_bytes` of data.  Non-blocking; pair with wait().
  OpHandle issue(sim::Context& ctx, hw::NodeId self, hw::NodeId target,
                 OpKind kind, std::int64_t fwd_bytes, std::int64_t reply_bytes);

  /// Blocks the calling process until the operation completes or exhausts
  /// its attempts.  True on success.  Must be called by the issuing process.
  bool wait(sim::Context& ctx, OpHandle op);

  /// issue() + wait(): one blocking transfer.
  bool transfer(sim::Context& ctx, hw::NodeId self, hw::NodeId target,
                OpKind kind, std::int64_t fwd_bytes, std::int64_t reply_bytes) {
    return wait(ctx, issue(ctx, self, target, kind, fwd_bytes, reply_bytes));
  }

  std::int64_t requests() const { return m_requests_.value(); }
  std::int64_t replies() const { return replies_; }
  std::int64_t retries() const { return m_retries_.value(); }
  std::int64_t failures() const { return m_failures_.value(); }

 private:
  struct PendingOp {
    hw::NodeId self = hw::kInvalidNode;
    hw::NodeId target = hw::kInvalidNode;
    OpKind kind = OpKind::FsWrite;
    std::int64_t fwd_bytes = 0;
    std::int64_t reply_bytes = 0;
    int attempts = 0;  // sends so far
    bool done = false;
    bool ok = false;
    sim::TimePoint issued_at{};
    sim::Process* waiter = nullptr;
  };

  void on_message(net::Message&& msg);
  void send_request(std::uint64_t id, const PendingOp& op);
  void arm_timeout(std::uint64_t id, int attempt);
  void on_timeout(std::uint64_t id, int attempt);

  sim::Engine* engine_;
  cbp::Transport* transport_;
  IoParams params_;
  ServiceCost service_cost_;
  std::uint64_t next_op_ = 1;
  std::map<std::uint64_t, PendingOp> pending_;
  std::int64_t replies_ = 0;
  obs::Counter m_requests_;   // io.requests
  obs::Counter m_retries_;    // io.retries
  obs::Counter m_failures_;   // io.failures
  obs::Counter m_bytes_;      // io.bytes (data payload, both directions)
  obs::Histogram m_op_ns_;    // io.op_ns (issue -> completion)
};

/// Routes service costs to the targets' NVM devices: writes/reads queue on
/// the device (hw::NvmDevice::reserve), so concurrent checkpoints and FS
/// chunks contend realistically.  `node_of` resolves a NodeId to its node;
/// targets without NVM service in zero time.
void install_nvm_service(IoNet& net,
                         std::function<hw::Node*(hw::NodeId)> node_of);

}  // namespace deep::io
