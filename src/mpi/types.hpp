#pragma once
// Core types of the simulated Global MPI ("ParaStation MPI" in the paper).
// The wire-level types (WireHeader, MsgKind, scalar ids) live in
// mpi/wire.hpp so the net layer can embed them without a cycle.

#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "hw/spec.hpp"
#include "mpi/wire.hpp"
#include "net/pool.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/lane.hpp"

namespace deep::mpi {

/// Tags < 0 are reserved for the library (collectives, spawn handshake).
inline constexpr Tag kReadyTag = -2;
inline constexpr Tag kCollTagBase = -1000;

/// Completion information of a receive.
struct Status {
  Rank source = kAnySource;
  Tag tag = kAnyTag;
  std::int64_t bytes = 0;
};

/// Addressing of one rank: its endpoint and the node it runs on.
struct EpAddr {
  EpId ep = 0;
  hw::NodeId node = hw::kInvalidNode;
};

/// Immutable list of the ranks making up a group; shared between all members
/// of a communicator.
struct GroupInfo {
  std::vector<EpAddr> members;
  int size() const { return static_cast<int>(members.size()); }
};

using GroupPtr = std::shared_ptr<const GroupInfo>;

/// Key-value hints passed to spawn (MPI_Info equivalent).
using Info = std::map<std::string, std::string>;

/// How a request ended.  Fault injection (deep::net::FaultPlan) makes wire
/// losses real: an unrecoverable loss error-completes the affected request
/// instead of leaving its owner blocked forever.
enum class ErrCode : std::uint8_t {
  Success = 0,
  MessageLost,  // the transport gave up on a message this request needed
};

/// Thrown by wait()/fence() when a request completed with an error — the
/// simulated equivalent of an MPI error raised on MPI_ERRORS_RETURN/ABORT.
class MpiError : public util::SimError {
 public:
  MpiError(ErrCode code, const std::string& what)
      : util::SimError(what), code_(code) {}
  ErrCode code() const { return code_; }

 private:
  ErrCode code_;
};

/// One in-flight point-to-point operation.  Created by isend/irecv, completed
/// by the endpoint, released by wait().
struct Request {
  bool done = false;
  Status status;
  sim::Process* waiter = nullptr;  // process to wake on completion
  ErrCode error = ErrCode::Success;

  // Cheap diagnostics, filled in at start: what the blocked-process report
  // and MpiError messages say.  Strings are only built on those slow paths.
  const char* op = "";
  Rank peer = kAnySource;
  Tag tag = kAnyTag;

 private:
  friend class RequestPtr;
  std::uint32_t refs_ = 0;
#ifndef NDEBUG
  std::uint32_t lane_ = util::exec_lane();  // the lane that created it
#endif
};

/// Shared handle to a pooled Request, with the pointer surface of the
/// shared_ptr it replaced (->, *, bool, copy, == nullptr).  The count is
/// intrusive and not atomic, because a Request never leaves the lane that
/// created it: the rank's process creates it on its node's partition, the
/// rank's endpoint (which holds the other handles) only runs on that
/// partition too, and loss reporting, the one path that reaches another
/// rank's endpoint, needs the single-partition engine.  Debug builds check
/// it on every count change inside a partition window.  Storage is recycled
/// through the per-lane net::PoolAllocator.
class RequestPtr {
 public:
  RequestPtr() = default;
  RequestPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  RequestPtr(const RequestPtr& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) {
      check_lane();
      ++p_->refs_;
    }
  }
  RequestPtr(RequestPtr&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  RequestPtr& operator=(RequestPtr o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~RequestPtr() {
    if (p_ == nullptr) return;
    check_lane();
    if (--p_->refs_ == 0) {
      p_->~Request();
      net::PoolAllocator<Request>{}.deallocate(p_, 1);
    }
  }

  /// A fresh Request with one reference.
  static RequestPtr make() {
    void* mem = net::PoolAllocator<Request>{}.allocate(1);
    RequestPtr r;
    r.p_ = ::new (mem) Request;
    r.p_->refs_ = 1;
    return r;
  }

  Request* operator->() const { return p_; }
  Request& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }
  friend bool operator==(const RequestPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

 private:
  void check_lane() const {
#ifndef NDEBUG
    DEEP_ASSERT(!sim::Engine::in_partition_window() ||
                    util::exec_lane() == p_->lane_,
                "mpi::RequestPtr: request used off the lane that created it");
#endif
  }

  Request* p_ = nullptr;
};

}  // namespace deep::mpi
