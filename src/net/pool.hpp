#pragma once
// Slab-style pooling for the per-message hot path (docs/perf.md).
//
// Three cooperating pieces, all free-list based and all sharded per
// (session, lane) — util/lane.hpp.  A serial simulation runs entirely on
// session 0 / lane 0 and sees the exact historical single-pool behaviour;
// under the parallel engine each partition executes on its own lane,
// `instance()` resolves to that lane's pool, and free-list operations stay
// lock-free because a lane is only ever driven by one thread at a time
// (docs/parallel_engine.md).  Concurrent in-process simulations (the
// multi-tenant service, docs/service.md) each claim a session slot, so
// their pools never alias even though every session's threads default to
// lane 0.  The only shared
// mutable state is the payload refcount, which is atomic so a payload handed
// across partitions can be retained/released from its new home lane; the
// freed node simply joins the releasing lane's free list (nodes are never
// destroyed, so migrating between lane pools is harmless).
//
//  * BufferPool + Payload — reference-counted, pool-backed payload bytes.
//    Payload replaces the old shared_ptr<const vector<byte>>: same call-site
//    surface (operator*, operator->, bool), but the buffer node and its byte
//    storage are recycled through a free list, so steady-state traffic
//    performs no payload allocations at all.  copy_payload() is the hot-path
//    entry (memcpy into a recycled buffer); make_payload() adopts an
//    existing vector (convenience for tests and cold paths).
//
//  * MessagePool + PooledMessage — a free list of net::Message slots used to
//    carry messages through scheduled events.  A Message is too large for
//    the engine's 48-byte inline EventFn buffer; parking it in a pooled slot
//    and capturing the 8-byte owner keeps event capture allocation-free.
//    PooledMessage is the RAII owner: releasing on destruction makes engine
//    teardown with undelivered events leak-free.
//
//  * PoolAllocator<T> — a rebindable free-list allocator for
//    std::allocate_shared and friends; the MPI layer's intrusively counted
//    RequestPtr (mpi/types.hpp) recycles its Requests through it.
//
// Invariants (tested in tests/netperf_test.cpp):
//  * a released buffer/slot is reused before any new one is allocated;
//  * releasing resets payload references so pooled slots never pin buffers;
//  * pools only grow to the high-water mark of in-flight objects.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/lane.hpp"

namespace deep::net {

struct Message;

namespace detail {

/// One pooled payload buffer: bytes + intrusive refcount + free-list link.
/// The refcount is atomic because Payload handles may be copied on one
/// execution lane and dropped on another after crossing a partition bridge;
/// everything else is only touched by the lane whose free list holds the
/// node.
struct Buffer {
  std::vector<std::byte> bytes;
  std::atomic<std::int32_t> refs{0};
  Buffer* next_free = nullptr;
};

}  // namespace detail

/// Free-list pool of payload buffers.  Buffers keep their byte capacity
/// across reuse, so a steady-state message mix stops allocating once the
/// working set has been seen once.
class BufferPool {
 public:
  /// The current execution lane's pool (lane 0 — the historical process-wide
  /// singleton — for serial runs and threads outside the parallel engine).
  static BufferPool& instance();

  /// A buffer with refs == 1 and bytes.size() == size (capacity reused).
  detail::Buffer* acquire(std::size_t size);
  void release(detail::Buffer* buffer);

  /// Introspection for tests.
  std::size_t total_buffers() const { return all_.size(); }
  std::size_t free_buffers() const { return free_count_; }

 private:
  std::vector<std::unique_ptr<detail::Buffer>> all_;  // owns every node
  detail::Buffer* free_head_ = nullptr;
  std::size_t free_count_ = 0;
};

/// Reference-counted handle to a pooled, immutable payload buffer.  Mirrors
/// the pointer surface of the shared_ptr it replaced.
class Payload {
 public:
  Payload() = default;
  Payload(const Payload& o) : buf_(o.buf_) {
    if (buf_ != nullptr) buf_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& o) noexcept : buf_(o.buf_) { o.buf_ = nullptr; }
  Payload& operator=(const Payload& o) {
    if (this != &o) {
      reset();
      buf_ = o.buf_;
      if (buf_ != nullptr) buf_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      buf_ = o.buf_;
      o.buf_ = nullptr;
    }
    return *this;
  }
  ~Payload() { reset(); }

  explicit operator bool() const { return buf_ != nullptr; }
  const std::vector<std::byte>& operator*() const { return buf_->bytes; }
  const std::vector<std::byte>* operator->() const { return &buf_->bytes; }

  void reset() {
    if (buf_ != nullptr) {
      BufferPool::instance().release(buf_);
      buf_ = nullptr;
    }
  }

 private:
  friend Payload make_payload(std::vector<std::byte> bytes);
  friend Payload copy_payload(std::span<const std::byte> bytes);
  explicit Payload(detail::Buffer* buf) : buf_(buf) {}

  detail::Buffer* buf_ = nullptr;
};

/// Hot path: copies `bytes` into a recycled pool buffer (no allocation once
/// the pool is warm).
inline Payload copy_payload(std::span<const std::byte> bytes) {
  detail::Buffer* buf = BufferPool::instance().acquire(bytes.size());
  if (!bytes.empty())
    std::memcpy(buf->bytes.data(), bytes.data(), bytes.size());
  return Payload(buf);
}

/// Cold path: adopts an existing vector (its storage replaces the pooled
/// buffer's).  Convenient for tests and one-off construction.
inline Payload make_payload(std::vector<std::byte> bytes) {
  detail::Buffer* buf = BufferPool::instance().acquire(0);
  buf->bytes = std::move(bytes);
  return Payload(buf);
}

/// Free list of Message slots for carrying messages through scheduled
/// events; see PooledMessage.
class MessagePool {
 public:
  /// The current execution lane's pool (see BufferPool::instance).
  static MessagePool& instance();

  Message* acquire();
  /// Clears the slot (header to monostate, payload dropped) and recycles it.
  void release(Message* slot);

  /// Introspection for tests.
  std::size_t total_slots() const { return all_.size(); }
  std::size_t free_slots() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<Message>> all_;  // owns every slot
  std::vector<Message*> free_;
};

/// Move-only owner of one pooled Message slot.  Construct from a Message to
/// park it; take() moves it back out.  The slot returns to the pool when the
/// owner dies — including when an engine tears down undelivered events.
class PooledMessage {
 public:
  PooledMessage() = default;
  explicit PooledMessage(Message&& msg);
  PooledMessage(PooledMessage&& o) noexcept : slot_(o.slot_) {
    o.slot_ = nullptr;
  }
  PooledMessage& operator=(PooledMessage&& o) noexcept {
    if (this != &o) {
      reset();
      slot_ = o.slot_;
      o.slot_ = nullptr;
    }
    return *this;
  }
  PooledMessage(const PooledMessage&) = delete;
  PooledMessage& operator=(const PooledMessage&) = delete;
  ~PooledMessage() { reset(); }

  /// The parked message, moved out.  The slot stays owned (and is recycled
  /// when this owner is destroyed).
  Message&& take() { return static_cast<Message&&>(*slot_); }

 private:
  void reset();

  Message* slot_ = nullptr;
};

/// Rebindable free-list allocator for single-object std::allocate_shared:
/// the combined control-block+object allocation is recycled per type, so
/// steady-state Request churn stops hitting the heap.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n != 1)
      return static_cast<T*>(::operator new(n * sizeof(T)));
    auto& fl = free_list();
    if (!fl.empty()) {
      void* p = fl.back();
      fl.pop_back();
      return static_cast<T*>(p);
    }
    return static_cast<T*>(::operator new(sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    free_list().push_back(p);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const {
    return true;
  }

 private:
  static std::vector<void*>& free_list() {
    // One list per (session, lane) shard, reachable forever through a
    // static slot table (same pattern as BufferPool/MessagePool in
    // pool.cpp): parked blocks must stay reachable at exit or leak checkers
    // would (rightly) report them as lost.  thread_local storage would not
    // do — a worker thread's exit drops its TLS pointer and strands the
    // parked blocks.  The lane discipline (one thread drives a lane at a
    // time) keeps each list single-threaded, and session sharding keeps
    // concurrent in-process simulations off each other's lists; a block
    // freed on a different shard than it was allocated on is type-erased
    // raw storage, so adoption is harmless.
    static std::array<std::atomic<std::vector<void*>*>,
                      util::kMaxSessions * util::kMaxLanes>
        slots{};
    std::atomic<std::vector<void*>*>& slot = slots[util::pool_shard()];
    std::vector<void*>* fl = slot.load(std::memory_order_acquire);
    if (fl == nullptr) {
      auto* fresh = new std::vector<void*>();
      if (slot.compare_exchange_strong(fl, fresh, std::memory_order_acq_rel))
        return *fresh;
      delete fresh;  // lost a (contract-violating) race; use the winner
    }
    return *fl;
  }
};

}  // namespace deep::net
