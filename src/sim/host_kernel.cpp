#include "sim/host_kernel.hpp"

#include <pthread.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace deep::sim {

namespace {

std::atomic<std::uint64_t> g_offloaded{0};

// Set in the child of every fork(), before it runs any code of its own.
std::atomic<bool> g_forked_child{false};
const int g_atfork = pthread_atfork(
    nullptr, nullptr, [] { g_forked_child.store(true, std::memory_order_relaxed); });

}  // namespace

/// The process-wide pool: a FIFO queue of started kernels, linked through
/// the HostKernel objects themselves, and the threads that drain it.  Never
/// destroyed, so no thread is ever joined at exit.
class HostKernelPool {
 public:
  /// The pool, created on first use; null where it has no threads (one
  /// host CPU) or must not be touched (a forked child).
  static HostKernelPool* get() {
    if (g_forked_child.load(std::memory_order_relaxed)) return nullptr;
    static HostKernelPool* const pool = [] {
      const unsigned cpus = std::thread::hardware_concurrency();
      return cpus > 1 ? new HostKernelPool(cpus - 1) : nullptr;
    }();
    return pool;
  }

  void push(HostKernel& k) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      k.state_ = HostKernel::State::Queued;
      k.prev_ = tail_;
      k.next_ = nullptr;
      (tail_ != nullptr ? tail_->next_ : head_) = &k;
      tail_ = &k;
    }
    work_cv_.notify_one();
  }

  /// Waits until no thread works on `k`.  Returns true when `k` was still
  /// queued: it is then unlinked and the caller owns it.
  bool claim_or_wait(HostKernel& k) {
    std::unique_lock<std::mutex> lock(mu_);
    if (k.state_ == HostKernel::State::Queued) {
      unlink(k);
      k.state_ = HostKernel::State::Done;
      return true;
    }
    ++waiters_;
    done_cv_.wait(lock, [&] { return k.state_ == HostKernel::State::Done; });
    --waiters_;
    return false;
  }

 private:
  explicit HostKernelPool(unsigned threads) {
    for (unsigned i = 0; i < threads; ++i)
      threads_.emplace_back([this] { drain(); });
  }

  void unlink(HostKernel& k) {
    (k.prev_ != nullptr ? k.prev_->next_ : head_) = k.next_;
    (k.next_ != nullptr ? k.next_->prev_ : tail_) = k.prev_;
  }

  [[noreturn]] void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return head_ != nullptr; });
      HostKernel& k = *head_;
      unlink(k);
      k.state_ = HostKernel::State::Running;
      lock.unlock();
      k.run_here();
      lock.lock();
      // The joiner may free `k` as soon as it sees Done under the lock.
      k.state_ = HostKernel::State::Done;
      if (waiters_ > 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // pool threads: a kernel is queued
  std::condition_variable done_cv_;  // joiners: a running kernel finished
  HostKernel* head_ = nullptr;
  HostKernel* tail_ = nullptr;
  int waiters_ = 0;
  std::vector<std::thread> threads_;
};

HostKernel::HostKernel(Engine& engine, void (*run)(void*), void* arg)
    : run_(run), arg_(arg), backlog_(&engine.host_backlog_) {
  const int ahead = backlog_->fetch_add(1, std::memory_order_relaxed);
  if (ahead >= kOffloadBacklog) pool_ = HostKernelPool::get();
  if (pool_ != nullptr) {
    g_offloaded.fetch_add(1, std::memory_order_relaxed);
    pool_->push(*this);
  } else {
    run_here();
  }
}

HostKernel::~HostKernel() {
  if (backlog_ != nullptr) finish(/*drop=*/true);
}

void HostKernel::join() {
  DEEP_EXPECT(backlog_ != nullptr, "HostKernel::join: already joined");
  finish(/*drop=*/false);
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

std::uint64_t HostKernel::offloaded() {
  return g_offloaded.load(std::memory_order_relaxed);
}

void HostKernel::run_here() noexcept {
  try {
    run_(arg_);
  } catch (...) {
    error_ = std::current_exception();
  }
}

void HostKernel::finish(bool drop) {
  // The pool's lock orders a pool thread's writes (error_ included) before
  // the joiner's reads.
  if (pool_ != nullptr && pool_->claim_or_wait(*this) && !drop) run_here();
  backlog_->fetch_sub(1, std::memory_order_relaxed);
  backlog_ = nullptr;
}

}  // namespace deep::sim
