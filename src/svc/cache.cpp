#include "svc/cache.hpp"

namespace deep::svc {

std::shared_ptr<const SessionResult> ResultCache::lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->result;
}

void ResultCache::count_miss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const SessionResult> result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{key, std::move(result)});
  index_[key] = lru_.begin();
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::int64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::int64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace deep::svc
