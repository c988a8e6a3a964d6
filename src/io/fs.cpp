#include "io/fs.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace deep::io {

ParallelFs::ParallelFs(IoNet& net, std::vector<hw::NodeId> targets,
                       FsParams params)
    : net_(&net), targets_(std::move(targets)), params_(params) {
  DEEP_EXPECT(!targets_.empty(), "ParallelFs: needs at least one target");
  DEEP_EXPECT(params_.stripe_bytes > 0,
              "ParallelFs: stripe size must be positive");
  for (hw::NodeId t : targets_)
    DEEP_EXPECT(t != hw::kInvalidNode, "ParallelFs: invalid target node");
  obs::Registry& reg = net_->engine().metrics();
  m_write_bytes_ = reg.counter("fs.write_bytes");
  m_read_bytes_ = reg.counter("fs.read_bytes");
  m_chunks_ = reg.counter("fs.chunks");
}

std::int64_t ParallelFs::chunk_count(std::int64_t bytes) const {
  if (bytes <= 0) return 1;  // empty files still cost one metadata round-trip
  return (bytes + params_.stripe_bytes - 1) / params_.stripe_bytes;
}

std::int64_t ParallelFs::size_of(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? -1 : it->second;
}

bool ParallelFs::transfer_chunks(sim::Context& ctx, hw::NodeId self,
                                 std::int64_t bytes, bool write) {
  const std::int64_t chunks = chunk_count(bytes);
  std::vector<IoNet::OpHandle> ops;
  ops.reserve(static_cast<std::size_t>(chunks));
  std::int64_t left = bytes;
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t sz = std::min(left, params_.stripe_bytes);
    left -= sz;
    ops.push_back(net_->issue(ctx, self, target_of(c),
                              write ? OpKind::FsWrite : OpKind::FsRead,
                              write ? sz : 0, write ? 0 : sz));
  }
  m_chunks_.add(chunks);
  // Wait for every chunk even after a failure: handles must be reaped, and
  // the stragglers' timing is part of the model either way.
  bool ok = true;
  for (IoNet::OpHandle op : ops) ok = net_->wait(ctx, op) && ok;
  return ok;
}

bool ParallelFs::write(sim::Context& ctx, hw::NodeId self,
                       const std::string& path, std::int64_t bytes) {
  DEEP_EXPECT(bytes >= 0, "ParallelFs::write: negative size");
  ++writes_;
  if (!transfer_chunks(ctx, self, bytes, /*write=*/true)) {
    ++failed_ops_;
    return false;
  }
  auto [it, inserted] = files_.try_emplace(path, bytes);
  if (!inserted) {
    bytes_stored_ -= it->second;
    it->second = bytes;
  }
  bytes_stored_ += bytes;
  m_write_bytes_.add(bytes);
  return true;
}

bool ParallelFs::read(sim::Context& ctx, hw::NodeId self,
                      const std::string& path) {
  ++reads_;
  auto it = files_.find(path);
  if (it == files_.end()) {
    ++failed_ops_;
    return false;
  }
  if (!transfer_chunks(ctx, self, it->second, /*write=*/false)) {
    ++failed_ops_;
    return false;
  }
  m_read_bytes_.add(it->second);
  return true;
}

}  // namespace deep::io
