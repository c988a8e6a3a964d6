#include "svc/serve.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace deep::svc {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// Writes `text` and a newline to `fd`; false once the peer is gone.
bool write_line(int fd, std::string text) {
  text += '\n';
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Json rejected(const Reject& reject) {
  Json j = Json::object();
  j.set("status", "rejected");
  j.set("reject", reject.to_json());
  return j;
}

Json ok(const char* key = nullptr, std::string value = {}) {
  Json j = Json::object();
  j.set("status", "ok");
  if (key != nullptr) j.set(key, std::move(value));
  return j;
}

}  // namespace

bool serve(Service& service, int in_fd, int out_fd) {
  // Every response goes out under one mutex.  `stats`, `quit` and rejects
  // are written by the reader at once and may overtake `run` responses of
  // jobs still simulating; those are written by the collector, in order.
  std::mutex out_mu;
  std::atomic<bool> out_open{true};
  const auto emit = [&](const Json& j) {
    std::lock_guard<std::mutex> lock(out_mu);
    if (out_open && !write_line(out_fd, j.dump())) out_open = false;
  };

  // Unanswered runs, oldest first.  The collector answers the front one and
  // only then drops it, so the reader's window counts it until it is out.
  const std::size_t window = std::max<std::size_t>(1, service.queue_capacity());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::uint64_t> unanswered;
  bool reading = true;
  std::thread collector([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return !unanswered.empty() || !reading; });
      if (unanswered.empty()) return;
      const std::uint64_t id = unanswered.front();
      lock.unlock();
      emit(service.wait(id).to_json());
      lock.lock();
      unanswered.pop_front();
      cv.notify_all();
    }
  });

  // Answers one complete line; true when it was a quit op.
  const auto handle = [&](std::string_view line) {
    if (line.empty()) return false;
    const ParseResult parsed = Json::parse(line);
    if (!parsed.ok) {
      emit(rejected({"bad_json", "",
                     parsed.error + " at byte " +
                         std::to_string(parsed.offset)}));
      return false;
    }
    const Json* op = parsed.value.find("op");
    const std::string op_name =
        op != nullptr && op->is_string() ? op->as_string() : "";
    if (op_name == "run") {
      {
        // Back-pressure: stop reading until the window has room, so the
        // service queue never overflows on this conversation's runs.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return unanswered.size() < window; });
      }
      const Json* spec = parsed.value.find("spec");
      const std::uint64_t id =
          service.submit(spec != nullptr ? spec->dump() : "null");
      {
        std::lock_guard<std::mutex> lock(mu);
        unanswered.push_back(id);
      }
      cv.notify_all();
    } else if (op_name == "stats") {
      emit(ok("stats", service.stats_json()));
    } else if (op_name == "quit") {
      emit(ok());
      return true;
    } else {
      emit(rejected(
          {"bad_op", "op", "expected \"run\", \"stats\" or \"quit\""}));
    }
    return false;
  };

  // Lines are cut from fixed-size reads; a line past the cap is rejected as
  // soon as it crosses it and its remaining bytes are skipped, not kept.
  bool quit = false;
  bool skipping = false;
  std::string line;
  std::vector<char> buf(kReadChunk);
  while (!quit && out_open) {
    const ssize_t n = ::read(in_fd, buf.data(), buf.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    std::string_view chunk(buf.data(), static_cast<std::size_t>(n));
    while (!quit && !chunk.empty()) {
      const std::size_t nl = chunk.find('\n');
      const std::string_view part = chunk.substr(0, nl);
      if (!skipping && line.size() + part.size() > kMaxLineBytes) {
        skipping = true;
        line.clear();
        emit(rejected({"too_large", "",
                       "request line exceeds " +
                           std::to_string(kMaxLineBytes) + " bytes"}));
      }
      if (!skipping) line.append(part);
      if (nl == std::string_view::npos) break;
      chunk.remove_prefix(nl + 1);
      if (!skipping) quit = handle(line);
      skipping = false;
      line.clear();
    }
  }
  if (!quit && !skipping && out_open) quit = handle(line);  // no newline

  {
    std::lock_guard<std::mutex> lock(mu);
    reading = false;
  }
  cv.notify_all();
  collector.join();
  return !quit;
}

}  // namespace deep::svc
