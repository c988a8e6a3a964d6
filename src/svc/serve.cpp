#include "svc/serve.hpp"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

namespace deep::svc {

bool serve_stream(Service& service, std::istream& in, std::ostream& out) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::string> ready;  // rendered responses, submission order
  bool done = false;

  // Writer: emits responses as they become ready, preserving order.
  std::thread writer([&] {
    for (;;) {
      std::string line;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !ready.empty() || done; });
        if (ready.empty()) return;
        line = std::move(ready.front());
        ready.pop_front();
      }
      out << line << '\n' << std::flush;
    }
  });

  // In-order delivery with pipelining: waiter threads would reorder, so a
  // single collector waits on ids FIFO.  Submission happens on this thread;
  // collection on another, so slow jobs never stall the read loop.
  std::deque<std::uint64_t> pending;
  std::mutex pending_mu;
  std::condition_variable pending_cv;
  bool reader_done = false;
  std::thread collector([&] {
    for (;;) {
      std::uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(pending_mu);
        pending_cv.wait(lock, [&] { return !pending.empty() || reader_done; });
        if (pending.empty()) return;
        id = pending.front();
        pending.pop_front();
      }
      const JobResult r = service.wait(id);
      {
        std::lock_guard<std::mutex> lock(mu);
        ready.push_back(r.to_json().dump());
      }
      cv.notify_one();
    }
  });

  // Non-job responses (stats, protocol errors, quit acks) flow through the
  // same writer; they answer promptly and may overtake responses of jobs
  // still simulating — run responses themselves always keep their
  // submission order.
  auto emit_now = [&](const Json& j) {
    std::lock_guard<std::mutex> lock(mu);
    ready.push_back(j.dump());
    cv.notify_one();
  };

  bool quit = false;
  std::string line;
  while (!quit && std::getline(in, line)) {
    if (line.empty()) continue;
    const ParseResult parsed = Json::parse(line);
    if (!parsed.ok) {
      Json err = Json::object();
      err.set("status", "rejected");
      Reject reject{"bad_json", "",
                         parsed.error + " at byte " +
                             std::to_string(parsed.offset)};
      err.set("reject", reject.to_json());
      emit_now(err);
      continue;
    }
    const Json* op = parsed.value.find("op");
    const std::string op_name =
        op != nullptr && op->is_string() ? op->as_string() : "";
    if (op_name == "run") {
      const Json* spec = parsed.value.find("spec");
      const std::uint64_t id =
          service.submit(spec != nullptr ? spec->dump() : "null");
      {
        std::lock_guard<std::mutex> lock(pending_mu);
        pending.push_back(id);
      }
      pending_cv.notify_one();
    } else if (op_name == "stats") {
      Json j = Json::object();
      j.set("status", "ok");
      j.set("stats", service.stats_json());
      emit_now(j);
    } else if (op_name == "quit") {
      Json j = Json::object();
      j.set("status", "ok");
      emit_now(j);
      quit = true;
    } else {
      Json err = Json::object();
      err.set("status", "rejected");
      Reject reject{"bad_op", "op",
                         "expected \"run\", \"stats\" or \"quit\""};
      err.set("reject", reject.to_json());
      emit_now(err);
    }
  }

  {
    std::lock_guard<std::mutex> lock(pending_mu);
    reader_done = true;
  }
  pending_cv.notify_all();
  collector.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  writer.join();
  return !quit;
}

}  // namespace deep::svc
