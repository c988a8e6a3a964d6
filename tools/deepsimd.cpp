// deepsimd — the multi-tenant simulation daemon (docs/service.md).
//
// Speaks line-delimited JSON: one request per line in, one response per
// line out, responses in submission order.  Requests:
//
//   {"op": "run", "spec": { ...JobSpec fields... }}
//   {"op": "stats"}            -> service instrument snapshot (svc.*)
//   {"op": "quit"}             -> drain and exit
//
// By default the daemon serves stdin/stdout — the transport composes with
// anything that can pipe (CI, socat, an inetd-style supervisor).  With
// --socket PATH it listens on a Unix stream socket instead and serves each
// connection on its own thread, up to kMaxConnections at once (past that,
// accept waits for one to end), so an idle client never starves another.
// Both transports run the same loop, svc::serve, over file descriptors: a
// socket client gets each response as soon as it is ready, with its write
// side still open.  A quit op on any connection closes the listener and
// ends reading on the others; the daemon exits once every connection has
// answered the runs it submitted.
//
//   deepsimd [options]
//     --workers N        in-process session workers        (default 2)
//     --workers-procs N  fork-per-job workers: each job simulates in its
//                        own forked child (hard isolation)
//     --queue N          pending-job capacity before load shedding
//                                                          (default 16)
//     --cache N          result-cache entries, 0 disables  (default 64)
//     --socket PATH      serve a Unix socket instead of stdin/stdout
//     --help
//
// A flag whose value is missing or not an integer is a usage error: exit 2.
//
// Requests pipeline: lines are submitted as they are read, up to the queue
// capacity of unanswered runs (then the loop stops reading until one is
// answered), jobs run concurrently on the worker pool, and run responses
// come back in submission order — so a hot cache answers a burst at queue
// speed.  A request line longer than svc::kMaxLineBytes is a too_large
// reject.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>

#include "flags.hpp"
#include "svc/serve.hpp"

namespace dsv = deep::svc;

namespace {

/// Socket connections served at once, one thread each.
constexpr std::size_t kMaxConnections = 16;

struct Options {
  dsv::ServiceConfig service;
  std::string socket_path;
};

void usage() {
  std::puts(
      "deepsimd — multi-tenant simulation service\n"
      "  --workers N   --workers-procs N   --queue N   --cache N\n"
      "  --socket PATH   --help\n"
      "protocol: one JSON request per line on stdin (or the socket):\n"
      "  {\"op\":\"run\",\"spec\":{...}}  {\"op\":\"stats\"}  {\"op\":\"quit\"}");
}

bool parse_args(int argc, char** argv, Options& opt) {
  using deep::tools::flag_int;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--help") return false;
    if (arg == "--workers" || arg == "--workers-procs") {
      ok = flag_int(argc, argv, i, opt.service.workers);
      opt.service.fork_per_job = arg == "--workers-procs";
    } else if (arg == "--queue") {
      ok = flag_int(argc, argv, i, opt.service.queue_capacity);
    } else if (arg == "--cache") {
      ok = flag_int(argc, argv, i, opt.service.cache_entries);
    } else if (arg == "--socket") {
      ok = deep::tools::flag_text(argc, argv, i, opt.socket_path);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

int serve_socket(dsv::Service& service, const std::string& path) {
  const int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    close(listener);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  unlink(path.c_str());
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listener, 8) != 0) {
    std::perror("bind/listen");
    close(listener);
    return 1;
  }
  std::fprintf(stderr, "deepsimd: serving %s\n", path.c_str());

  // Every field below is guarded by `mu`.  A connection's thread marks it
  // done as its last act; the accept loop joins and drops done ones.
  struct Connection {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };
  std::mutex mu;
  std::condition_variable ended;
  std::list<Connection> live;
  bool quit = false;
  const auto reap = [&] {
    for (auto it = live.begin(); it != live.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = live.erase(it);
    }
  };
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ended.wait(lock, [&] {
        reap();
        return quit || live.size() < kMaxConnections;
      });
      if (quit) break;
    }
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0 && errno == EINTR) continue;
    if (fd < 0) break;  // the listener was shut down by a quit
    std::lock_guard<std::mutex> lock(mu);
    if (quit) {
      close(fd);
      break;
    }
    Connection& conn = live.emplace_back();
    conn.fd = fd;
    try {
      conn.thread = std::thread([&, self = &conn] {
        const bool keep_going = dsv::serve(service, self->fd, self->fd);
        std::lock_guard<std::mutex> done_lock(mu);
        close(self->fd);
        self->done = true;
        if (!keep_going && !quit) {
          // Stop accepting (this wakes the accept above) and end reading on
          // the other connections: each still answers what it submitted.
          quit = true;
          shutdown(listener, SHUT_RDWR);
          for (const Connection& other : live)
            if (!other.done) shutdown(other.fd, SHUT_RD);
        }
        ended.notify_all();
      });
    } catch (const std::system_error&) {
      // No thread to serve it: the client sees its connection closed.
      close(fd);
      live.pop_back();
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ended.wait(lock, [&] {
      reap();
      return live.empty();
    });
  }
  close(listener);
  unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  // A client that hangs up ends its conversation (a failed write), not the
  // daemon.
  std::signal(SIGPIPE, SIG_IGN);
  dsv::Service service(opt.service);
  if (!opt.socket_path.empty())
    return serve_socket(service, opt.socket_path);
  dsv::serve(service, STDIN_FILENO, STDOUT_FILENO);
  return 0;
}
