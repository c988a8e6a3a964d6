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
// --socket PATH it listens on a Unix stream socket instead and serves one
// connection at a time with the same protocol.
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
// Requests pipeline: every line is submitted as soon as it is read, jobs
// run concurrently on the worker pool, and a writer thread emits results
// in submission order — so a hot cache answers a burst at queue speed.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "svc/serve.hpp"

namespace dsv = deep::svc;

namespace {

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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help") return false;
    if (arg == "--workers") {
      opt.service.workers = std::atoi(next());
      opt.service.fork_per_job = false;
    } else if (arg == "--workers-procs") {
      opt.service.workers = std::atoi(next());
      opt.service.fork_per_job = true;
    } else if (arg == "--queue") {
      opt.service.queue_capacity =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--cache") {
      opt.service.cache_entries = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--socket") {
      opt.socket_path = next();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
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
  for (;;) {
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    // One conversation at a time; concurrency lives in the worker pool.
    // A buffered bidirectional stream over the fd keeps the protocol code
    // identical to the stdin/stdout path.
    std::string input;
    char buf[4096];
    for (;;) {
      const ssize_t n = read(fd, buf, sizeof buf);
      if (n <= 0) break;
      input.append(buf, static_cast<std::size_t>(n));
      // A half-duplex turn ends when the client shuts down its write side;
      // simple clients send everything then shutdown(SHUT_WR).
    }
    std::istringstream in(input);
    std::ostringstream out;
    const bool keep_going = serve_stream(service, in, out);
    const std::string& reply = out.str();
    std::size_t off = 0;
    while (off < reply.size()) {
      const ssize_t n = write(fd, reply.data() + off, reply.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fd);
    if (!keep_going) break;
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
  dsv::Service service(opt.service);
  if (!opt.socket_path.empty())
    return serve_socket(service, opt.socket_path);
  serve_stream(service, std::cin, std::cout);
  return 0;
}
