#pragma once
// The line protocol of `deepsimd` (docs/service.md §2), one loop for every
// transport: stdin/stdout and each Unix-socket connection alike.
//
// The loop is bounded.  A request line longer than kMaxLineBytes is a
// `too_large` reject, skipped to its newline without being buffered.  A
// `run` is submitted only while fewer than max(1, queue capacity) runs of
// the conversation are unanswered, so the loop applies back-pressure by not
// reading and a conversation is never shed with `queue_full`.

#include <cstddef>

#include "svc/service.hpp"

namespace deep::svc {

/// Longest request line the loop parses, in bytes (the newline excluded).
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// One protocol conversation: reads requests from `in_fd` until EOF, a quit
/// op or a failed write, pipelines them through the service and writes
/// responses to `out_fd` as they are ready, `run` responses in submission
/// order.  Runs on the caller's thread plus one collector thread that
/// writes the `run` responses.  Returns false when a quit op asked the
/// caller to stop for good.
bool serve(Service& service, int in_fd, int out_fd);

}  // namespace deep::svc
