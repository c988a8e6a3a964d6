#include "net/wormhole.hpp"

#include <algorithm>

#include "net/pool.hpp"

namespace deep::net {

void WormholeFabric::transmit(Message&& msg, Service svc, Route path,
                              sim::TimePoint head, sim::Duration wire,
                              sim::Duration exit) {
  if (svc == Service::Control) {
    // Priority virtual channel: latency only.  Analytic, so deliver_at
    // handles a cross-partition destination directly.
    for (const Hop& hop : path) head = head + hop.lat;
    deliver_at(head + wire + exit, std::move(msg));
    return;
  }

  const std::uint32_t src_part = partition_of(msg.src);
  const std::uint32_t dst_part = partition_of(msg.dst);
  const std::size_t n = path.size();
  std::size_t prefix = 0;
  for (; prefix < n && path[prefix].owner == src_part; ++prefix)
    head = std::max(head, link_free_[path[prefix].link]) + path[prefix].lat;
  std::size_t suffix = n;
  while (suffix > prefix && path[suffix - 1].owner == dst_part) --suffix;
  const sim::TimePoint prefix_head = head;
  for (std::size_t i = prefix; i < suffix; ++i) head = head + path[i].lat;
  const sim::TimePoint now = engine_->now();

  if (src_part == dst_part) {
    // Finish inline: book the suffix, hold every booked link to the tail.
    for (std::size_t i = suffix; i < n; ++i)
      head = std::max(head, link_free_[path[i].link]) + path[i].lat;
    m_head_wait_ns_.record((head - now).ps / 1000);
    m_link_busy_ps_.add(wire.ps * static_cast<std::int64_t>(prefix + n - suffix));
    const sim::TimePoint tail =
        head + wire + tail_penalty(msg.size_bytes, static_cast<int>(n));
    for (std::size_t i = 0; i < prefix; ++i) link_free_[path[i].link] = tail;
    for (std::size_t i = suffix; i < n; ++i) link_free_[path[i].link] = tail;
    deliver_at(tail + exit, std::move(msg));
    return;
  }

  // Cross partition: hold the prefix until the tail clears it, then continue
  // on the destination partition at the analytic head arrival.  `head` is at
  // least the pair lookahead past now: the walk paid every hop's latency up
  // to the suffix, and the suffix starts no nearer than the partitions'
  // route distance.
  const sim::TimePoint prefix_tail = prefix_head + wire;
  for (std::size_t i = 0; i < prefix; ++i)
    link_free_[path[i].link] = prefix_tail;
  m_head_wait_ns_.record((head - now).ps / 1000);
  m_link_busy_ps_.add(wire.ps * static_cast<std::int64_t>(prefix));
  engine_->schedule_on(
      dst_part, head,
      [this, wire, exit, nsuffix = n - suffix,
       m = PooledMessage(std::move(msg))]() mutable {
        finish(m.take(), nsuffix, wire, exit);
      });
}

void WormholeFabric::finish(Message&& msg, std::size_t nsuffix,
                            sim::Duration wire, sim::Duration exit) {
  // Running on the destination partition: the route is rebuilt from this
  // lane's state, and every link booked below is owned here.
  const Route path = route(msg);
  const std::size_t first = path.size() - nsuffix;
  sim::TimePoint head = engine_->now();
  for (std::size_t i = first; i < path.size(); ++i)
    head = std::max(head, link_free_[path[i].link]) + path[i].lat;
  m_link_busy_ps_.add(wire.ps * static_cast<std::int64_t>(nsuffix));
  const sim::TimePoint tail =
      head + wire + tail_penalty(msg.size_bytes, static_cast<int>(nsuffix));
  for (std::size_t i = first; i < path.size(); ++i)
    link_free_[path[i].link] = tail;
  deliver_at(tail + exit, std::move(msg));
}

}  // namespace deep::net
