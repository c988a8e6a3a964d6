#pragma once
// WormholeFabric: the link-booking core the torus, fat-tree and dragonfly
// booster fabrics share.  A fabric supplies routing, link ownership and its
// timing constants; the core owns the link table and books routes.
//
// A route is a span of hops {link, owner, lat}.  Booking one hop is
//
//     head = max(head, free[link]) + lat
//
// in integer picoseconds; the tail follows the head by the serialisation
// time (plus the fabric's tail_penalty), every booked link is held until
// the tail passes, and the message is delivered `exit` after the tail.  Two
// accumulation orders fit that one rule:
//   * hop by hop (torus): the head enters at the injection time and every
//     hop carries the router latency;
//   * path latency first (fat-tree, dragonfly): the head enters at now plus
//     the whole path latency and every hop carries lat = 0, so booking is a
//     max over the links' free times.
//
// Ownership makes the same walk safe under the parallel engine
// (docs/parallel_engine.md §4).  Each link is booked only by its owner
// partition.  The source books the contiguous prefix it owns; links in the
// middle, and links with no owner, add only their latency (foreign
// contention is approximated away); a continuation scheduled on the
// destination partition at the analytic head arrival books the contiguous
// suffix the destination owns.  A serial run is the one-owner case: every
// link belongs to partition 0, the prefix is the whole route and nothing
// crosses.  Control-class messages take the priority virtual channel: they
// pay every hop's latency but never queue on, or hold, a link.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/fabric.hpp"

namespace deep::net {

class WormholeFabric : public Fabric {
 public:
  using Fabric::Fabric;

 protected:
  /// Dense index into the link table.
  using LinkId = std::uint32_t;

  struct Hop {
    LinkId link;
    std::uint32_t owner;  // booking partition, or kNoOwner
    sim::Duration lat;    // added to the head after this link
  };
  using Route = std::span<const Hop>;

  /// Appends `n` idle links to the table and returns the first one's id.
  /// Call only at construction or attach: the send path never grows the
  /// table, so partitioned workers can share it.
  LinkId add_links(std::size_t n) {
    const std::size_t first = link_free_.size();
    DEEP_EXPECT(first + n <= std::numeric_limits<LinkId>::max(),
                "WormholeFabric: link table overflow");
    link_free_.resize(first + n);
    return static_cast<LinkId>(first);
  }

  /// The time `link` is busy until (read by adaptive routing).
  sim::TimePoint link_free(LinkId link) const { return link_free_[link]; }
  /// Writable slot for fabric-private pseudo-links (the torus engines).
  sim::TimePoint& link_free(LinkId link) { return link_free_[link]; }

  /// The route `msg` takes, written into scratch_hops().  Must be a pure
  /// function of the message and the fabric state the continuation sees:
  /// the destination partition calls it again to find the suffix.
  virtual Route route(const Message& msg) const = 0;

  /// Extra tail delay for a message booked over `nlinks` links (the torus
  /// retransmission penalty).  Runs on the lane that finishes the message.
  virtual sim::Duration tail_penalty(std::int64_t bytes, int nlinks) {
    (void)bytes;
    (void)nlinks;
    return {};
  }

  /// This thread's scratch buffer for a route of `n` hops, valid until the
  /// next call on this thread.  A route lives only within one send() or
  /// continuation, which never yields or nests, so one buffer per thread
  /// serves every lane and fabric.
  static Hop* scratch_hops(std::size_t n) {
    thread_local std::vector<Hop> hops;
    if (hops.size() < n) hops.resize(n);
    return hops.data();
  }

  /// Sends `msg` over `path` with the head entering the first hop at
  /// `head`; `wire` is the serialisation time and `exit` the delay from the
  /// tail leaving the last link to delivery.
  void transmit(Message&& msg, Service svc, Route path, sim::TimePoint head,
                sim::Duration wire, sim::Duration exit);

  // Occupancy (wire time summed per booked link) and head latency (injection
  // to head at the destination, queueing included).  Registered only by
  // fabrics that report them; null handles record nothing.
  obs::Counter m_link_busy_ps_;
  obs::Histogram m_head_wait_ns_;

 private:
  /// Destination-side continuation: books the last `nsuffix` hops of the
  /// route from the analytic head arrival (now) and delivers.
  void finish(Message&& msg, std::size_t nsuffix, sim::Duration wire,
              sim::Duration exit);

  /// Link busy-until times.  Shared across partitions; every entry is
  /// written only by the partition owning its link.
  std::vector<sim::TimePoint> link_free_;
};

}  // namespace deep::net
