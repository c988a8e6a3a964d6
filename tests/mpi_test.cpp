// Tests for the Global-MPI layer: point-to-point semantics (ordering, tags,
// wildcards, eager/rendezvous), collectives, communicator management and
// cross-fabric behaviour.

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "io/ionet.hpp"
#include "mpi_rig.hpp"
#include "util/error.hpp"

namespace dm = deep::mpi;
namespace ds = deep::sim;
using deep::testing::BridgedMpiRig;
using deep::testing::MpiRig;

namespace {

template <typename T>
std::span<const T> cspan(const std::vector<T>& v) {
  return std::span<const T>(v);
}
template <typename T>
std::span<T> mspan(std::vector<T>& v) {
  return std::span<T>(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

TEST(P2P, BlockingSendRecvRoundTrip) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    std::vector<double> buf{0.0, 0.0, 0.0};
    if (mpi.rank() == 0) {
      const std::vector<double> data{1.5, 2.5, 3.5};
      mpi.send<double>(mpi.world(), 1, 7, cspan(data));
    } else {
      const auto st = mpi.recv<double>(mpi.world(), 0, 7, mspan(buf));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 24);
      EXPECT_EQ(buf, (std::vector<double>{1.5, 2.5, 3.5}));
    }
  });
}

TEST(P2P, RecvBeforeSendBlocks) {
  MpiRig rig(2);
  ds::TimePoint recv_done{};
  rig.run([&](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.ctx().delay(ds::microseconds(500));  // receiver waits this long
      const std::vector<int> v{42};
      mpi.send<int>(mpi.world(), 1, 0, cspan(v));
    } else {
      std::vector<int> v(1);
      mpi.recv<int>(mpi.world(), 0, 0, mspan(v));
      recv_done = mpi.ctx().now();
      EXPECT_EQ(v[0], 42);
    }
  });
  EXPECT_GT(recv_done.ps, ds::microseconds(500).ps);
}

TEST(P2P, UnexpectedMessageIsBuffered) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      const std::vector<int> v{9};
      mpi.send<int>(mpi.world(), 1, 3, cspan(v));
    } else {
      mpi.ctx().delay(ds::milliseconds(1));  // message arrives before recv
      std::vector<int> v(1);
      mpi.recv<int>(mpi.world(), 0, 3, mspan(v));
      EXPECT_EQ(v[0], 9);
    }
  });
}

// A match taken from the middle of a queue leaves the rest in arrival
// order, for the unexpected queue (messages in before the receives) and the
// posted queue (receives posted before the messages).
TEST(P2P, MatchingAfterAMiddleTakeStaysEarliestFirst) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    const auto send = [&](dm::Tag tag, int value) {
      const std::vector<int> v{value};
      mpi.send<int>(mpi.world(), 1, tag, cspan(v));
    };
    const auto recv = [&](dm::Tag tag) {
      std::vector<int> v(1);
      mpi.recv<int>(mpi.world(), 0, tag, mspan(v));
      return v[0];
    };
    if (mpi.rank() == 0) {
      for (const auto& [tag, value] :
           {std::pair{1, 10}, {2, 20}, {3, 30}, {3, 31}, {3, 32}})
        send(tag, value);
      mpi.ctx().delay(ds::milliseconds(1));  // rank 1 posts in between
      for (const auto& [tag, value] :
           {std::pair{2, 21}, {7, 70}, {8, 80}, {9, 90}, {1, 11}})
        send(tag, value);
    } else {
      mpi.ctx().delay(ds::microseconds(500));  // all five are unexpected
      EXPECT_EQ(recv(2), 20);
      EXPECT_EQ(recv(3), 30);
      EXPECT_EQ(recv(3), 31);
      EXPECT_EQ(recv(3), 32);
      EXPECT_EQ(recv(1), 10);
      std::vector<int> got(5, -1);
      const dm::Tag tags[5] = {1, 2, dm::kAnyTag, dm::kAnyTag, dm::kAnyTag};
      std::vector<dm::RequestPtr> reqs;
      for (int i = 0; i < 5; ++i)
        reqs.push_back(mpi.irecv<int>(mpi.world(), 0, tags[i],
                                      mspan(got).subspan(i, 1)));
      mpi.wait_all(reqs);
      EXPECT_EQ(got, (std::vector<int>{11, 21, 70, 80, 90}));
    }
  });
}

TEST(P2P, MessagesDoNotOvertake) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        const std::vector<int> v{i};
        mpi.send<int>(mpi.world(), 1, 5, cspan(v));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        std::vector<int> v(1);
        mpi.recv<int>(mpi.world(), 0, 5, mspan(v));
        EXPECT_EQ(v[0], i);  // FIFO per (src, tag)
      }
    }
  });
}

TEST(P2P, TagsSelectMessages) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      const std::vector<int> a{1}, b{2};
      mpi.send<int>(mpi.world(), 1, 10, cspan(a));
      mpi.send<int>(mpi.world(), 1, 20, cspan(b));
    } else {
      std::vector<int> v(1);
      // Receive tag 20 first even though tag 10 arrived earlier.
      mpi.recv<int>(mpi.world(), 0, 20, mspan(v));
      EXPECT_EQ(v[0], 2);
      mpi.recv<int>(mpi.world(), 0, 10, mspan(v));
      EXPECT_EQ(v[0], 1);
    }
  });
}

TEST(P2P, AnySourceAndAnyTag) {
  MpiRig rig(3);
  rig.run([](dm::Mpi& mpi) {
    if (mpi.rank() > 0) {
      const std::vector<int> v{mpi.rank() * 100};
      mpi.send<int>(mpi.world(), 0, mpi.rank(), cspan(v));
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        std::vector<int> v(1);
        const auto st =
            mpi.recv<int>(mpi.world(), dm::kAnySource, dm::kAnyTag, mspan(v));
        EXPECT_EQ(v[0], st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        sum += v[0];
      }
      EXPECT_EQ(sum, 300);
    }
  });
}

TEST(P2P, EagerAndRendezvousBothDeliver) {
  dm::MpiParams params;
  params.eager_threshold = 1024;
  MpiRig rig(2, params);
  rig.run([](dm::Mpi& mpi) {
    const std::size_t small = 64, large = 1 << 20;  // below/above threshold
    if (mpi.rank() == 0) {
      std::vector<std::uint8_t> s(small, 0xAB), l(large);
      for (std::size_t i = 0; i < large; ++i)
        l[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
      mpi.send<std::uint8_t>(mpi.world(), 1, 1, cspan(s));
      mpi.send<std::uint8_t>(mpi.world(), 1, 2, cspan(l));
    } else {
      std::vector<std::uint8_t> s(small), l(large);
      mpi.recv<std::uint8_t>(mpi.world(), 0, 1, mspan(s));
      mpi.recv<std::uint8_t>(mpi.world(), 0, 2, mspan(l));
      EXPECT_EQ(s[0], 0xAB);
      EXPECT_EQ(s[small - 1], 0xAB);
      bool ok = true;
      for (std::size_t i = 0; i < large; ++i)
        ok = ok && l[i] == static_cast<std::uint8_t>(i * 2654435761u >> 24);
      EXPECT_TRUE(ok);
    }
  });
}

TEST(P2P, RendezvousWaitsForReceiver) {
  // A rendezvous send cannot complete before the receiver posts: the wire
  // must carry RTS -> CTS -> data.
  dm::MpiParams params;
  params.eager_threshold = 0;  // force rendezvous for everything
  MpiRig rig(2, params);
  ds::TimePoint send_done{};
  rig.run([&](dm::Mpi& mpi) {
    if (mpi.rank() == 0) {
      const std::vector<int> v{5};
      mpi.send<int>(mpi.world(), 1, 0, cspan(v));
      send_done = mpi.ctx().now();
    } else {
      mpi.ctx().delay(ds::milliseconds(2));
      std::vector<int> v(1);
      mpi.recv<int>(mpi.world(), 0, 0, mspan(v));
      EXPECT_EQ(v[0], 5);
    }
  });
  EXPECT_GT(send_done.ps, ds::milliseconds(2).ps);
}

TEST(P2P, TruncationThrows) {
  MpiRig rig(2);
  EXPECT_THROW(
      rig.run([](dm::Mpi& mpi) {
        if (mpi.rank() == 0) {
          const std::vector<int> v{1, 2, 3, 4};
          mpi.send<int>(mpi.world(), 1, 0, cspan(v));
        } else {
          std::vector<int> v(1);  // too small
          mpi.recv<int>(mpi.world(), 0, 0, mspan(v));
        }
      }),
      deep::util::UsageError);
}

TEST(P2P, NonBlockingOverlap) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    std::vector<int> in(4), out{10, 20, 30, 40};
    const dm::Rank peer = 1 - mpi.rank();
    auto r = mpi.irecv<int>(mpi.world(), peer, 0, mspan(in));
    auto s = mpi.isend<int>(mpi.world(), peer, 0, cspan(out));
    EXPECT_NO_THROW(mpi.test(r));
    mpi.wait(s);
    mpi.wait(r);
    EXPECT_EQ(in, out);
  });
}

TEST(P2P, SendRecvExchanges) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    const std::vector<int> mine{mpi.rank()};
    std::vector<int> theirs(1, -1);
    const dm::Rank peer = 1 - mpi.rank();
    mpi.sendrecv_bytes(mpi.world(), peer, 0, std::as_bytes(cspan(mine)), peer,
                       0, std::as_writable_bytes(mspan(theirs)));
    EXPECT_EQ(theirs[0], peer);
  });
}

TEST(P2P, SendToSelf) {
  MpiRig rig(1);
  rig.run([](dm::Mpi& mpi) {
    const std::vector<int> v{77};
    std::vector<int> in(1);
    auto r = mpi.irecv<int>(mpi.world(), 0, 0, mspan(in));
    mpi.send<int>(mpi.world(), 0, 0, cspan(v));
    mpi.wait(r);
    EXPECT_EQ(in[0], 77);
  });
}

TEST(P2P, UserNegativeTagRejected) {
  MpiRig rig(2);
  EXPECT_THROW(rig.run([](dm::Mpi& mpi) {
                 std::vector<int> v{0};
                 if (mpi.rank() == 0)
                   mpi.send<int>(mpi.world(), 1, -5, cspan(v));
                 else
                   mpi.recv<int>(mpi.world(), 0, -5, mspan(v));
               }),
               deep::util::UsageError);
}

TEST(P2P, DeadlockIsDetected) {
  MpiRig rig(2);
  EXPECT_THROW(rig.run([](dm::Mpi& mpi) {
                 std::vector<int> v(1);
                 mpi.recv<int>(mpi.world(), 1 - mpi.rank(), 0, mspan(v));
               }),
               deep::util::SimError);
}

// ---------------------------------------------------------------------------
// Deadlock report wording.  Deadlocked sessions put this text into their
// fingerprints, so every blocking call's note is pinned byte for byte.
// ---------------------------------------------------------------------------

namespace {

/// Runs `fn` on `ranks` ranks and returns the deadlock report it ends in.
std::string deadlock_report(int ranks, const std::function<void(dm::Mpi&)>& fn) {
  MpiRig rig(ranks);
  try {
    rig.run(fn);
  } catch (const deep::util::SimError& e) {
    return e.what();
  }
  return "(no deadlock)";
}

}  // namespace

TEST(DeadlockReport, WaitNamesRequestPeerAndTag) {
  EXPECT_EQ(deadlock_report(2,
                            [](dm::Mpi& mpi) {
                              std::vector<int> v(1);
                              mpi.recv<int>(mpi.world(), 1 - mpi.rank(), 7,
                                            mspan(v));
                            }),
            "simulation deadlock: event queue drained with 2 process(es) "
            "still blocked:"
            "\n  rank0 (id=0, waiting): blocked on wait(irecv peer=1 tag=7)"
            "\n  rank1 (id=1, waiting): blocked on wait(irecv peer=0 tag=7)");
  // Wildcards drop the field they leave open.
  EXPECT_EQ(deadlock_report(1,
                            [](dm::Mpi& mpi) {
                              std::vector<int> v(1);
                              mpi.recv<int>(mpi.world(), dm::kAnySource, 5,
                                            mspan(v));
                            }),
            "simulation deadlock: event queue drained with 1 process(es) "
            "still blocked:"
            "\n  rank0 (id=0, waiting): blocked on wait(irecv tag=5)");
}

TEST(DeadlockReport, WaitAnyNamesCountAndFirstRequest) {
  EXPECT_EQ(deadlock_report(2,
                            [](dm::Mpi& mpi) {
                              if (mpi.rank() != 0) return;
                              std::vector<int> a(1), b(1);
                              const dm::RequestPtr reqs[] = {
                                  mpi.irecv<int>(mpi.world(), 1, 3, mspan(a)),
                                  mpi.irecv<int>(mpi.world(), dm::kAnySource,
                                                 dm::kAnyTag, mspan(b))};
                              mpi.wait_any(reqs);
                            }),
            "simulation deadlock: event queue drained with 1 process(es) "
            "still blocked:"
            "\n  rank0 (id=0, waiting): blocked on wait_any(2 requests, "
            "first: irecv peer=1 tag=3)");
}

TEST(DeadlockReport, ProbeNamesSourceAndTag) {
  EXPECT_EQ(deadlock_report(2,
                            [](dm::Mpi& mpi) {
                              if (mpi.rank() == 1) mpi.probe(mpi.world(), 0, 4);
                            }),
            "simulation deadlock: event queue drained with 1 process(es) "
            "still blocked:"
            "\n  rank1 (id=1, waiting): blocked on probe(src=0, tag=4)");
}

TEST(DeadlockReport, ClearedNoteNamesNothing) {
  // Rank 0's wait finished (its note was cleared); it then blocks where no
  // layer sets a note.
  EXPECT_EQ(deadlock_report(2,
                            [](dm::Mpi& mpi) {
                              std::vector<int> v{1};
                              if (mpi.rank() == 1) {
                                mpi.send<int>(mpi.world(), 0, 2, cspan(v));
                                return;
                              }
                              mpi.recv<int>(mpi.world(), 1, 2, mspan(v));
                              mpi.ctx().suspend();
                            }),
            "simulation deadlock: event queue drained with 1 process(es) "
            "still blocked:"
            "\n  rank0 (id=0, waiting)");
}

TEST(DeadlockReport, IoWaitNoteOutlivesTheWait) {
  // IoNet::wait leaves its note set: a process that later blocks without a
  // note of its own is still reported as blocked on io.wait.
  ds::Engine eng;
  deep::net::CrossbarFabric ib(eng, "ib", {});
  deep::cbp::DirectTransport transport(ib);
  deep::io::IoNet io(eng, transport);
  io.attach(ib.attach(0));
  io.attach(ib.attach(1));
  bool ok = false;
  eng.spawn("client", [&](ds::Context& ctx) {
    ok = io.transfer(ctx, 0, 1, deep::io::OpKind::FsWrite, 4096, 0);
    ctx.suspend();
  });
  std::string report = "(no deadlock)";
  try {
    eng.run();
  } catch (const deep::util::SimError& e) {
    report = e.what();
  }
  EXPECT_TRUE(ok);
  EXPECT_EQ(report,
            "simulation deadlock: event queue drained with 1 process(es) "
            "still blocked:"
            "\n  client (id=0, waiting): blocked on io.wait");
}

// ---------------------------------------------------------------------------
// Collectives — correctness over a sweep of communicator sizes
// ---------------------------------------------------------------------------

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, Barrier) {
  MpiRig rig(GetParam());
  std::vector<ds::TimePoint> done(static_cast<std::size_t>(GetParam()));
  rig.run([&](dm::Mpi& mpi) {
    if (mpi.rank() == 0) mpi.ctx().delay(ds::milliseconds(3));
    mpi.barrier(mpi.world());
    done[static_cast<std::size_t>(mpi.rank())] = mpi.ctx().now();
  });
  // No rank can leave the barrier before the slowest entered.
  for (const auto& t : done) EXPECT_GE(t.ps, ds::milliseconds(3).ps);
}

TEST_P(CollectiveSweep, Bcast) {
  const int n = GetParam();
  MpiRig rig(n);
  rig.run([&](dm::Mpi& mpi) {
    std::vector<std::int64_t> data(257);
    if (mpi.rank() == 0)
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::int64_t>(i * 31 + 7);
    mpi.bcast<std::int64_t>(mpi.world(), 0, mspan(data));
    for (std::size_t i = 0; i < data.size(); ++i)
      ASSERT_EQ(data[i], static_cast<std::int64_t>(i * 31 + 7));
  });
}

TEST_P(CollectiveSweep, BcastNonZeroRoot) {
  const int n = GetParam();
  MpiRig rig(n);
  const dm::Rank root = n - 1;
  rig.run([&](dm::Mpi& mpi) {
    std::vector<int> data(16, mpi.rank() == root ? 99 : 0);
    mpi.bcast<int>(mpi.world(), root, mspan(data));
    for (int v : data) ASSERT_EQ(v, 99);
  });
}

TEST_P(CollectiveSweep, ReduceSum) {
  const int n = GetParam();
  MpiRig rig(n);
  rig.run([&](dm::Mpi& mpi) {
    const std::vector<double> in(8, static_cast<double>(mpi.rank() + 1));
    std::vector<double> out(8, -1.0);
    mpi.reduce<double>(mpi.world(), 0, dm::Op::Sum, cspan(in), mspan(out));
    if (mpi.rank() == 0) {
      const double expected = n * (n + 1) / 2.0;
      for (double v : out) ASSERT_DOUBLE_EQ(v, expected);
    }
  });
}

TEST_P(CollectiveSweep, AllreduceMinMax) {
  const int n = GetParam();
  MpiRig rig(n);
  rig.run([&](dm::Mpi& mpi) {
    const std::vector<int> in{mpi.rank(), -mpi.rank()};
    std::vector<int> mn(2), mx(2);
    mpi.allreduce<int>(mpi.world(), dm::Op::Min, cspan(in), mspan(mn));
    mpi.allreduce<int>(mpi.world(), dm::Op::Max, cspan(in), mspan(mx));
    EXPECT_EQ(mn[0], 0);
    EXPECT_EQ(mn[1], -(n - 1));
    EXPECT_EQ(mx[0], n - 1);
    EXPECT_EQ(mx[1], 0);
  });
}

TEST_P(CollectiveSweep, GatherScatterRoundTrip) {
  const int n = GetParam();
  MpiRig rig(n);
  rig.run([&](dm::Mpi& mpi) {
    const std::vector<int> mine{mpi.rank() * 2, mpi.rank() * 2 + 1};
    std::vector<int> all(static_cast<std::size_t>(2 * n));
    mpi.gather<int>(mpi.world(), 0, cspan(mine), mspan(all));
    if (mpi.rank() == 0) {
      for (int i = 0; i < 2 * n; ++i) {
        ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
      }
    }

    std::vector<int> back(2, -1);
    mpi.scatter<int>(mpi.world(), 0, cspan(all), mspan(back));
    EXPECT_EQ(back, mine);
  });
}

TEST_P(CollectiveSweep, Allgather) {
  const int n = GetParam();
  MpiRig rig(n);
  rig.run([&](dm::Mpi& mpi) {
    const std::vector<int> mine{mpi.rank() + 1000};
    std::vector<int> all(static_cast<std::size_t>(n));
    mpi.allgather<int>(mpi.world(), cspan(mine), mspan(all));
    for (int r = 0; r < n; ++r) ASSERT_EQ(all[static_cast<std::size_t>(r)], r + 1000);
  });
}

TEST_P(CollectiveSweep, Alltoall) {
  const int n = GetParam();
  MpiRig rig(n);
  rig.run([&](dm::Mpi& mpi) {
    // send[j] = 100*me + j; after alltoall recv[j] = 100*j + me.
    std::vector<int> send(static_cast<std::size_t>(n)),
        recv(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
      send[static_cast<std::size_t>(j)] = 100 * mpi.rank() + j;
    mpi.alltoall<int>(mpi.world(), cspan(send), mspan(recv));
    for (int j = 0; j < n; ++j)
      ASSERT_EQ(recv[static_cast<std::size_t>(j)], 100 * j + mpi.rank());
  });
}

TEST_P(CollectiveSweep, InclusiveScan) {
  const int n = GetParam();
  MpiRig rig(n);
  rig.run([&](dm::Mpi& mpi) {
    const std::vector<int> in{mpi.rank() + 1};
    std::vector<int> out(1);
    mpi.scan<int>(mpi.world(), dm::Op::Sum, cspan(in), mspan(out));
    EXPECT_EQ(out[0], (mpi.rank() + 1) * (mpi.rank() + 2) / 2);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 32));

TEST(Collectives, ConsecutiveCollectivesDoNotInterfere) {
  MpiRig rig(4);
  rig.run([](dm::Mpi& mpi) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<int> v{mpi.rank() == 2 ? iter : -1};
      mpi.bcast<int>(mpi.world(), 2, mspan(v));
      ASSERT_EQ(v[0], iter);
      std::vector<int> s{1}, r(1);
      mpi.allreduce<int>(mpi.world(), dm::Op::Sum, cspan(s), mspan(r));
      ASSERT_EQ(r[0], 4);
    }
  });
}

TEST(Collectives, LargePayloadBcastUsesRendezvous) {
  dm::MpiParams params;
  params.eager_threshold = 4096;
  MpiRig rig(4, params);
  rig.run([](dm::Mpi& mpi) {
    std::vector<double> data(1 << 16);  // 512 KiB >> threshold
    if (mpi.rank() == 1)
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<double>(i) * 0.5;
    mpi.bcast<double>(mpi.world(), 1, mspan(data));
    for (std::size_t i = 0; i < data.size(); i += 997)
      ASSERT_DOUBLE_EQ(data[i], static_cast<double>(i) * 0.5);
  });
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

TEST(CommMgmt, SplitIntoEvenOdd) {
  MpiRig rig(6);
  rig.run([](dm::Mpi& mpi) {
    auto sub = mpi.split(mpi.world(), mpi.rank() % 2, mpi.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), mpi.rank() / 2);
    // Sum of world ranks within my parity group.
    const std::vector<int> in{mpi.rank()};
    std::vector<int> out(1);
    mpi.allreduce<int>(sub, dm::Op::Sum, cspan(in), mspan(out));
    EXPECT_EQ(out[0], mpi.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(CommMgmt, SplitHonoursKeyOrder) {
  MpiRig rig(4);
  rig.run([](dm::Mpi& mpi) {
    // Reverse the rank order via the key.
    auto sub = mpi.split(mpi.world(), 0, -mpi.rank());
    EXPECT_EQ(sub.rank(), mpi.size() - 1 - mpi.rank());
  });
}

TEST(CommMgmt, SplitUndefinedYieldsNull) {
  MpiRig rig(4);
  rig.run([](dm::Mpi& mpi) {
    auto sub = mpi.split(mpi.world(),
                         mpi.rank() == 0 ? dm::Mpi::kUndefinedColor : 1, 0);
    if (mpi.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
      mpi.barrier(sub);
    }
  });
}

TEST(CommMgmt, DupIsIndependent) {
  MpiRig rig(3);
  rig.run([](dm::Mpi& mpi) {
    auto copy = mpi.dup(mpi.world());
    EXPECT_EQ(copy.size(), mpi.size());
    EXPECT_EQ(copy.rank(), mpi.rank());
    // Traffic on the dup must not match recvs on the world.
    if (mpi.rank() == 0) {
      const std::vector<int> v{123};
      mpi.send<int>(copy, 1, 0, cspan(v));
      const std::vector<int> w{456};
      mpi.send<int>(mpi.world(), 1, 0, cspan(w));
    } else if (mpi.rank() == 1) {
      std::vector<int> v(1);
      mpi.recv<int>(mpi.world(), 0, 0, mspan(v));
      EXPECT_EQ(v[0], 456);  // world recv got the world message
      mpi.recv<int>(copy, 0, 0, mspan(v));
      EXPECT_EQ(v[0], 123);
    }
  });
}

TEST(CommMgmt, NestedSplit) {
  MpiRig rig(8);
  rig.run([](dm::Mpi& mpi) {
    auto half = mpi.split(mpi.world(), mpi.rank() / 4, mpi.rank());
    auto quarter = mpi.split(half, half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    std::vector<int> v{1}, out(1);
    mpi.allreduce<int>(quarter, dm::Op::Sum, cspan(v), mspan(out));
    EXPECT_EQ(out[0], 2);
  });
}

// ---------------------------------------------------------------------------
// Global MPI across the bridged (cluster + booster) system
// ---------------------------------------------------------------------------

TEST(GlobalMpi, CrossFabricP2P) {
  BridgedMpiRig rig(2, 2, 1);
  rig.run([](dm::Mpi& mpi) {
    // Rank 0 (cluster) <-> rank 3 (booster).
    if (mpi.rank() == 0) {
      const std::vector<double> v{3.14, 2.71};
      mpi.send<double>(mpi.world(), 3, 1, cspan(v));
      std::vector<double> r(2);
      mpi.recv<double>(mpi.world(), 3, 2, mspan(r));
      EXPECT_DOUBLE_EQ(r[0], 6.28);
    } else if (mpi.rank() == 3) {
      std::vector<double> r(2);
      mpi.recv<double>(mpi.world(), 0, 1, mspan(r));
      const std::vector<double> v{r[0] * 2, r[1] * 2};
      mpi.send<double>(mpi.world(), 0, 2, cspan(v));
    }
  });
  EXPECT_GT(rig.bridge().gateway_stats(4).forwarded_messages, 0);
}

TEST(GlobalMpi, CollectivesSpanBothSides) {
  BridgedMpiRig rig(3, 5, 2);
  rig.run([](dm::Mpi& mpi) {
    const std::vector<int> in{mpi.rank()};
    std::vector<int> out(1);
    mpi.allreduce<int>(mpi.world(), dm::Op::Sum, cspan(in), mspan(out));
    EXPECT_EQ(out[0], 28);  // 0+..+7
    std::vector<int> all(8);
    mpi.allgather<int>(mpi.world(), cspan(in), mspan(all));
    for (int r = 0; r < 8; ++r) ASSERT_EQ(all[static_cast<std::size_t>(r)], r);
  });
}

TEST(GlobalMpi, RoundRobinGatewayPreservesMpiOrdering) {
  // Round-robin gateway selection can reorder the wire; the endpoint's
  // sequence numbers must restore MPI's non-overtaking guarantee.
  BridgedMpiRig rig(1, 1, 3, deep::cbp::GatewayPolicy::RoundRobin);
  rig.run([](dm::Mpi& mpi) {
    constexpr int kMessages = 50;
    if (mpi.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        // Alternate sizes so consecutive messages take different paths and
        // different service classes.
        std::vector<int> v(i % 3 == 0 ? 8192 : 1, i);
        mpi.send<int>(mpi.world(), 1, 0, cspan(v));
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        std::vector<int> v(8192);
        mpi.recv<int>(mpi.world(), 0, 0, mspan(v));
        ASSERT_EQ(v[0], i);
      }
    }
  });
}

TEST(GlobalMpi, BoosterSideLatencyBeatsCrossTraffic) {
  BridgedMpiRig rig(2, 2, 1);
  ds::Duration intra_booster{}, cross{};
  rig.run([&](dm::Mpi& mpi) {
    std::vector<std::byte> buf(8);
    const auto t0 = mpi.ctx().now();
    if (mpi.rank() == 2) {  // booster rank 0
      mpi.send_bytes(mpi.world(), 3, 0, buf);
      mpi.recv_bytes(mpi.world(), 3, 0, buf);
      intra_booster = mpi.ctx().now() - t0;
      mpi.send_bytes(mpi.world(), 0, 1, buf);
      mpi.recv_bytes(mpi.world(), 0, 1, buf);
    } else if (mpi.rank() == 3) {
      mpi.recv_bytes(mpi.world(), 2, 0, buf);
      mpi.send_bytes(mpi.world(), 2, 0, buf);
    } else if (mpi.rank() == 0) {
      const auto t1 = mpi.ctx().now();
      mpi.recv_bytes(mpi.world(), 2, 1, buf);
      mpi.send_bytes(mpi.world(), 2, 1, buf);
      cross = mpi.ctx().now() - t1;
    }
  });
  EXPECT_LT(intra_booster.ps, ds::from_micros(5).ps);
  EXPECT_GT(cross.ps, intra_booster.ps);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(MpiDeterminism, RepeatedRunsIdentical) {
  auto run_once = [] {
    BridgedMpiRig rig(2, 2, 1);
    std::vector<std::int64_t> trace;
    rig.run([&](dm::Mpi& mpi) {
      std::vector<int> v{mpi.rank()}, out(1);
      mpi.allreduce<int>(mpi.world(), dm::Op::Sum, cspan(v), mspan(out));
      std::vector<int> all(4);
      mpi.allgather<int>(mpi.world(), cspan(v), mspan(all));
      mpi.barrier(mpi.world());
      trace.push_back(mpi.ctx().now().ps);
    });
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Handle invariants
// ---------------------------------------------------------------------------

TEST(Handles, NullCommRejected) {
  dm::Comm null_comm;
  EXPECT_FALSE(null_comm.valid());
  EXPECT_THROW(null_comm.rank(), deep::util::UsageError);
  EXPECT_THROW(null_comm.size(), deep::util::UsageError);
  EXPECT_THROW(null_comm.addr_of(0), deep::util::UsageError);
}

TEST(Handles, NullIntercommRejected) {
  dm::Intercomm null_inter;
  EXPECT_FALSE(null_inter.valid());
  EXPECT_THROW(null_inter.rank(), deep::util::UsageError);
  EXPECT_THROW(null_inter.remote_size(), deep::util::UsageError);
}

TEST(Handles, RankBoundsChecked) {
  MpiRig rig(3);
  rig.run([](dm::Mpi& mpi) {
    EXPECT_THROW(mpi.world().addr_of(3), deep::util::UsageError);
    EXPECT_THROW(mpi.world().addr_of(-1), deep::util::UsageError);
    std::vector<int> v(1);
    EXPECT_THROW(mpi.irecv<int>(mpi.world(), 7, 0, mspan(v)),
                 deep::util::UsageError);
  });
}

TEST(Handles, CommCopiesShareState) {
  MpiRig rig(2);
  rig.run([](dm::Mpi& mpi) {
    // Copies of a Comm are the same communicator: a collective issued via a
    // copy pairs with one issued via the original on the other rank.
    dm::Comm copy = mpi.world();
    if (mpi.rank() == 0) {
      mpi.barrier(copy);
    } else {
      mpi.barrier(mpi.world());
    }
    EXPECT_EQ(copy.state(), mpi.world().state());
  });
}

TEST(Handles, WaitNullRequestRejected) {
  MpiRig rig(1);
  rig.run([](dm::Mpi& mpi) {
    EXPECT_THROW(mpi.wait(nullptr), deep::util::UsageError);
    EXPECT_THROW(mpi.test(nullptr), deep::util::UsageError);
  });
}
