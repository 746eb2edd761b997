// Unit tests for the in-process MPI subset (src/pmpi).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "common/error.h"
#include "pmpi/world.h"

namespace apio::pmpi {
namespace {

void send_ints(Communicator& comm, const std::vector<int>& data, int dest, int tag) {
  comm.send_bytes(std::as_bytes(std::span(data)), dest, tag);
}

std::vector<int> recv_ints(Communicator& comm, int source, int tag) {
  const std::vector<std::byte> raw = comm.recv_bytes(source, tag);
  std::vector<int> out(raw.size() / sizeof(int));
  std::memcpy(out.data(), raw.data(), out.size() * sizeof(int));
  return out;
}

TEST(PmpiTest, RunSpawnsAllRanks) {
  std::atomic<int> count{0};
  run(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
}

TEST(PmpiTest, SingleRankWorld) {
  run(1, [](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(3.0), 3.0);
  });
}

TEST(PmpiTest, WorldRejectsBadSize) {
  EXPECT_THROW(World(0), InvalidArgumentError);
}

TEST(PmpiTest, WorldRejectsBadRank) {
  World world(2);
  EXPECT_THROW(world.comm(2), InvalidArgumentError);
  EXPECT_THROW(world.comm(-1), InvalidArgumentError);
}

TEST(PmpiTest, RunPropagatesRankException) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     // Only a non-collective failure: every rank throws, so
                     // no rank is left stranded in a barrier.
                     throw IoError("rank failure");
                   }),
               IoError);
}

TEST(PmpiTest, BarrierSynchronizesPhases) {
  constexpr int kRanks = 8;
  std::atomic<int> phase_counter{0};
  run(kRanks, [&](Communicator& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      ++phase_counter;
      comm.barrier();
      // After the barrier every rank must observe all arrivals of this phase.
      EXPECT_GE(phase_counter.load(), (phase + 1) * kRanks);
      comm.barrier();
    }
  });
}

TEST(PmpiTest, BcastDistributesRootBuffer) {
  run(4, [](Communicator& comm) {
    std::vector<std::uint64_t> buf(8, 0);
    if (comm.rank() == 2) {
      std::iota(buf.begin(), buf.end(), 100);
    }
    comm.bcast(std::span<std::uint64_t>(buf), 2);
    for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 100 + i);
  });
}

TEST(PmpiTest, BcastOfDoubles) {
  run(3, [](Communicator& comm) {
    std::vector<double> buf(4, comm.rank() == 0 ? 2.5 : 0.0);
    comm.bcast(std::span<double>(buf), 0);
    for (double v : buf) EXPECT_DOUBLE_EQ(v, 2.5);
  });
}

TEST(PmpiTest, AllgatherOrderedByRank) {
  run(5, [](Communicator& comm) {
    auto all = comm.allgather<int>(comm.rank() * 10);
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(all[r], r * 10);
  });
}

TEST(PmpiTest, GatherOnlyAtRoot) {
  run(4, [](Communicator& comm) {
    auto got = comm.gather<int>(comm.rank() + 1, 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(got.size(), 4u);
      EXPECT_EQ(got[3], 4);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(PmpiTest, AllreduceSumMaxMin) {
  run(6, [](Communicator& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(mine), 21.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_max(mine), 6.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_min(mine), 1.0);
  });
}

TEST(PmpiTest, AllreduceUnsigned) {
  run(4, [](Communicator& comm) {
    const std::uint64_t mine = static_cast<std::uint64_t>(comm.rank());
    EXPECT_EQ(comm.allreduce_sum(mine), 6u);
    EXPECT_EQ(comm.allreduce_max(mine), 3u);
  });
}

TEST(PmpiTest, AllreduceCustomOp) {
  run(4, [](Communicator& comm) {
    const int mine = comm.rank() + 1;
    const int product = comm.allreduce<int>(
        mine, [](const int& a, const int& b) { return a * b; });
    EXPECT_EQ(product, 24);
  });
}

TEST(PmpiTest, ExscanSum) {
  run(5, [](Communicator& comm) {
    const std::uint64_t mine = 10;
    EXPECT_EQ(comm.exscan_sum(mine), static_cast<std::uint64_t>(comm.rank()) * 10);
  });
}

TEST(PmpiTest, ExscanWithUnequalContributions) {
  run(4, [](Communicator& comm) {
    const std::uint64_t mine = static_cast<std::uint64_t>(comm.rank() + 1);
    // contributions 1,2,3,4 -> prefix 0,1,3,6
    const std::uint64_t expected[] = {0, 1, 3, 6};
    EXPECT_EQ(comm.exscan_sum(mine), expected[comm.rank()]);
  });
}

TEST(PmpiTest, SendRecvPointToPoint) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> payload{1, 2, 3, 4};
      send_ints(comm, payload, 1, 7);
    } else {
      auto got = recv_ints(comm, 0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(PmpiTest, SendRecvFifoPerTag) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        const std::vector<int> payload{i};
        send_ints(comm, payload, 1, 3);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        auto got = recv_ints(comm, 0, 3);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], i);
      }
    }
  });
}

TEST(PmpiTest, TagsKeepMessagesApart) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> a{1};
      const std::vector<int> b{2};
      send_ints(comm, a, 1, /*tag=*/10);
      send_ints(comm, b, 1, /*tag=*/20);
    } else {
      // Receive in the opposite order of sending: tags disambiguate.
      auto b = recv_ints(comm, 0, 20);
      auto a = recv_ints(comm, 0, 10);
      EXPECT_EQ(a[0], 1);
      EXPECT_EQ(b[0], 2);
    }
  });
}

TEST(PmpiTest, RingExchange) {
  constexpr int kRanks = 6;
  run(kRanks, [](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    const std::vector<int> payload{comm.rank()};
    send_ints(comm, payload, next, 0);
    auto got = recv_ints(comm, prev, 0);
    EXPECT_EQ(got[0], prev);
  });
}

TEST(PmpiTest, SendToInvalidRankThrows) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> payload{1};
      EXPECT_THROW(send_ints(comm, payload, 5, 0), InvalidArgumentError);
    }
    comm.barrier();
  });
}

TEST(PmpiTest, CollectivesComposeAcrossManyRounds) {
  run(8, [](Communicator& comm) {
    std::uint64_t acc = 0;
    for (int round = 0; round < 25; ++round) {
      acc = comm.allreduce_sum(static_cast<std::uint64_t>(comm.rank()) + acc % 97);
    }
    // Whatever the value, all ranks must agree on it.
    auto all = comm.allgather(acc);
    for (auto v : all) EXPECT_EQ(v, acc);
  });
}

}  // namespace
}  // namespace apio::pmpi
