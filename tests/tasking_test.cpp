// Unit tests for the Argobots-style tasking runtime (src/tasking).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "tasking/eventual.h"
#include "tasking/execution_stream.h"
#include "tasking/pool.h"

namespace apio::tasking {
namespace {

TEST(EventualTest, StartsPending) {
  auto e = Eventual::make();
  EXPECT_FALSE(e->test());
  EXPECT_FALSE(e->has_error());
}

TEST(EventualTest, SetCompletes) {
  auto e = Eventual::make();
  e->set();
  EXPECT_TRUE(e->test());
  EXPECT_NO_THROW(e->wait());
}

TEST(EventualTest, MakeReadyIsComplete) {
  auto e = Eventual::make_ready();
  EXPECT_TRUE(e->test());
}

TEST(EventualTest, ErrorRethrownOnWait) {
  auto e = Eventual::make();
  e->set_error(std::make_exception_ptr(IoError("disk on fire")));
  EXPECT_TRUE(e->test());
  EXPECT_TRUE(e->has_error());
  EXPECT_THROW(e->wait(), IoError);
}

TEST(EventualTest, WaitBlocksUntilSetFromAnotherThread) {
  auto e = Eventual::make();
  std::thread setter([&] {
    // Delay so wait() below actually blocks.
    std::this_thread::sleep_for(  // apio-lint: allow(no-test-sleep)
        std::chrono::milliseconds(20));
    e->set();
  });
  e->wait();
  EXPECT_TRUE(e->test());
  setter.join();
}

// ---------------------------------------------------------------------------
// Pool

TEST(PoolTest, FifoOrder) {
  Pool pool;
  std::vector<int> order;
  pool.push([&] { order.push_back(1); });
  pool.push([&] { order.push_back(2); });
  pool.push([&] { order.push_back(3); });
  EXPECT_EQ(pool.size(), 3u);
  while (auto t = pool.try_pop()) (*t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(PoolTest, TryPopEmptyReturnsNothing) {
  Pool pool;
  EXPECT_FALSE(pool.try_pop().has_value());
}

TEST(PoolTest, PushAfterCloseThrows) {
  Pool pool;
  pool.close();
  EXPECT_TRUE(pool.closed());
  EXPECT_THROW(pool.push([] {}), StateError);
}

TEST(PoolTest, TryPushRejectsAfterCloseInsteadOfThrowing) {
  Pool pool;
  EXPECT_TRUE(pool.try_push([] {}));
  pool.close();
  EXPECT_FALSE(pool.try_push([] {}));
  EXPECT_EQ(pool.accepted(), 1u);
  EXPECT_TRUE(pool.pop().has_value());  // the accepted task still drains
  EXPECT_FALSE(pool.pop().has_value());
}

// Metrics parity: pop() and try_pop() share one accounting path, so
// mixed consumers can't under-count "tasking.pops" (or leave the
// queue-depth gauge stale) depending on which entry point drained.
TEST(PoolTest, PopAndTryPopShareMetricsAccounting) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  {
    Pool pool;
    pool.push([] {});
    pool.push([] {});
    EXPECT_TRUE(pool.try_pop().has_value());
    EXPECT_TRUE(pool.pop().has_value());
    EXPECT_EQ(pool.drained(), 2u);
  }
  const std::uint64_t pops =
      obs::Registry::instance().snapshot().counter_total("tasking.pops");
  obs::set_enabled(false);
  obs::Registry::instance().reset();
  EXPECT_EQ(pops, 2u);
}

TEST(PoolTest, PopDrainsAfterClose) {
  Pool pool;
  pool.push([] {});
  pool.close();
  EXPECT_TRUE(pool.pop().has_value());
  EXPECT_FALSE(pool.pop().has_value());
}

TEST(PoolTest, CloseReleasesBlockedConsumer) {
  Pool pool;
  std::atomic<bool> released{false};
  std::thread consumer([&] {
    auto t = pool.pop();
    released = !t.has_value();
  });
  // Delay so the consumer is parked in pop() when close() lands.
  std::this_thread::sleep_for(  // apio-lint: allow(no-test-sleep)
      std::chrono::milliseconds(20));
  pool.close();
  consumer.join();
  EXPECT_TRUE(released.load());
}

// ---------------------------------------------------------------------------
// ExecutionStream

TEST(ExecutionStreamTest, ExecutesPushedTasks) {
  auto pool = std::make_shared<Pool>();
  ExecutionStream stream(pool);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 10; ++i) pool->push([&sum, i] { sum += i; });
  stream.shutdown();
  EXPECT_EQ(sum.load(), 55);
}

TEST(ExecutionStreamTest, FifoExecutionOrder) {
  auto pool = std::make_shared<Pool>();
  ExecutionStream stream(pool);
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 100; ++i) {
    pool->push([&, i] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
    });
  }
  stream.shutdown();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecutionStreamTest, SurvivesThrowingTask) {
  auto pool = std::make_shared<Pool>();
  ExecutionStream stream(pool);
  std::atomic<bool> ran_after{false};
  pool->push([] { throw IoError("task blew up"); });
  pool->push([&] { ran_after = true; });
  stream.shutdown();
  EXPECT_TRUE(ran_after.load());
}

TEST(ExecutionStreamTest, ShutdownIsIdempotent) {
  auto pool = std::make_shared<Pool>();
  ExecutionStream stream(pool);
  stream.shutdown();
  EXPECT_NO_THROW(stream.shutdown());
}

}  // namespace
}  // namespace apio::tasking
