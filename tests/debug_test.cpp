// Tests for the runtime concurrency checkers (src/common/debug/):
// lock-rank order enforcement, thread-role tagging, and the invariant
// macros.  The abort paths are pinned with death tests, which fork and
// are unreliable under TSan — those are compiled out of sanitizer
// builds; the pass paths run everywhere.
#include <gtest/gtest.h>

#include <thread>

#include "common/debug/invariant.h"
#include "common/debug/lock_rank.h"
#include "common/debug/thread_role.h"

namespace apio::debug {
namespace {

#if defined(APIO_DEBUG_CHECKS) && !defined(__SANITIZE_THREAD__)
#define APIO_HAVE_DEATH_TESTS 1
#endif

TEST(LockRankTest, InOrderAcquisitionSucceeds) {
  RankedMutex<LockRank::kVolConnector> outer;
  RankedMutex<LockRank::kCounters> inner;
  std::lock_guard outer_lock(outer);
  std::lock_guard inner_lock(inner);
#if defined(APIO_DEBUG_CHECKS)
  EXPECT_TRUE(detail::holds_rank(LockRank::kVolConnector));
  EXPECT_TRUE(detail::holds_rank(LockRank::kCounters));
  EXPECT_FALSE(detail::holds_rank(LockRank::kStorageBase));
#endif
}

TEST(LockRankTest, ReleaseAllowsReacquisitionAtLowerRank) {
  RankedMutex<LockRank::kCounters> high;
  RankedMutex<LockRank::kVolConnector> low;
  {
    std::lock_guard lock(high);
  }
  // With `high` released, taking the lower-ranked lock is legal again.
  std::lock_guard lock(low);
#if defined(APIO_DEBUG_CHECKS)
  EXPECT_FALSE(detail::holds_rank(LockRank::kCounters));
  EXPECT_TRUE(detail::holds_rank(LockRank::kVolConnector));
#endif
}

TEST(LockRankTest, OutOfLifoReleaseIsTolerated) {
  RankedMutex<LockRank::kVolConnector> a;
  RankedMutex<LockRank::kPmpiBarrier> b;
  std::unique_lock lock_a(a);
  std::unique_lock lock_b(b);
  lock_a.unlock();  // released before b: legal with std::unique_lock
  lock_b.unlock();
#if defined(APIO_DEBUG_CHECKS)
  EXPECT_FALSE(detail::holds_rank(LockRank::kVolConnector));
  EXPECT_FALSE(detail::holds_rank(LockRank::kPmpiBarrier));
#endif
}

TEST(LockRankTest, TryLockRecordsRank) {
  RankedMutex<LockRank::kStorageBase> m;
  ASSERT_TRUE(m.try_lock());
#if defined(APIO_DEBUG_CHECKS)
  EXPECT_TRUE(detail::holds_rank(LockRank::kStorageBase));
#endif
  m.unlock();
#if defined(APIO_DEBUG_CHECKS)
  EXPECT_FALSE(detail::holds_rank(LockRank::kStorageBase));
#endif
}

TEST(LockRankTest, HeldRanksAreThreadLocal) {
  RankedMutex<LockRank::kCounters> m;
  std::lock_guard lock(m);
  std::thread other([] {
#if defined(APIO_DEBUG_CHECKS)
    EXPECT_FALSE(detail::holds_rank(LockRank::kCounters));
#endif
    // Another thread may take a lower rank: it holds nothing yet.
    RankedMutex<LockRank::kVolConnector> low;
    std::lock_guard inner(low);
  });
  other.join();
}

TEST(LockRankTest, RankNamesAreStable) {
  EXPECT_STREQ(lock_rank_name(LockRank::kVolConnector), "vol.connector");
  EXPECT_STREQ(lock_rank_name(LockRank::kStorageCache), "storage.cache");
  EXPECT_STREQ(lock_rank_name(LockRank::kCounters), "counters");
}

#if defined(APIO_HAVE_DEATH_TESTS)
TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RankedMutex<LockRank::kCounters> inner;
        RankedMutex<LockRank::kVolConnector> outer;
        std::lock_guard inner_lock(inner);
        std::lock_guard outer_lock(outer);  // rank inversion: must abort
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RankedMutex<LockRank::kCounters> a;
        RankedMutex<LockRank::kCounters> b;
        std::lock_guard lock_a(a);
        std::lock_guard lock_b(b);  // equal rank: order undefined, abort
      },
      "lock-rank violation");
}
#endif  // APIO_HAVE_DEATH_TESTS

TEST(ThreadRoleTest, DefaultsToUnassigned) {
  const ThreadTag& tag = thread_tag();
  EXPECT_EQ(tag.role, ThreadRole::kUnassigned);
  EXPECT_EQ(tag.id, -1);
  EXPECT_EQ(tag.domain, nullptr);
  EXPECT_EQ(tag.world_size, 1);
  EXPECT_EQ(tag.rank(), -1);
  EXPECT_EQ(tag.stream(), -1);
}

TEST(ThreadRoleTest, ScopeSetsAndRestores) {
  const int domain_tag = 0;
  {
    ScopedThreadRole role(ThreadRole::kPmpiRank, 3, &domain_tag, 4);
    EXPECT_EQ(thread_tag().role, ThreadRole::kPmpiRank);
    EXPECT_EQ(thread_tag().rank(), 3);
    EXPECT_EQ(thread_tag().stream(), -1);
    EXPECT_EQ(thread_tag().domain, &domain_tag);
    EXPECT_EQ(thread_tag().world_size, 4);
    {
      ScopedThreadRole nested(ThreadRole::kStream, 5);
      EXPECT_EQ(thread_tag().role, ThreadRole::kStream);
      EXPECT_EQ(thread_tag().stream(), 5);
      EXPECT_EQ(thread_tag().rank(), -1);
      EXPECT_EQ(thread_tag().world_size, 1);
    }
    EXPECT_EQ(thread_tag().role, ThreadRole::kPmpiRank);
    EXPECT_EQ(thread_tag().rank(), 3);
    EXPECT_EQ(thread_tag().world_size, 4);
  }
  EXPECT_EQ(thread_tag().role, ThreadRole::kUnassigned);
  EXPECT_EQ(thread_tag().world_size, 1);
}

TEST(ThreadRoleTest, RolesAreThreadLocal) {
  ScopedThreadRole role(ThreadRole::kStream);
  std::thread other([] {
    EXPECT_EQ(thread_tag().role, ThreadRole::kUnassigned);
  });
  other.join();
}

TEST(ThreadRoleTest, AssertOnStreamPassesOnStreamThread) {
  ScopedThreadRole role(ThreadRole::kStream);
  APIO_ASSERT_ON_STREAM();  // must not abort
}

TEST(ThreadRoleTest, AssertOnRankPassesForOwnerAndStrangers) {
  const int domain = 0;
  const int other_domain = 0;
  {
    // The owning rank thread passes.
    ScopedThreadRole role(ThreadRole::kPmpiRank, 2, &domain);
    APIO_ASSERT_ON_RANK(&domain, 2);
  }
  {
    // A rank thread of a *different* domain passes: ranks are
    // compared within one world only.
    ScopedThreadRole role(ThreadRole::kPmpiRank, 0, &other_domain);
    APIO_ASSERT_ON_RANK(&domain, 2);
  }
  // Untagged application threads pass.
  APIO_ASSERT_ON_RANK(&domain, 2);
}

#if defined(APIO_HAVE_DEATH_TESTS)
TEST(ThreadRoleDeathTest, AssertOnStreamAbortsOffStream) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(APIO_ASSERT_ON_STREAM(), "thread-role violation");
}

TEST(ThreadRoleDeathTest, AssertOnRankAbortsOnWrongRank) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int domain = 0;
  EXPECT_DEATH(
      {
        ScopedThreadRole role(ThreadRole::kPmpiRank, 1, &domain);
        APIO_ASSERT_ON_RANK(&domain, 2);  // same world, wrong rank
      },
      "thread-role violation");
}

TEST(ThreadRoleDeathTest, AssertOnRankAbortsOnStream) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int domain = 0;
  EXPECT_DEATH(
      {
        ScopedThreadRole role(ThreadRole::kStream);
        APIO_ASSERT_ON_RANK(&domain, 0);  // a stream in a collective
      },
      "thread-role violation");
}

TEST(InvariantDeathTest, ViolatedInvariantAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(APIO_INVARIANT(1 + 1 == 3, "arithmetic drifted"),
               "arithmetic drifted");
}
#endif  // APIO_HAVE_DEATH_TESTS

TEST(InvariantTest, HoldingInvariantIsSilent) {
  APIO_INVARIANT(2 + 2 == 4, "never printed");
}

TEST(InvariantTest, ExpressionNotEvaluatedWhenCompiledOut) {
#if !defined(APIO_DEBUG_CHECKS)
  int calls = 0;
  auto count = [&calls] { return ++calls > 0; };
  APIO_INVARIANT(count(), "compiled out");
  EXPECT_EQ(calls, 0);
#else
  GTEST_SKIP() << "APIO_DEBUG_CHECKS is on: expressions are evaluated";
#endif
}

}  // namespace
}  // namespace apio::debug
