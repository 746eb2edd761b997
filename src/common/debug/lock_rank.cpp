#include "common/debug/lock_rank.h"

#include <cstdio>
#include <cstdlib>

#include "common/debug/invariant.h"

namespace apio::debug {

const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::kVolConnector: return "vol.connector";
    case LockRank::kVolEventSet: return "vol.event_set";
    case LockRank::kVolTrace: return "vol.trace";
    case LockRank::kPmpiCollective: return "pmpi.collective";
    case LockRank::kPmpiBarrier: return "pmpi.barrier";
    case LockRank::kPmpiMailbox: return "pmpi.mailbox";
    case LockRank::kStorageCache: return "storage.cache";
    case LockRank::kResilienceBreaker: return "resilience.breaker";
    case LockRank::kSchedQueue: return "sched.queue";
    case LockRank::kStorageWrapper: return "storage.wrapper";
    case LockRank::kStorageBase: return "storage.base";
    case LockRank::kCounters: return "counters";
  }
  return "<unknown rank>";
}

[[noreturn]] void invariant_failure(const char* kind, const char* expr,
                                    const char* message,
                                    std::source_location loc) {
  std::fprintf(stderr, "apio fatal: %s failed: %s — %s\n  at %s:%u (%s)\n",
               kind, expr, message, loc.file_name(),
               static_cast<unsigned>(loc.line()), loc.function_name());
  std::fflush(stderr);
  std::abort();
}

namespace detail {
namespace {

/// Per-thread stack of held ranks.  Strict ordering makes the stack
/// monotonically increasing, so the top is also the maximum.
struct HeldRanks {
  static constexpr int kMaxDepth = 32;
  LockRank ranks[kMaxDepth];
  int depth = 0;
};

thread_local HeldRanks t_held;

}  // namespace

void note_acquire(LockRank rank) {
  HeldRanks& held = t_held;
  if (held.depth > 0) {
    const LockRank top = held.ranks[held.depth - 1];
    if (static_cast<int>(rank) <= static_cast<int>(top)) {
      std::fprintf(stderr,
                   "apio fatal: lock-rank violation: acquiring %s (%d) while "
                   "holding %s (%d); locks must be taken in strictly "
                   "increasing rank order (see DESIGN.md, Concurrency model)\n",
                   lock_rank_name(rank), static_cast<int>(rank),
                   lock_rank_name(top), static_cast<int>(top));
      std::fflush(stderr);
      std::abort();
    }
  }
  if (held.depth >= HeldRanks::kMaxDepth) {
    std::fprintf(stderr, "apio fatal: lock-rank stack overflow (depth %d)\n",
                 held.depth);
    std::fflush(stderr);
    std::abort();
  }
  held.ranks[held.depth++] = rank;
}

void note_release(LockRank rank) {
  HeldRanks& held = t_held;
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.ranks[i] == rank) {
      for (int j = i; j + 1 < held.depth; ++j) held.ranks[j] = held.ranks[j + 1];
      --held.depth;
      return;
    }
  }
  std::fprintf(stderr,
               "apio fatal: releasing lock rank %s (%d) this thread does not "
               "hold\n",
               lock_rank_name(rank), static_cast<int>(rank));
  std::fflush(stderr);
  std::abort();
}

bool holds_rank(LockRank rank) {
  const HeldRanks& held = t_held;
  for (int i = 0; i < held.depth; ++i) {
    if (held.ranks[i] == rank) return true;
  }
  return false;
}

}  // namespace detail
}  // namespace apio::debug
