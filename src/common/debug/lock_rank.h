// Lock-rank checking: a process-wide total order on every mutex in the
// concurrent substrate, enforced at runtime.
//
// Deadlocks need a cycle in the lock-acquisition graph.  apio forbids
// cycles structurally: every mutex carries a LockRank, and a thread may
// only acquire a mutex whose rank is strictly greater than the highest
// rank it already holds.  Violations abort immediately with both ranks
// named — a deterministic failure on the *first* out-of-order
// acquisition, rather than a probabilistic deadlock under load.
//
// The rank order follows the call direction of the system: VOL
// connectors (outermost, application-facing) call into pmpi and
// storage, which call into tasking primitives; per-object counters are
// leaves.  See DESIGN.md "Concurrency model" for the full table.
//
// Checking is thread-local (no shared state, no extra synchronisation)
// and compiles out entirely when APIO_DEBUG_CHECKS is not defined.
#pragma once

#include <mutex>

namespace apio::debug {

/// Global acquisition order: a thread holding a lock of rank R may only
/// acquire locks of rank strictly greater than R.  Gaps are deliberate
/// so new ranks can slot in without renumbering.
enum class LockRank : int {
  // -- VOL layer (outermost: entered from application threads) --------
  kVolConnector = 10,   ///< AsyncConnector FIFO-order mutex
  kVolCache = 14,       ///< AsyncConnector prefetch cache
  kVolEventSet = 18,    ///< EventSet request/error lists
  kVolTrace = 22,       ///< TraceRecorder event list
  kVolStaging = 26,     ///< AsyncConnector staging budget + buffer recycler
  // -- pmpi (rank threads; collectives never nest their locks) --------
  kPmpiSplit = 30,      ///< World split() rendezvous map
  kPmpiCollective = 34, ///< World collective exchange slots
  kPmpiBarrier = 38,    ///< World sense-reversing barrier
  kPmpiMailbox = 42,    ///< per-rank point-to-point mailbox
  // -- storage cache (outermost storage decorator; the drain mutex is
  //    held across the inner flush transfer, so it ranks below every
  //    lock the inner stack may take) --------------------------------
  kStorageCache = 43,   ///< CachedBackend drain/flush serialisation
  // -- resilience (breaker consulted by storage wrappers and the vol
  //    background stream; never held across an inner transfer) --------
  kResilienceBreaker = 44, ///< CircuitBreaker state
  // -- sched (QoS admission queues; released across the granted
  //    transfer, so never held while a storage lock is taken) ---------
  kSchedQueue = 45,     ///< FairScheduler tenant queues + channel state
  // -- storage backends (wrappers delegate inward) --------------------
  kStorageWrapper = 46, ///< throttled/faulty interposer state
  kStorageBase = 50,    ///< memory byte store; posix writers (sieve windows)
  // -- tasking primitives (innermost locks of the substrate) ----------
  kTaskingPool = 54,    ///< Pool FIFO queue
  kTaskingEventual = 58,///< Eventual completion state
  // -- leaf counters (never held across any call) ---------------------
  kCounters = 62,       ///< stats snapshots (AsyncStats), pmpi::run's first error
};

/// Human-readable rank name for diagnostics.
const char* lock_rank_name(LockRank rank);

namespace detail {

/// Aborts if acquiring `rank` would violate the order; records it as
/// held.  Called before blocking on the underlying mutex so an actual
/// inversion aborts instead of deadlocking.
void note_acquire(LockRank rank);

/// Records `rank` as released.  Releases may be out of LIFO order
/// (std::unique_lock allows it); the newest held instance is dropped.
void note_release(LockRank rank);

/// True when the calling thread currently holds a lock of `rank`
/// (test hook; always false when checking is compiled out).
bool holds_rank(LockRank rank);

}  // namespace detail

/// Drop-in std::mutex replacement carrying a compile-time rank.
/// Satisfies Lockable, so std::lock_guard, std::unique_lock and
/// std::condition_variable_any work unchanged.  When APIO_DEBUG_CHECKS
/// is off this is exactly a std::mutex.
template <LockRank Rank>
class RankedMutex {
 public:
  RankedMutex() = default;
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
#if defined(APIO_DEBUG_CHECKS)
    detail::note_acquire(Rank);
#endif
    mutex_.lock();
  }

  bool try_lock() {
    if (mutex_.try_lock()) {
#if defined(APIO_DEBUG_CHECKS)
      detail::note_acquire(Rank);
#endif
      return true;
    }
    return false;
  }

  void unlock() {
    mutex_.unlock();
#if defined(APIO_DEBUG_CHECKS)
    detail::note_release(Rank);
#endif
  }

  static constexpr LockRank rank() { return Rank; }

 private:
  std::mutex mutex_;
};

}  // namespace apio::debug
