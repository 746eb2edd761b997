// Thread-role tagging: who is allowed to run what.
//
// apio has three kinds of threads with different contracts:
//   * application threads — issue VOL calls, may block on requests;
//   * execution streams — each vol::AsyncConnector's one worker thread,
//     which drains the connector's FIFO queue; a stream must never block
//     on work queued behind it (self-deadlock) and is the only thread
//     that runs staged I/O ops;
//   * pmpi rank threads — drive SPMD bodies; collectives must be called
//     by the thread that owns the communicator's rank, and never by an
//     execution stream (a stream parked in a barrier starves its queue).
//
// ScopedThreadRole tags the current thread; the APIO_ASSERT_ON_* macros
// make the contracts fail loudly at the call site.  Like the lock-rank
// checker, everything compiles out without APIO_DEBUG_CHECKS.
#pragma once

#include <source_location>

namespace apio::debug {

enum class ThreadRole : int {
  kUnassigned = 0,  ///< plain application thread (default)
  kStream = 1,      ///< async connector worker (execution stream)
  kPmpiRank = 2,    ///< pmpi SPMD rank thread
};

const char* thread_role_name(ThreadRole role);

/// Current thread's role (kUnassigned unless inside a ScopedThreadRole).
ThreadRole current_thread_role();

/// Role-specific id: the pmpi rank for kPmpiRank threads, -1 otherwise.
int current_thread_role_id();

/// Opaque owner of the id (e.g. the pmpi World the rank belongs to);
/// nullptr when no role is set.
const void* current_thread_role_domain();

/// RAII role tag.  Nests: the destructor restores the previous role, so
/// e.g. a pmpi rank thread that constructs a nested SPMD region keeps a
/// consistent tag stack.
class ScopedThreadRole {
 public:
  explicit ScopedThreadRole(ThreadRole role, int id = -1,
                            const void* domain = nullptr);
  ~ScopedThreadRole();

  ScopedThreadRole(const ScopedThreadRole&) = delete;
  ScopedThreadRole& operator=(const ScopedThreadRole&) = delete;

 private:
  ThreadRole prev_role_;
  int prev_id_;
  const void* prev_domain_;
};

namespace detail {
/// Aborts unless the current thread is an execution stream.
void assert_on_stream(std::source_location loc);
/// Aborts when called from an execution stream, or from a pmpi rank
/// thread tagged for the same `domain` whose rank differs from `rank`.
/// Untagged (application) threads pass — tests drive communicators from
/// threads they manage — and so do rank threads acting on another
/// domain: ranks are compared within one world only.
void assert_on_rank(const void* domain, int rank, std::source_location loc);
}  // namespace detail

}  // namespace apio::debug

#if defined(APIO_DEBUG_CHECKS)

/// The enclosing code must run on an execution stream.
#define APIO_ASSERT_ON_STREAM() \
  ::apio::debug::detail::assert_on_stream(std::source_location::current())

/// The enclosing code must run on the thread owning pmpi rank `rank` of
/// `domain` (or an untagged thread the caller manages itself) — never a
/// stream.
#define APIO_ASSERT_ON_RANK(domain, rank)                   \
  ::apio::debug::detail::assert_on_rank((domain), (rank),   \
                                        std::source_location::current())

#else

#define APIO_ASSERT_ON_STREAM() \
  do {                          \
  } while (false)
#define APIO_ASSERT_ON_RANK(domain, rank) \
  do {                                    \
    (void)sizeof(domain);                 \
    (void)sizeof(rank);                   \
  } while (false)

#endif  // APIO_DEBUG_CHECKS
