// Thread tags: who is issuing, and who is allowed to run what.
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
// ScopedThreadRole tags the current thread with its role, its rank or
// stream number and, on a rank thread, its world and that world's size.
// The tag is the one source of "who is issuing": IoRecords, trace spans,
// epoch markers and counter shards all read it.  The APIO_ASSERT_ON_*
// macros make the contracts fail loudly at the call site; like the
// lock-rank checker they compile out without APIO_DEBUG_CHECKS, the tag
// itself does not.
#pragma once

#include <source_location>

namespace apio::debug {

enum class ThreadRole : int {
  kUnassigned = 0,  ///< plain application thread (default)
  kStream = 1,      ///< async connector worker (execution stream)
  kPmpiRank = 2,    ///< pmpi SPMD rank thread
};

const char* thread_role_name(ThreadRole role);

/// What a ScopedThreadRole says about the calling thread.
struct ThreadTag {
  ThreadRole role = ThreadRole::kUnassigned;
  /// The pmpi rank on a rank thread, the stream number on a stream, -1
  /// on an application thread.
  int id = -1;
  /// Opaque owner of the rank (the pmpi World); nullptr elsewhere.
  const void* domain = nullptr;
  /// Ranks in that world; 1 outside an SPMD region.
  int world_size = 1;

  /// The pmpi rank, or -1 off a rank thread.
  int rank() const { return role == ThreadRole::kPmpiRank ? id : -1; }
  /// The stream number, or -1 off a stream.
  int stream() const { return role == ThreadRole::kStream ? id : -1; }
};

/// The calling thread's tag (all defaults unless inside a
/// ScopedThreadRole).
const ThreadTag& thread_tag();

/// RAII thread tag.  Nests: the destructor restores the previous tag, so
/// e.g. a pmpi rank thread that constructs a nested SPMD region keeps a
/// consistent tag stack.
class ScopedThreadRole {
 public:
  explicit ScopedThreadRole(ThreadRole role, int id = -1,
                            const void* domain = nullptr, int world_size = 1);
  ~ScopedThreadRole();

  ScopedThreadRole(const ScopedThreadRole&) = delete;
  ScopedThreadRole& operator=(const ScopedThreadRole&) = delete;

 private:
  ThreadTag prev_;
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
