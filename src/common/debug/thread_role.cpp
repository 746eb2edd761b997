#include "common/debug/thread_role.h"

#include <cstdio>
#include <cstdlib>

namespace apio::debug {
namespace {

thread_local ThreadTag t_tag;

[[noreturn]] void role_failure(const char* expectation, ThreadRole actual,
                               int actual_id, std::source_location loc) {
  std::fprintf(stderr,
               "apio fatal: thread-role violation: %s, but the calling thread "
               "is %s (id %d)\n  at %s:%u (%s)\n",
               expectation, thread_role_name(actual), actual_id,
               loc.file_name(), static_cast<unsigned>(loc.line()),
               loc.function_name());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

const char* thread_role_name(ThreadRole role) {
  switch (role) {
    case ThreadRole::kUnassigned: return "an application thread";
    case ThreadRole::kStream: return "an execution stream";
    case ThreadRole::kPmpiRank: return "a pmpi rank thread";
  }
  return "<unknown role>";
}

const ThreadTag& thread_tag() { return t_tag; }

ScopedThreadRole::ScopedThreadRole(ThreadRole role, int id, const void* domain,
                                   int world_size)
    : prev_(t_tag) {
  t_tag = {role, id, domain, world_size};
}

ScopedThreadRole::~ScopedThreadRole() { t_tag = prev_; }

namespace detail {

void assert_on_stream(std::source_location loc) {
  if (t_tag.role != ThreadRole::kStream) {
    role_failure("this code must run on an execution stream", t_tag.role,
                 t_tag.id, loc);
  }
}

void assert_on_rank(const void* domain, int rank, std::source_location loc) {
  if (t_tag.role == ThreadRole::kStream) {
    role_failure(
        "pmpi communicator calls may not run on an execution stream "
        "(a blocked stream starves its queue)",
        t_tag.role, t_tag.id, loc);
  }
  if (t_tag.role == ThreadRole::kPmpiRank && t_tag.domain == domain &&
      t_tag.id != rank) {
    role_failure("this communicator belongs to a different pmpi rank",
                 t_tag.role, t_tag.id, loc);
  }
}

}  // namespace detail
}  // namespace apio::debug
