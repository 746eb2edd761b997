#include "common/debug/thread_role.h"

#include <cstdio>
#include <cstdlib>

namespace apio::debug {
namespace {

thread_local ThreadRole t_role = ThreadRole::kUnassigned;
thread_local int t_role_id = -1;
thread_local const void* t_role_domain = nullptr;

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

ThreadRole current_thread_role() { return t_role; }

int current_thread_role_id() { return t_role_id; }

const void* current_thread_role_domain() { return t_role_domain; }

ScopedThreadRole::ScopedThreadRole(ThreadRole role, int id, const void* domain)
    : prev_role_(t_role), prev_id_(t_role_id), prev_domain_(t_role_domain) {
  t_role = role;
  t_role_id = id;
  t_role_domain = domain;
}

ScopedThreadRole::~ScopedThreadRole() {
  t_role = prev_role_;
  t_role_id = prev_id_;
  t_role_domain = prev_domain_;
}

namespace detail {

void assert_on_stream(std::source_location loc) {
  if (t_role != ThreadRole::kStream) {
    role_failure("this code must run on an execution stream", t_role,
                 t_role_id, loc);
  }
}

void assert_on_rank(const void* domain, int rank, std::source_location loc) {
  if (t_role == ThreadRole::kStream) {
    role_failure(
        "pmpi communicator calls may not run on an execution stream "
        "(a blocked stream starves its queue)",
        t_role, t_role_id, loc);
  }
  if (t_role == ThreadRole::kPmpiRank && t_role_domain == domain &&
      t_role_id != rank) {
    role_failure("this communicator belongs to a different pmpi rank", t_role,
                 t_role_id, loc);
  }
}

}  // namespace detail
}  // namespace apio::debug
