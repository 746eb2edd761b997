// analysis_test fixture: the lock_guard's destructor on the early
// return does not end its hold on the path that goes on.
#include <mutex>

#include "common/debug/lock_rank.h"

namespace apio {

class Early {
 public:
  void run(bool skip);

 private:
  debug::RankedMutex<debug::LockRank::kStorageBase> inner_;
  debug::RankedMutex<debug::LockRank::kVolConnector> outer_;
};

void Early::run(bool skip) {
  std::lock_guard lock(inner_);
  if (skip) return;
  std::lock_guard late(outer_);
}

}  // namespace apio
