// analysis_test fixture: ranks acquired in increasing order.
#include <mutex>

#include "common/debug/lock_rank.h"

namespace apio {

class Good {
 public:
  void run();

 private:
  debug::RankedMutex<debug::LockRank::kVolConnector> outer_;
  debug::RankedMutex<debug::LockRank::kStorageBase> inner_;
};

void Good::run() {
  std::lock_guard a(outer_);
  std::lock_guard b(inner_);
}

}  // namespace apio
