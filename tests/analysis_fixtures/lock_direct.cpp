// analysis_test fixture: kVolConnector acquired while kStorageBase is
// held, in one function.
#include <mutex>

#include "common/debug/lock_rank.h"

namespace apio {

class Cache {
 public:
  void refresh();

 private:
  debug::RankedMutex<debug::LockRank::kStorageBase> inner_;
  debug::RankedMutex<debug::LockRank::kVolConnector> outer_;
};

void Cache::refresh() {
  std::lock_guard in(inner_);
  std::lock_guard out(outer_);
}

}  // namespace apio
