// analysis_test fixture: two holds in separate blocks never overlap,
// so kStorageBase then kVolConnector in sequence is legal.
#include <mutex>

#include "common/debug/lock_rank.h"

namespace apio {

class Seq {
 public:
  void run();

 private:
  debug::RankedMutex<debug::LockRank::kStorageBase> inner_;
  debug::RankedMutex<debug::LockRank::kVolConnector> outer_;
};

void Seq::run() {
  {
    std::lock_guard a(inner_);
  }
  {
    std::lock_guard b(outer_);
  }
}

}  // namespace apio
