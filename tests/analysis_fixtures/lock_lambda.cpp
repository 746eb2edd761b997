// analysis_test fixture: a continuation built under a lock runs after
// unlock(), outside it, and its body is a function of its own.
#include <mutex>

#include "common/debug/lock_rank.h"

namespace apio {

class Lam {
 public:
  void arm();

 private:
  debug::RankedMutex<debug::LockRank::kStorageBase> inner_;
  debug::RankedMutex<debug::LockRank::kVolConnector> outer_;
};

void Lam::arm() {
  std::unique_lock lock(inner_);
  auto fn = [this] { std::lock_guard outer(outer_); };
  lock.unlock();
  fn();
}

}  // namespace apio
