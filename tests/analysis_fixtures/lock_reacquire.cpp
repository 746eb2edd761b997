// analysis_test fixture: two mutexes of one rank held at once.
#include <mutex>

#include "common/debug/lock_rank.h"

namespace apio {

class Twice {
 public:
  void both();

 private:
  debug::RankedMutex<debug::LockRank::kSchedQueue> a_;
  debug::RankedMutex<debug::LockRank::kSchedQueue> b_;
};

void Twice::both() {
  std::lock_guard la(a_);
  std::lock_guard lb(b_);
}

}  // namespace apio
