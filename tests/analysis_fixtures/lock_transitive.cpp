// analysis_test fixture: a call made under kStorageBase reaches, two
// calls down, an acquisition of kVolConnector.
#include <mutex>

#include "common/debug/lock_rank.h"

namespace apio {

class Store {
 public:
  void flush();
  void compact();

 private:
  debug::RankedMutex<debug::LockRank::kVolConnector> outer_;
};

class Top {
 public:
  void run();

 private:
  Store store_;
  debug::RankedMutex<debug::LockRank::kStorageBase> inner_;
};

void Store::flush() {
  std::lock_guard lock(outer_);
}

void Store::compact() {
  flush();
}

void Top::run() {
  std::lock_guard lock(inner_);
  store_.compact();
}

}  // namespace apio
