// analysis_test fixture: a condition-variable wait in a stream root.
#include <condition_variable>
#include <mutex>

#include "common/debug/thread_role.h"

namespace apio {

class Gate {
 public:
  void pump();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool ready_ = false;
};

void Gate::pump() {
  APIO_ASSERT_ON_STREAM();
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return ready_; });
}

}  // namespace apio
