// analysis_test fixture: rank-side code sleeps freely; only stream
// context must not block.
#include <chrono>
#include <thread>

namespace apio {

void throttle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // apio-lint: allow(no-test-sleep)
}

}  // namespace apio
