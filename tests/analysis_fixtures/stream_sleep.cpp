// analysis_test fixture: a sleep two calls below a stream root.
#include <chrono>
#include <thread>

#include "common/debug/thread_role.h"

namespace apio {

class Pump {
 public:
  void run_loop();

 private:
  void drain();
  void backoff();
};

void Pump::run_loop() {
  APIO_ASSERT_ON_STREAM();
  drain();
}

void Pump::drain() {
  backoff();
}

void Pump::backoff() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // apio-lint: allow(no-test-sleep)
}

}  // namespace apio
