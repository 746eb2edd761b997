// analysis_test fixture: a waived finding, and a waiver that matches no
// finding.
#include <chrono>
#include <thread>

#include "common/debug/thread_role.h"

namespace apio {

class W {
 public:
  void skim();
};

void W::skim() {
  APIO_ASSERT_ON_STREAM();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // apio-lint: allow(thread-context) apio-lint: allow(no-test-sleep)
  int unused = 0;  // apio-lint: allow(lock-rank)
  (void)unused;
}

}  // namespace apio
