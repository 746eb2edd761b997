// analysis_test fixture: a C++20 atomic wait in a stream root.  GCC
// inlines the library's wait even at -O0; it blocks at this line.
#include <atomic>

#include "common/debug/thread_role.h"

namespace apio {

class Latch {
 public:
  void pump();

 private:
  std::atomic<int> flag_{0};
};

void Latch::pump() {
  APIO_ASSERT_ON_STREAM();
  flag_.wait(0);
}

}  // namespace apio
