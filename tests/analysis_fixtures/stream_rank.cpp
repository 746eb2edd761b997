// analysis_test fixture: a rank-thread-only function called from a
// stream root.
#include "common/debug/thread_role.h"

namespace apio {

class Mixed {
 public:
  void stream_entry();

 private:
  void publish();
};

void Mixed::stream_entry() {
  APIO_ASSERT_ON_STREAM();
  publish();
}

void Mixed::publish() {
  APIO_ASSERT_ON_RANK(this, 0);
}

}  // namespace apio
