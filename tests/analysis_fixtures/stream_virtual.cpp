// analysis_test fixture: a virtual call from a stream root reaches every
// override of the slot; one of them sleeps.
#include <chrono>
#include <thread>

#include "common/debug/thread_role.h"

namespace apio {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void put() = 0;
};

class SlowSink final : public Sink {
 public:
  void put() override;
};

class FastSink final : public Sink {
 public:
  void put() override;
};

class Pipe {
 public:
  explicit Pipe(Sink* sink) : sink_(sink) {}
  void run();

 private:
  Sink* sink_;
};

void SlowSink::put() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // apio-lint: allow(no-test-sleep)
}

void FastSink::put() {}

void Pipe::run() {
  APIO_ASSERT_ON_STREAM();
  sink_->put();
}

}  // namespace apio
