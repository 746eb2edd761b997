// analysis_test fixture: storage::Decorator's Transfer pattern.  The
// inner call runs through a captureless lambda's static invoker, whose
// address the constructor takes; nothing calls the invoker by name.
#include <chrono>
#include <thread>

#include "common/debug/thread_role.h"

namespace apio {

class Transfer {
 public:
  template <typename Fn>
  explicit Transfer(Fn& fn)
      : fn_(&fn), call_([](void* f) { (*static_cast<Fn*>(f))(); }) {}
  void operator()() const { call_(fn_); }

 private:
  void* fn_;
  void (*call_)(void*);
};

class Layer {
 public:
  void write();

 private:
  void slow();
};

void Layer::slow() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // apio-lint: allow(no-test-sleep)
}

void Layer::write() {
  APIO_ASSERT_ON_STREAM();
  auto body = [this] { slow(); };
  Transfer transfer(body);
  transfer();
}

}  // namespace apio
