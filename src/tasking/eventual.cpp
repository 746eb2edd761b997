#include "tasking/eventual.h"

#include "common/debug/invariant.h"
#include "common/error.h"

namespace apio::tasking {

EventualPtr Eventual::make_ready() {
  auto e = make();
  e->set();
  return e;
}

void Eventual::set() { set_error(nullptr); }

void Eventual::set_error(std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  APIO_ASSERT(!done_, "Eventual completed twice");
  done_ = true;
  error_ = std::move(error);
  // Notified under the lock: a woken waiter may drop the last reference
  // as soon as it can reacquire the mutex.
  cv_.notify_all();
}

void Eventual::wait() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  if (error_) std::rethrow_exception(error_);
}

void Eventual::wait_ignore_error() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
}

bool Eventual::test() const {
  std::lock_guard lock(mutex_);
  return done_;
}

bool Eventual::has_error() const {
  std::lock_guard lock(mutex_);
  return done_ && error_ != nullptr;
}

std::exception_ptr Eventual::error() const {
  std::lock_guard lock(mutex_);
  return done_ ? error_ : nullptr;
}

}  // namespace apio::tasking
