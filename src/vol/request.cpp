#include "vol/request.h"

#include "common/debug/invariant.h"

namespace apio::vol {

std::string RequestInfo::to_string() const {
  std::string out = obs::to_string(op);
  if (!dataset_path.empty()) out += " " + dataset_path;
  if (!selection.empty()) out += " " + selection;
  out += " @+" + std::to_string(offset) + " (" + std::to_string(bytes) + " B)";
  return out;
}

RequestPtr Request::make_ready(RequestInfo info) {
  auto request = std::make_shared<Request>(std::move(info));
  request->complete();
  return request;
}

void Request::complete(std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  APIO_ASSERT(!done_, "Request completed twice");
  done_ = true;
  error_ = std::move(error);
  // Notified under the lock: a woken waiter may drop the last reference
  // as soon as it can reacquire the mutex.
  cv_.notify_all();
}

void Request::wait() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  if (error_) std::rethrow_exception(error_);
}

void Request::wait_ignore_error() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
}

bool Request::test() const {
  std::lock_guard lock(mutex_);
  return done_;
}

std::exception_ptr Request::error() const {
  std::lock_guard lock(mutex_);
  return error_;
}

}  // namespace apio::vol
