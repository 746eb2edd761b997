#include "vol/request.h"

#include "common/debug/invariant.h"

namespace apio::vol {

RequestPtr Request::make_ready(obs::IoRecord info) {
  auto request = std::make_shared<Request>(std::move(info));
  request->complete();
  return request;
}

void Request::complete(std::exception_ptr error) {
  APIO_ASSERT(!test(), "Request completed twice");
  error_ = std::move(error);
  state_.store(kDone, std::memory_order_release);
  state_.notify_all();
}

void Request::wait() {
  wait_ignore_error();
  if (error_) std::rethrow_exception(error_);
}

void Request::wait_ignore_error() const {
  state_.wait(kPending, std::memory_order_acquire);
}

}  // namespace apio::vol
