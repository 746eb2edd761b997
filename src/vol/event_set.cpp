#include "vol/event_set.h"

#include "common/error.h"

namespace apio::vol {

std::string EventError::to_string() const {
  std::string out = obs::to_string(info.op);
  if (!info.dataset_path.empty()) out += " " + info.dataset_path;
  if (!info.selection.empty()) out += " " + info.selection;
  out += " @+" + std::to_string(info.offset) + " (" + std::to_string(info.bytes) + " B)";
  return out + ": " + message +
         " [category=" + (category.empty() ? "unknown" : category) + "]";
}

void EventSet::insert(RequestPtr request) {
  APIO_REQUIRE(request != nullptr, "EventSet::insert(null)");
  std::lock_guard lock(mutex_);
  pending_.push_back(std::move(request));
}

std::size_t EventSet::size() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

bool EventSet::test() const {
  std::lock_guard lock(mutex_);
  for (const auto& r : pending_) {
    if (!r->test()) return false;
  }
  return true;
}

void EventSet::wait() {
  std::vector<RequestPtr> batch;
  {
    std::lock_guard lock(mutex_);
    batch.swap(pending_);
  }
  std::vector<EventError> new_errors;
  std::vector<std::exception_ptr> new_raw;
  for (auto& r : batch) {
    try {
      r->wait();
    } catch (...) {
      new_raw.push_back(std::current_exception());
      EventError err;
      err.info = r->info();
      err.message = apio::error_message(new_raw.back());
      err.category = apio::error_category(new_raw.back());
      new_errors.push_back(std::move(err));
    }
  }
  std::lock_guard lock(mutex_);
  errors_.insert(errors_.end(), std::make_move_iterator(new_errors.begin()),
                 std::make_move_iterator(new_errors.end()));
  raw_errors_.insert(raw_errors_.end(), new_raw.begin(), new_raw.end());
}

std::size_t EventSet::num_errors() const {
  std::lock_guard lock(mutex_);
  return errors_.size();
}

std::vector<EventError> EventSet::errors() const {
  std::lock_guard lock(mutex_);
  return errors_;
}

std::vector<std::string> EventSet::error_messages() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> messages;
  messages.reserve(errors_.size());
  for (const auto& e : errors_) messages.push_back(e.to_string());
  return messages;
}

void EventSet::rethrow_first_error() const {
  std::lock_guard lock(mutex_);
  if (!raw_errors_.empty()) std::rethrow_exception(raw_errors_.front());
}

void EventSet::clear() {
  std::lock_guard lock(mutex_);
  pending_.clear();
  errors_.clear();
  raw_errors_.clear();
}

}  // namespace apio::vol
