#include "common/clock.h"

#include <cmath>
#include <thread>

namespace apio {
namespace {

constexpr double kNanosPerSecond = 1e9;

class WallSleeper final : public Sleeper {
 public:
  void sleep(double seconds) override {
    if (seconds <= 0.0) return;
    // Deliberate: backoff between retry attempts blocks the execution
    // stream by design — the stream has nothing to do until the retry.
    std::this_thread::sleep_for(  // apio-lint: allow(thread-context)
        std::chrono::duration<double>(seconds));
  }
};

}  // namespace

Sleeper& wall_sleeper() {
  static WallSleeper sleeper;
  return sleeper;
}

double ManualClock::now() const {
  return static_cast<double>(nanos_.load(std::memory_order_acquire)) /
         kNanosPerSecond;
}

void ManualClock::advance(double seconds) {
  if (seconds <= 0.0) return;
  nanos_.fetch_add(std::llround(seconds * kNanosPerSecond),
                   std::memory_order_acq_rel);
}

void ManualClock::sleep(double seconds) {
  advance(seconds);
  std::lock_guard lock(mutex_);
  sleeps_.push_back(seconds);
}

std::vector<double> ManualClock::sleeps() const {
  std::lock_guard lock(mutex_);
  return sleeps_;
}

double ManualClock::total_slept() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (double s : sleeps_) total += s;
  return total;
}

std::uint64_t ManualClock::sleep_count() const {
  std::lock_guard lock(mutex_);
  return sleeps_.size();
}

}  // namespace apio
