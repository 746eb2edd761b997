#include "model/advisor.h"

#include <algorithm>

#include "common/error.h"

namespace apio::model {

ModeAdvisor::ModeAdvisor() { obs::add_epoch_sink(this); }

// Removal waits for an in-flight marker fan-out, which holds the sink
// list's guard, so no marker reaches a destroyed advisor.
ModeAdvisor::~ModeAdvisor() { obs::remove_epoch_sink(this); }

void ModeAdvisor::on_io(const obs::IoRecord& record) {
  // Prefetch hints and flushes move no caller-timed payload; letting
  // them into the fits would pollute the transfer rates.
  if (record.op == obs::IoOp::kPrefetch || record.op == obs::IoOp::kFlush) return;
  // Async reads completed in the background report 0 blocking time and
  // carry no rate information for the caller-visible cost; skip them.
  if (record.blocking_seconds <= 0.0 || record.bytes == 0) return;

  // For sync transfers the rate is the PFS aggregate rate; for async it
  // is the staging-copy rate, which is exactly what the transactional-
  // overhead estimator must regress (Sec. III-B1).
  const IoSample sample{record.bytes, record.ranks,
                        static_cast<double>(record.bytes) / record.blocking_seconds};
  std::lock_guard<std::mutex> lock(mutex_);
  (record.async ? async_estimator_ : sync_estimator_).add(sample);
}

void ModeAdvisor::on_epoch_event(const obs::EpochEvent& event) {
  using Kind = obs::EpochEvent::Kind;
  double window = -1.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (event.kind == Kind::kBegin || event.kind == Kind::kComputeStart) {
      compute_start_[event.rank] = event.time_seconds;
      return;
    }
    const auto it = compute_start_.find(event.rank);
    if (it == compute_start_.end()) return;
    if (event.kind == Kind::kComputeDone) {
      window = std::max(event.time_seconds - it->second, 0.0);
    }
    compute_start_.erase(it);
  }
  if (window >= 0.0) record_compute(window);
}

void ModeAdvisor::record_compute(double seconds) {
  APIO_REQUIRE(seconds >= 0.0, "compute durations must be non-negative");
  std::lock_guard<std::mutex> lock(mutex_);
  compute_.add(seconds);
  ++compute_observations_;
}

bool ModeAdvisor::sync_ready() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sync_estimator_.ready();
}

bool ModeAdvisor::async_ready() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return async_estimator_.ready();
}

bool ModeAdvisor::compute_ready() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !compute_.empty();
}

double ModeAdvisor::estimate_io_seconds(std::uint64_t bytes, int ranks) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sync_estimator_.estimate_seconds(bytes, ranks);
}

double ModeAdvisor::estimate_transact_seconds(std::uint64_t bytes, int ranks) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return async_estimator_.estimate_seconds(bytes, ranks);
}

double ModeAdvisor::estimate_compute_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return compute_.value();
}

EpochCosts ModeAdvisor::predict_locked(std::uint64_t bytes, int ranks) const {
  EpochCosts costs;
  costs.t_io = sync_estimator_.estimate_seconds(bytes, ranks);
  costs.t_transact = async_estimator_.estimate_seconds(bytes, ranks);
  costs.t_comp = compute_.value();
  return costs;
}

EpochCosts ModeAdvisor::predict_epoch(std::uint64_t bytes, int ranks) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return predict_locked(bytes, ranks);
}

IoMode ModeAdvisor::recommend(std::uint64_t bytes, int ranks) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Exploration phase: measure sync first (the baseline every
  // comparison needs), then async.
  if (!sync_estimator_.ready() || compute_.empty()) return IoMode::kSync;
  if (!async_estimator_.ready()) return IoMode::kAsync;
  return async_is_beneficial(predict_locked(bytes, ranks)) ? IoMode::kAsync
                                                          : IoMode::kSync;
}

OverlapScenario ModeAdvisor::predict_scenario(std::uint64_t bytes, int ranks) const {
  return classify_overlap(predict_epoch(bytes, ranks));
}

double ModeAdvisor::sync_r_squared() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sync_estimator_.r_squared();
}

double ModeAdvisor::async_r_squared() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return async_estimator_.r_squared();
}

std::size_t ModeAdvisor::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sync_estimator_.size() + async_estimator_.size();
}

std::size_t ModeAdvisor::compute_observations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return compute_observations_;
}

}  // namespace apio::model
