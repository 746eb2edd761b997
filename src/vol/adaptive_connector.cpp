#include "vol/adaptive_connector.h"

#include "common/error.h"

namespace apio::vol {

AdaptiveConnector::AdaptiveConnector(h5::FilePtr file, model::ModeAdvisorPtr advisor,
                                     AsyncOptions async_options)
    : file_(file),
      advisor_(advisor != nullptr ? std::move(advisor)
                                  : std::make_shared<model::ModeAdvisor>()),
      sync_(file),
      async_(std::move(file), async_options) {
  // Both inner connectors feed the same feedback loop (Fig. 2).
  sync_.add_observer(advisor_);
  async_.add_observer(advisor_);
}

void AdaptiveConnector::set_reported_ranks(int ranks) {
  Connector::set_reported_ranks(ranks);  // planned_mode() reads it
  sync_.set_reported_ranks(ranks);
  async_.set_reported_ranks(ranks);
}

void AdaptiveConnector::add_observer(IoObserverPtr observer) {
  // Records originate in the routed-to inner connectors; subscribe the
  // observer where the emission actually happens.
  sync_.add_observer(observer);
  async_.add_observer(std::move(observer));
}

void AdaptiveConnector::remove_observer(const IoObserverPtr& observer) {
  sync_.remove_observer(observer);
  async_.remove_observer(observer);
}

model::IoMode AdaptiveConnector::planned_mode(std::uint64_t bytes) const {
  return advisor_->recommend(bytes, reported_ranks());
}

RequestPtr AdaptiveConnector::dataset_write(h5::Dataset ds,
                                            const h5::Selection& selection,
                                            std::span<const std::byte> data) {
  if (planned_mode(data.size()) == model::IoMode::kAsync) {
    writes_async_.fetch_add(1, std::memory_order_relaxed);
    return async_.dataset_write(ds, selection, data);
  }
  writes_sync_.fetch_add(1, std::memory_order_relaxed);
  return sync_.dataset_write(ds, selection, data);
}

RequestPtr AdaptiveConnector::dataset_read(h5::Dataset ds,
                                           const h5::Selection& selection,
                                           std::span<std::byte> out) {
  // Prefetched data lives in the async connector's cache; reading
  // through it is strictly better when a hit is possible.  Without a
  // prefetch in flight the advisor's recommendation decides (an async
  // read only helps when the caller can overlap — which the advisor
  // infers from the compute history).
  if (planned_mode(out.size()) == model::IoMode::kAsync) {
    reads_async_.fetch_add(1, std::memory_order_relaxed);
    auto request = async_.dataset_read(ds, selection, out);
    // The adaptive interface stays transparent: the caller of a routed
    // read expects sync completion semantics unless it opted into
    // managing requests itself, so we wait here.  Cache hits return
    // instantly; misses pay the queue — which the advisor's next
    // refit observes and corrects for.
    request->wait();
    return request;
  }
  reads_sync_.fetch_add(1, std::memory_order_relaxed);
  return sync_.dataset_read(ds, selection, out);
}

void AdaptiveConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  async_.prefetch(ds, selection);
}

RequestPtr AdaptiveConnector::flush() {
  async_.wait_all();  // writes routed async must land before the flush
  return sync_.flush();
}

void AdaptiveConnector::wait_all() { async_.wait_all(); }

void AdaptiveConnector::close() {
  async_.wait_all();
  async_.close();  // closes the shared file too
}

AdaptiveStats AdaptiveConnector::adaptive_stats() const {
  AdaptiveStats stats;
  stats.writes_sync = writes_sync_.load(std::memory_order_relaxed);
  stats.writes_async = writes_async_.load(std::memory_order_relaxed);
  stats.reads_sync = reads_sync_.load(std::memory_order_relaxed);
  stats.reads_async = reads_async_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace apio::vol
