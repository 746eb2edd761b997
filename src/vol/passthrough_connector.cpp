#include "vol/passthrough_connector.h"

#include "common/error.h"

namespace apio::vol {

PassthroughConnector::PassthroughConnector(ConnectorPtr inner)
    : inner_(std::move(inner)) {
  APIO_REQUIRE(inner_ != nullptr, "PassthroughConnector requires an inner connector");
}

RequestPtr PassthroughConnector::dataset_write(h5::Dataset ds,
                                               const h5::Selection& selection,
                                               std::span<const std::byte> data) {
  const double t0 = clock_.now();
  auto request = inner_->dataset_write(ds, selection, data);
  const double dt = clock_.now() - t0;
  std::lock_guard lock(mutex_);
  ++stats_.writes;
  stats_.bytes_written += data.size();
  stats_.write_blocking_seconds += dt;
  return request;
}

RequestPtr PassthroughConnector::dataset_read(h5::Dataset ds,
                                              const h5::Selection& selection,
                                              std::span<std::byte> out) {
  const double t0 = clock_.now();
  auto request = inner_->dataset_read(ds, selection, out);
  const double dt = clock_.now() - t0;
  std::lock_guard lock(mutex_);
  ++stats_.reads;
  stats_.bytes_read += out.size();
  stats_.read_blocking_seconds += dt;
  return request;
}

void PassthroughConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  inner_->prefetch(ds, selection);
  std::lock_guard lock(mutex_);
  ++stats_.prefetches;
}

RequestPtr PassthroughConnector::flush() {
  auto request = inner_->flush();
  std::lock_guard lock(mutex_);
  ++stats_.flushes;
  return request;
}

PassthroughStats PassthroughConnector::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace apio::vol
