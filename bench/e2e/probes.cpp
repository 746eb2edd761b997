#include "probes.h"

#include <algorithm>

#include "timeline.h"

namespace apio::e2e {
namespace {

SpanName read_span(ProbeBackend::Role r) {
  return r == ProbeBackend::Role::kLeaf ? SpanName::kLeafRead : SpanName::kTopRead;
}
SpanName write_span(ProbeBackend::Role r) {
  return r == ProbeBackend::Role::kLeaf ? SpanName::kLeafWrite : SpanName::kTopWrite;
}
SpanName meta_span(ProbeBackend::Role r) {
  return r == ProbeBackend::Role::kLeaf ? SpanName::kLeafMeta : SpanName::kTopMeta;
}

}  // namespace

ProbeBackend::ProbeBackend(storage::BackendPtr inner, Role role)
    : inner_(std::move(inner)), role_(role) {}

void ProbeBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  {
    TimedSpan span(read_span(role_));
    inner_->read(offset, out);
  }
  extents_.fetch_add(1);
  count_read(out.size());
}

void ProbeBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  if (capturing_) captured_.assign({{offset, data.size()}});
  {
    TimedSpan span(write_span(role_));
    inner_->write(offset, data);
  }
  extents_.fetch_add(1);
  count_write(data.size());
}

std::uint64_t ProbeBackend::write_v(std::span<const storage::WriteExtent> extents) {
  if (capturing_) {
    captured_.clear();
    for (const auto& e : extents) captured_.emplace_back(e.offset, e.data.size());
  }
  std::uint64_t n = 0;
  {
    TimedSpan span(write_span(role_));
    n = inner_->write_v(extents);
  }
  extents_.fetch_add(extents.size());
  count_write(n);
  return n;
}

std::uint64_t ProbeBackend::read_v(std::span<const storage::ReadExtent> extents) {
  std::uint64_t n = 0;
  {
    TimedSpan span(read_span(role_));
    n = inner_->read_v(extents);
  }
  extents_.fetch_add(extents.size());
  count_read(n);
  return n;
}

void ProbeBackend::flush() {
  TimedSpan span(meta_span(role_));
  if (role_ == Role::kTop) inner_->flush();
  count_flush();
}

void ProbeBackend::close() {
  TimedSpan span(meta_span(role_));
  inner_->close();
}

void ProbeBackend::truncate(std::uint64_t new_size) {
  TimedSpan span(meta_span(role_));
  inner_->truncate(new_size);
}

std::string ProbeBackend::name() const { return "probe(" + inner_->name() + ")"; }

void RecordingObserver::on_io(const vol::IoRecord& record) {
  const std::size_t idx = next_.fetch_add(1);
  if (idx >= records_.size()) {
    dropped_.fetch_add(1);
    return;
  }
  records_[idx] = {record.op, record.cache_hit, record.blocking_seconds,
                   record.completion_seconds};
}

std::vector<OpRecord> RecordingObserver::records() const {
  const std::size_t n = std::min(next_.load(), records_.size());
  return {records_.begin(), records_.begin() + static_cast<std::ptrdiff_t>(n)};
}

}  // namespace apio::e2e
