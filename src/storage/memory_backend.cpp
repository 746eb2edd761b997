#include "storage/memory_backend.h"

#include <cstring>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "storage/obs_metrics.h"

namespace apio::storage {

std::uint64_t MemoryBackend::size() const {
  std::lock_guard lock(mutex_);
  return data_.size();
}

void MemoryBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  APIO_INVARIANT(offset + out.size() >= offset, "read range overflows offset space");
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, out.size(), "memory",
                               storage_read_hist(), &storage_bytes_read());
  std::lock_guard lock(mutex_);
  if (offset + out.size() > data_.size()) {
    throw IoError("memory backend: read past end of object (offset " +
                  std::to_string(offset) + " + " + std::to_string(out.size()) +
                  " > " + std::to_string(data_.size()) + ")");
  }
  std::memcpy(out.data(), data_.data() + offset, out.size());
  count_read(out.size());
}

void MemoryBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  APIO_INVARIANT(offset + data.size() >= offset, "write range overflows offset space");
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, data.size(), "memory",
                               storage_write_hist(), &storage_bytes_written());
  std::lock_guard lock(mutex_);
  const std::uint64_t end = offset + data.size();
  if (end > data_.size()) data_.resize(end);
  std::memcpy(data_.data() + offset, data.data(), data.size());
  count_write(data.size());
}

std::uint64_t MemoryBackend::write_v(std::span<const WriteExtent> extents) {
  if (extents.empty()) return 0;
  std::uint64_t total = 0;
  std::uint64_t max_end = 0;
  for (const auto& e : extents) {
    APIO_INVARIANT(e.offset + e.data.size() >= e.offset,
                   "write range overflows offset space");
    total += e.data.size();
    max_end = std::max(max_end, e.offset + e.data.size());
  }
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "memory",
                               storage_write_hist(), &storage_bytes_written());
  std::lock_guard lock(mutex_);
  if (max_end > data_.size()) data_.resize(max_end);
  for (const auto& e : extents) {
    std::memcpy(data_.data() + e.offset, e.data.data(), e.data.size());
  }
  count_write(total);
  return total;
}

std::uint64_t MemoryBackend::read_v(std::span<const ReadExtent> extents) {
  if (extents.empty()) return 0;
  const std::uint64_t total = extent_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "memory",
                               storage_read_hist(), &storage_bytes_read());
  std::lock_guard lock(mutex_);
  for (const auto& e : extents) {
    APIO_INVARIANT(e.offset + e.out.size() >= e.offset,
                   "read range overflows offset space");
    if (e.offset + e.out.size() > data_.size()) {
      throw IoError("memory backend: read past end of object (offset " +
                    std::to_string(e.offset) + " + " +
                    std::to_string(e.out.size()) + " > " +
                    std::to_string(data_.size()) + ")");
    }
    std::memcpy(e.out.data(), data_.data() + e.offset, e.out.size());
  }
  count_read(total);
  return total;
}

void MemoryBackend::flush() { count_flush(); }

void MemoryBackend::truncate(std::uint64_t new_size) {
  std::lock_guard lock(mutex_);
  data_.resize(new_size);
}

}  // namespace apio::storage
