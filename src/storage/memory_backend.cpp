#include "storage/memory_backend.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "storage/obs_metrics.h"

namespace apio::storage {

namespace {

constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;

/// What a page never written reads as.
const std::byte kZeroPage[kPage]{};

/// A fresh page: zeroed, or a copy of `from`.
std::shared_ptr<std::byte[]> allocate_page(const std::byte* from) {
  void* bytes = from != nullptr ? std::malloc(kPage) : std::calloc(1, kPage);
  if (bytes == nullptr) throw std::bad_alloc();
  if (from != nullptr) std::memcpy(bytes, from, kPage);
  return {static_cast<std::byte*>(bytes), [](std::byte* p) { std::free(p); }};
}

/// Calls fn(page index, offset in page, offset in range, length) for
/// each page piece of [offset, offset + length).
template <typename Fn>
void for_each_piece(std::uint64_t offset, std::uint64_t length, Fn&& fn) {
  for (std::uint64_t done = 0; done < length;) {
    const std::uint64_t at = offset + done;
    const std::uint64_t in_page = at % kPage;
    const std::uint64_t n = std::min(kPage - in_page, length - done);
    fn(at / kPage, in_page, done, n);
    done += n;
  }
}

}  // namespace

MemoryBackend::Pinned::~Pinned() {
  // Unpinned under the store's lock, so a writer that later finds the
  // page unshared is ordered after every read through these spans.
  std::lock_guard lock(store_.mutex_);
  pins_.clear();
}

std::uint64_t MemoryBackend::size() const {
  std::lock_guard lock(mutex_);
  return size_;
}

std::byte* MemoryBackend::writable_page_locked(std::uint64_t index) {
  if (index >= pages_.size()) pages_.resize(index + 1);
  Page& page = pages_[index];
  if (!page) {
    page = allocate_page(nullptr);
    ++resident_pages_;
  } else if (page.use_count() > 1) {
    page = allocate_page(page.get());  // copy on write: a gather pins it
  }
  return page.get();
}

const std::byte* MemoryBackend::readable_page_locked(std::uint64_t index) const {
  return index < pages_.size() && pages_[index] ? pages_[index].get() : kZeroPage;
}

void MemoryBackend::copy_in_locked(std::uint64_t offset,
                                   std::span<const std::byte> data) {
  if (data.empty()) return;  // an empty write does not grow the object
  for_each_piece(offset, data.size(), [&](std::uint64_t index, std::uint64_t in_page,
                                          std::uint64_t done, std::uint64_t n) {
    std::memcpy(writable_page_locked(index) + in_page, data.data() + done, n);
  });
  size_ = std::max(size_, offset + data.size());
}

void MemoryBackend::copy_out_locked(std::uint64_t offset,
                                    std::span<std::byte> out) const {
  for_each_piece(offset, out.size(), [&](std::uint64_t index, std::uint64_t in_page,
                                         std::uint64_t done, std::uint64_t n) {
    std::memcpy(out.data() + done, readable_page_locked(index) + in_page, n);
  });
}

void MemoryBackend::require_readable_locked(std::uint64_t offset,
                                            std::uint64_t length) const {
  if (offset + length > size_) {
    throw IoError("memory backend: read past end of object (offset " +
                  std::to_string(offset) + " + " + std::to_string(length) +
                  " > " + std::to_string(size_) + ")");
  }
}

void MemoryBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  APIO_INVARIANT(offset + out.size() >= offset, "read range overflows offset space");
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, out.size(), "memory",
                               storage_read_hist(), &storage_bytes_read());
  std::lock_guard lock(mutex_);
  require_readable_locked(offset, out.size());
  copy_out_locked(offset, out);
  count_read(out.size());
}

void MemoryBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  APIO_INVARIANT(offset + data.size() >= offset, "write range overflows offset space");
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, data.size(), "memory",
                               storage_write_hist(), &storage_bytes_written());
  std::lock_guard lock(mutex_);
  copy_in_locked(offset, data);
  count_write(data.size());
}

std::uint64_t MemoryBackend::write_v(std::span<const WriteExtent> extents) {
  if (extents.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& e : extents) {
    APIO_INVARIANT(e.offset + e.data.size() >= e.offset,
                   "write range overflows offset space");
    total += e.data.size();
  }
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "memory",
                               storage_write_hist(), &storage_bytes_written());
  std::lock_guard lock(mutex_);
  for (const auto& e : extents) copy_in_locked(e.offset, e.data);
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
    if (e.out.empty()) continue;
    require_readable_locked(e.offset, e.out.size());
    copy_out_locked(e.offset, e.out);
  }
  count_read(total);
  return total;
}

void MemoryBackend::flush() { count_flush(); }

void MemoryBackend::truncate(std::uint64_t new_size) {
  std::lock_guard lock(mutex_);
  const std::uint64_t kept = (new_size + kPage - 1) / kPage;
  if (kept < pages_.size()) {
    for (std::uint64_t i = kept; i < pages_.size(); ++i) {
      if (pages_[i]) --resident_pages_;
    }
    pages_.resize(kept);
  }
  // Bytes past the end are always zero, so only a shrink that keeps
  // part of a written page has a tail to clear.
  const std::uint64_t tail = new_size % kPage;
  if (new_size < size_ && tail != 0 && kept <= pages_.size() && pages_[kept - 1]) {
    std::memset(writable_page_locked(kept - 1) + tail, 0, kPage - tail);
  }
  size_ = new_size;
}

void MemoryBackend::gather(std::uint64_t offset, std::uint64_t length,
                           Pinned& out) {
  APIO_INVARIANT(&out.store_ == this, "pinned spans belong to another store");
  std::lock_guard lock(mutex_);
  for_each_piece(offset, length, [&](std::uint64_t index, std::uint64_t in_page,
                                     std::uint64_t done, std::uint64_t n) {
    if (index < pages_.size() && pages_[index]) out.pins_.push_back(pages_[index]);
    out.extents_.push_back(
        {offset + done, std::span(readable_page_locked(index) + in_page, n)});
  });
}

void MemoryBackend::discard(std::uint64_t offset, std::uint64_t length) {
  std::lock_guard lock(mutex_);
  const std::uint64_t first = (offset + kPage - 1) / kPage;
  const std::uint64_t last = std::min<std::uint64_t>((offset + length) / kPage,
                                                     pages_.size());
  for (std::uint64_t i = first; i < last; ++i) {
    if (!pages_[i]) continue;
    pages_[i].reset();
    --resident_pages_;
  }
}

std::uint64_t MemoryBackend::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return resident_pages_ * kPage;
}

}  // namespace apio::storage
