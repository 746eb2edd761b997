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

constexpr std::size_t kNotLent = ~std::size_t{0};

/// The calling thread's innermost open Lend scope.
thread_local MemoryBackend::Lend* t_lend = nullptr;

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

MemoryBackend::Lend::Lend(const Pinned& pinned)
    : pinned_(pinned), previous_(t_lend) {
  t_lend = this;
}

MemoryBackend::Lend::~Lend() {
  t_lend = previous_;
  if (taken_.empty()) return;
  // Still pinned, so the lender has copied rather than written these
  // pages so far; from here on the mark makes it copy them regardless.
  MemoryBackend& lender = pinned_.store_;
  std::lock_guard lock(lender.mutex_);
  for (const std::size_t i : taken_) {
    const std::uint64_t index = pinned_.extents_[i].offset / kPage;
    if (index >= lender.pages_.size()) continue;
    Slot& slot = lender.pages_[index];
    if (slot.page == pinned_.pins_[i]) slot.shared = true;
  }
}

std::size_t MemoryBackend::Lend::find(const std::byte* data) {
  const std::size_t n = pinned_.pins_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (cursor_ + k) % n;
    if (pinned_.pins_[i].get() == data) {
      cursor_ = i + 1;
      return i;
    }
  }
  return kNotLent;
}

std::uint64_t MemoryBackend::size() const {
  std::lock_guard lock(mutex_);
  return size_;
}

std::byte* MemoryBackend::writable_page_locked(std::uint64_t index) {
  if (index >= pages_.size()) pages_.resize(index + 1);
  Slot& slot = pages_[index];
  if (!slot.page) {
    slot.page = allocate_page(nullptr);
    ++resident_pages_;
  } else if (slot.shared || slot.page.use_count() > 1) {
    // Copy on write: another store shares the page, or a gather pins
    // it.  A shared page's count is never read: the other store
    // changes it under its own lock.
    slot.page = allocate_page(slot.page.get());
    slot.shared = false;
  }
  return slot.page.get();
}

const std::byte* MemoryBackend::readable_page_locked(std::uint64_t index) const {
  return index < pages_.size() && pages_[index].page ? pages_[index].page.get()
                                                     : kZeroPage;
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

void MemoryBackend::put_locked(Lend* lend, std::uint64_t offset,
                               std::span<const std::byte> data) {
  const bool one_page = offset % kPage == 0 && data.size() == kPage;
  const std::size_t i =
      lend != nullptr && one_page ? lend->find(data.data()) : kNotLent;
  if (i == kNotLent) return copy_in_locked(offset, data);
  const std::uint64_t index = offset / kPage;
  if (index >= pages_.size()) pages_.resize(index + 1);
  Slot& slot = pages_[index];
  if (!slot.page) ++resident_pages_;
  slot.page = lend->pinned_.pins_[i];
  slot.shared = true;
  lend->taken_.push_back(i);
  size_ = std::max(size_, offset + kPage);
}

MemoryBackend::Lend* MemoryBackend::lend_to_this() const {
  Lend* lend = t_lend;
  return lend != nullptr && &lend->pinned_.store_ != this ? lend : nullptr;
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

std::uint64_t MemoryBackend::write_v(std::span<const WriteExtent> extents) {
  if (extents.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& e : extents) {
    APIO_INVARIANT(e.offset + e.data.size() >= e.offset,
                   "write range overflows offset space");
    total += e.data.size();
  }
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "memory",
                               storage_write_hist());
  Lend* lend = lend_to_this();
  std::lock_guard lock(mutex_);
  for (const auto& e : extents) put_locked(lend, e.offset, e.data);
  count_write(total);
  return total;
}

std::uint64_t MemoryBackend::read_v(std::span<const ReadExtent> extents) {
  if (extents.empty()) return 0;
  const std::uint64_t total = extent_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "memory",
                               storage_read_hist());
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
      if (pages_[i].page) --resident_pages_;
    }
    pages_.resize(kept);
  }
  // Bytes past the end are always zero, so only a shrink that keeps
  // part of a written page has a tail to clear.
  const std::uint64_t tail = new_size % kPage;
  if (new_size < size_ && tail != 0 && kept <= pages_.size() && pages_[kept - 1].page) {
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
    out.pins_.push_back(index < pages_.size() ? pages_[index].page : nullptr);
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
    if (!pages_[i].page) continue;
    pages_[i] = {};
    --resident_pages_;
  }
}

std::uint64_t MemoryBackend::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return resident_pages_ * kPage;
}

}  // namespace apio::storage
