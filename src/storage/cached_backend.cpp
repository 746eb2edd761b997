#include "storage/cached_backend.h"

#include <algorithm>
#include <mutex>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "storage/memory_backend.h"

namespace apio::storage {

namespace {

// The registry keeps only the two byte gauges, for their high-water
// marks; every count lives in the atomics cache_snapshot() reads.
obs::Gauge& cache_dirty_gauge() {
  static auto& g = obs::Registry::instance().gauge("io.cache.dirty_bytes");
  return g;
}
obs::Gauge& cache_cached_gauge() {
  static auto& g = obs::Registry::instance().gauge("io.cache.cached_bytes");
  return g;
}

constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;

}  // namespace

const char* to_string(CacheConsistency mode) {
  switch (mode) {
    case CacheConsistency::kAfterWrite: return "after-write";
    case CacheConsistency::kAfterClose: return "after-close";
    case CacheConsistency::kAfterEpoch: return "after-epoch";
    case CacheConsistency::kAfterJob: return "after-job";
  }
  return "<unknown mode>";
}

bool parse_cache_consistency(const std::string& text, CacheConsistency& out) {
  if (text == "after-write") { out = CacheConsistency::kAfterWrite; return true; }
  if (text == "after-close") { out = CacheConsistency::kAfterClose; return true; }
  if (text == "after-epoch") { out = CacheConsistency::kAfterEpoch; return true; }
  if (text == "after-job") { out = CacheConsistency::kAfterJob; return true; }
  return false;
}

// ---------------------------------------------------------------------------
// Lifecycle

CachedBackend::CachedBackend(BackendPtr inner, CacheOptions options)
    : inner_(std::move(inner)), options_(options) {
  APIO_REQUIRE(inner_ != nullptr, "CachedBackend needs an inner backend");
  APIO_REQUIRE(options_.capacity_bytes >= kPage,
               "cache capacity must hold at least one page");
  logical_size_ = inner_->size();
  if (options_.consistency == CacheConsistency::kAfterEpoch) {
    obs::add_epoch_sink(this);
  }
}

CachedBackend::~CachedBackend() {
  if (options_.consistency == CacheConsistency::kAfterEpoch) {
    obs::remove_epoch_sink(this);
  }
  // Last-chance drain (the kAfterJob "job end", and a safety net for
  // containers destroyed without close()).  Destructors must not
  // throw; undrainable bytes are counted, not lost silently.
  try {
    drain();
  } catch (...) {
    std::lock_guard lock(mutex_);
    const std::uint64_t lost = dirty_.bytes();
    lost_bytes_.fetch_add(lost, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Backend surface

std::uint64_t CachedBackend::size() const {
  std::lock_guard lock(mutex_);
  return logical_size_;
}

std::string CachedBackend::name() const {
  return std::string("cached[") + to_string(options_.consistency) + "](" +
         inner_->name() + ")";
}

std::uint64_t CachedBackend::read_v(std::span<const ReadExtent> extents) {
  if (extents.empty()) return 0;
  const double t0 = obs::steady_seconds();
  // Each round finds the unstaged gaps and, once there are none, copies
  // out in the same hold of the lock, so no eviction can free a page
  // between the check and the copy.  A miss fetches its gaps outside
  // the lock and stages them at the start of the next round; an
  // eviction in between only costs another round.
  bool hit = true;
  Runs gaps;
  std::vector<std::byte> fetched;
  std::uint64_t moved = 0;
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      stage_fetched_locked(gaps, fetched);
      gaps.clear();
      for (const auto& e : extents) {
        const std::uint64_t end = e.offset + e.out.size();
        APIO_INVARIANT(end >= e.offset, "read range overflows offset space");
        if (e.out.empty()) continue;  // an empty extent transfers nothing
        if (end > logical_size_) {
          throw IoError("cached backend: read past end of object (offset " +
                        std::to_string(e.offset) + " + " +
                        std::to_string(e.out.size()) + " > " +
                        std::to_string(logical_size_) + ")");
        }
        valid_.gaps(e.offset, end, gaps);
      }
      if (gaps.empty()) {
        for (const auto& e : extents) {
          touch_pages_locked(e.offset, e.offset + e.out.size());
        }
        moved = staging_.read_v(extents);
        break;
      }
    }
    hit = false;
    fetch(gaps, fetched);
  }
  count_read(moved);
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_bytes_.fetch_add(moved, std::memory_order_relaxed);
    if (const auto* ctx = obs::trace::current_trace()) {
      obs::trace::record_phase(*ctx, obs::trace::Phase::kCacheHit, t0,
                               obs::steady_seconds() - t0, moved, "staging");
    }
  } else {
    enforce_capacity();
  }
  return moved;
}

std::uint64_t CachedBackend::write_v(std::span<const WriteExtent> extents) {
  if (extents.empty()) return 0;
  std::uint64_t moved = 0;
  {
    std::lock_guard lock(mutex_);
    moved = staging_.write_v(extents);
    for (const auto& e : extents) {
      const std::uint64_t end = e.offset + e.data.size();
      APIO_INVARIANT(end >= e.offset, "write range overflows offset space");
      if (e.data.empty()) continue;  // an empty extent does not grow the object
      valid_.add(e.offset, end);
      dirty_.add(e.offset, end);
      if (writing_back_) rewritten_.add(e.offset, end);
      touch_pages_locked(e.offset, end);
      logical_size_ = std::max(logical_size_, end);
    }
    update_gauges_locked();
  }
  count_write(moved);
  if (options_.consistency == CacheConsistency::kAfterWrite) {
    // Write-through: forward immediately; the staged copy only serves
    // re-reads.  A failed forward keeps the batch dirty so a later
    // drain (close, explicit) retries it.
    (void)inner_->write_v(extents);
    std::lock_guard lock(mutex_);
    for (const auto& e : extents) {
      dirty_.subtract(e.offset, e.offset + e.data.size());
    }
    update_gauges_locked();
  }
  enforce_capacity();
  return moved;
}

void CachedBackend::flush() {
  // flush() persists what the consistency policy has already made
  // visible; it does NOT drain (that is what the mode's trigger —
  // close, epoch end, drain() — is for).  kAfterWrite has nothing
  // staged-only, so forwarding is a full flush there.
  count_flush();
  inner_->flush();
}

void CachedBackend::close() {
  if (options_.consistency != CacheConsistency::kAfterJob) {
    drain();
  }
  inner_->close();
}

void CachedBackend::truncate(std::uint64_t new_size) {
  {
    std::lock_guard lock(mutex_);
    valid_.truncate(new_size);
    dirty_.truncate(new_size);
    rewritten_.truncate(new_size);
    logical_size_ = new_size;
    update_gauges_locked();
    if (staging_.size() > new_size) staging_.truncate(new_size);
    const std::vector<std::uint64_t> pages(lru_.begin(), lru_.end());
    for (const std::uint64_t page : pages) forget_page_if_empty_locked(page);
  }
  // Metadata operations are externally serialised (Backend contract),
  // so propagating eagerly keeps shrink/regrow honest in every mode:
  // a regrow reads the inner backend's zero-fill, never stale staged
  // bytes.
  inner_->truncate(new_size);
}

// ---------------------------------------------------------------------------
// Cache machinery

void CachedBackend::touch_pages_locked(std::uint64_t begin,
                                       std::uint64_t end) {
  if (begin >= end) return;
  for (std::uint64_t page = begin / kPage; page <= (end - 1) / kPage; ++page) {
    // Extents of one batch often share a page: it is already hottest.
    if (!lru_.empty() && lru_.front() == page) continue;
    auto pos = lru_pos_.find(page);
    if (pos != lru_pos_.end()) lru_.erase(pos->second);
    lru_.push_front(page);
    lru_pos_[page] = lru_.begin();
  }
}

void CachedBackend::forget_page_if_empty_locked(std::uint64_t page) {
  const std::uint64_t at = page * kPage;
  if (valid_.overlaps(at, at + kPage)) return;
  staging_.discard(at, kPage);
  auto pos = lru_pos_.find(page);
  if (pos == lru_pos_.end()) return;
  lru_.erase(pos->second);
  lru_pos_.erase(pos);
}

void CachedBackend::update_gauges_locked() {
  if (!obs::enabled()) return;
  cache_cached_gauge().set(static_cast<std::int64_t>(valid_.bytes()));
  cache_cached_gauge().note_watermark();
  cache_dirty_gauge().set(static_cast<std::int64_t>(dirty_.bytes()));
  cache_dirty_gauge().note_watermark();
}

void CachedBackend::fetch(const Runs& gaps, std::vector<std::byte>& buf) {
  // The read extents are sorted and disjoint, so their gaps are too:
  // one vectored fetch covers them all.
  std::uint64_t gap_bytes = 0;
  for (const auto& [gb, ge] : gaps) gap_bytes += ge - gb;
  buf.assign(gap_bytes, std::byte{0});
  std::vector<ReadExtent> reads;
  reads.reserve(gaps.size());
  const std::uint64_t inner_size = inner_->size();
  std::uint64_t pos = 0;
  std::uint64_t fetched = 0;
  for (const auto& [gb, ge] : gaps) {
    // Bytes past the inner end-of-object exist only logically (grown
    // by staged writes / truncate): they stay zero, the rest is fetched.
    const std::uint64_t readable_end = std::min(ge, inner_size);
    if (gb < readable_end) {
      reads.push_back({gb, std::span(buf).subspan(pos, readable_end - gb)});
      fetched += readable_end - gb;
    }
    pos += ge - gb;
  }
  if (!reads.empty()) (void)inner_->read_v(reads);  // a short read throws
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_bytes_.fetch_add(fetched, std::memory_order_relaxed);
}

void CachedBackend::stage_fetched_locked(const Runs& gaps,
                                         std::span<const std::byte> buf) {
  std::vector<WriteExtent> stage;
  Runs unstaged;
  std::uint64_t pos = 0;
  for (const auto& [gb, ge] : gaps) {
    unstaged.clear();
    valid_.gaps(gb, ge, unstaged);
    for (const auto& [sb, se] : unstaged) {
      stage.push_back({sb, buf.subspan(pos + (sb - gb), se - sb)});
    }
    pos += ge - gb;
  }
  if (stage.empty()) return;
  (void)staging_.write_v(stage);  // the staging store writes in full or throws
  for (const auto& e : stage) valid_.add(e.offset, e.offset + e.data.size());
  update_gauges_locked();
}

std::uint64_t CachedBackend::write_back(std::uint64_t begin,
                                        std::uint64_t end) {
  // The lowest-offset interval goes LAST, whole: containers keep their
  // header (superblock) at offset 0 and rely on shadow-update ordering
  // — data and metadata land before the header points at them.  Both
  // batches are spans over the pinned staging pages, one extent per
  // page, and stay on the vectored write_v fast path.  The dirty set is
  // read in the same hold as the gather: a range another write-back
  // cleaned meanwhile may already have been evicted and its page freed.
  MemoryBackend::Pinned rest(staging_);
  MemoryBackend::Pinned lowest(staging_);
  Runs extents;
  std::uint64_t total = 0;
  {
    std::lock_guard lock(mutex_);
    dirty_.clipped(begin, end, extents);
    if (extents.empty()) return 0;
    for (const auto& [b, e] : extents) {
      staging_.gather(b, e - b, b == extents.front().first ? lowest : rest);
      total += e - b;
    }
    writing_back_ = true;
  }
  // Span declared before the transfers: it records after they finish,
  // attributing the whole PFS-bound drain to kCacheFlush.
  obs::trace::ScopedPhase span(obs::trace::Phase::kCacheFlush, total,
                               "cached");
  const auto finish_locked = [&] {
    writing_back_ = false;
    rewritten_.clear();
    update_gauges_locked();
  };
  try {
    // Each batch is lent while it is written, so a memory leaf shares
    // the whole staging pages instead of copying them.
    std::uint64_t written = 0;
    if (!rest.extents().empty()) {
      const MemoryBackend::Lend lend(rest);
      written += inner_->write_v(rest.extents());
    }
    {
      const MemoryBackend::Lend lend(lowest);
      written += inner_->write_v(lowest.extents());
    }
    if (written != total) {
      throw IoError("cached backend: short drain write (" +
                    std::to_string(written) + " of " + std::to_string(total) +
                    " bytes)");
    }
  } catch (...) {
    // Dirty set untouched: the same extents retry on the next drain.
    {
      std::lock_guard lock(mutex_);
      finish_locked();
    }
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
  {
    std::lock_guard lock(mutex_);
    Runs again;
    for (const auto& [b, e] : extents) {
      dirty_.subtract(b, e);
      rewritten_.clipped(b, e, again);
    }
    for (const auto& [b, e] : again) dirty_.add(b, e);
    finish_locked();
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  flushed_bytes_.fetch_add(total, std::memory_order_relaxed);
  return total;
}

void CachedBackend::enforce_capacity() {
  // Bounded: a writer racing this loop by re-dirtying the victim can
  // delay eviction, not wedge it — capacity is a soft budget.
  constexpr int kMaxRounds = 256;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::uint64_t b = 0;
    std::uint64_t e = 0;
    {
      std::lock_guard lock(mutex_);
      if (valid_.bytes() <= options_.capacity_bytes || lru_.empty()) return;
      const std::uint64_t page = lru_.back();
      b = page * kPage;
      e = b + kPage;
      if (!dirty_.overlaps(b, e)) {
        valid_.subtract(b, e);
        forget_page_if_empty_locked(page);
        update_gauges_locked();
        evictions_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    // Dirty victim: write it back first (never drop unflushed data),
    // then the next round evicts the now-clean page.
    //
    // The analyzer's virtual-dispatch over-approximation resolves
    // write_back's inner_->write_v to every write_v override (including
    // this class's own), closing a cycle back into kStorageCache that
    // cannot occur: inner_ is never a CachedBackend (BackendStack keeps
    // the cache outermost and unique), so the only locks under
    // drain_mutex_ here are the higher-ranked wrapper and staging state.
    std::uint64_t wb = 0;
    {
      std::lock_guard drain_lock(drain_mutex_);
      wb = write_back(b, e);  // apio-lint: allow(lock-rank)
    }
    writeback_bytes_.fetch_add(wb, std::memory_order_relaxed);
  }
}

void CachedBackend::drain() {
  std::lock_guard drain_lock(drain_mutex_);
  // Same dispatch over-approximation as in enforce_capacity: the
  // drain path's inner_ calls never re-enter CachedBackend.
  drain_internal();  // apio-lint: allow(lock-rank)
}

void CachedBackend::drain_internal() {
  if (write_back(0, ~std::uint64_t{0}) > 0) inner_->flush();
}

void CachedBackend::on_epoch_event(const obs::EpochEvent& event) {
  if (event.kind != obs::EpochEvent::Kind::kEnd) return;
  // Epoch markers are emitted from EpochScope destructors; an error
  // must not propagate through them.  The failure is counted (in
  // write_back) and the dirty set is retained for the next boundary
  // or close().
  try {
    drain();
  } catch (const IoError&) {
  }
}

CacheSnapshot CachedBackend::cache_snapshot() const {
  CacheSnapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.hit_bytes = hit_bytes_.load(std::memory_order_relaxed);
  s.miss_bytes = miss_bytes_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.flushed_bytes = flushed_bytes_.load(std::memory_order_relaxed);
  s.flush_failures = flush_failures_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.writeback_bytes = writeback_bytes_.load(std::memory_order_relaxed);
  s.lost_bytes = lost_bytes_.load(std::memory_order_relaxed);
  s.resident_bytes = staging_.resident_bytes();
  std::lock_guard lock(mutex_);
  s.dirty_bytes = dirty_.bytes();
  s.cached_bytes = valid_.bytes();
  return s;
}

}  // namespace apio::storage
