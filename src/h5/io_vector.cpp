#include "h5/io_vector.h"

#include <algorithm>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace apio::h5 {
namespace {

obs::Counter& vectored_ops_counter() {
  static auto& c = obs::Registry::instance().counter("io.vectored_ops");
  return c;
}

obs::Counter& extents_merged_counter() {
  static auto& c = obs::Registry::instance().counter("io.extents_merged");
  return c;
}

std::span<const std::byte> span_of(const storage::WriteExtent& e) { return e.data; }
std::span<std::byte> span_of(const storage::ReadExtent& e) { return e.out; }

void extend(storage::WriteExtent& e, std::size_t by) {
  e.data = {e.data.data(), e.data.size() + by};
}
void extend(storage::ReadExtent& e, std::size_t by) {
  e.out = {e.out.data(), e.out.size() + by};
}

/// True when `next` continues `prev` in both the file and memory, i.e.
/// the two segments are one transfer that a selection walk happened to
/// emit in pieces (chunk boundaries, row splits).
template <typename Extent>
bool mergeable(const Extent& prev, const Extent& next) {
  return prev.offset + span_of(prev).size() == next.offset &&
         span_of(prev).data() + span_of(prev).size() == span_of(next).data();
}

/// Sorts by file offset and coalesces in place; returns the number of
/// segments eliminated.  The result is the sorted, pairwise-disjoint
/// extent list Backend::write_v/read_v require.
template <typename Extent>
std::uint64_t sort_and_merge(std::vector<Extent>& extents) {
  std::stable_sort(extents.begin(), extents.end(),
                   [](const Extent& a, const Extent& b) { return a.offset < b.offset; });
  std::uint64_t merged = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    if (out > 0) {
      Extent& prev = extents[out - 1];
      APIO_INVARIANT(extents[i].offset >= prev.offset + span_of(prev).size(),
                     "IoVector segments overlap in the file");
      if (mergeable(prev, extents[i])) {
        extend(prev, span_of(extents[i]).size());
        ++merged;
        continue;
      }
    }
    extents[out++] = extents[i];
  }
  extents.resize(out);
  return merged;
}

}  // namespace

void IoVector::add_write(std::uint64_t offset, std::span<const std::byte> data) {
  if (data.empty()) return;
  APIO_REQUIRE(reads_.empty(), "IoVector already holds read segments");
  bytes_ += data.size();
  // Cheap in-order merge: selection walks emit most segments already in
  // file order, so the common case coalesces here without a sort.
  if (!writes_.empty() && mergeable(writes_.back(), storage::WriteExtent{offset, data})) {
    extend(writes_.back(), data.size());
    ++merged_;
    return;
  }
  in_order_ = in_order_ && (writes_.empty() || offset >= writes_.back().offset +
                                                         writes_.back().data.size());
  writes_.push_back({offset, data});
}

void IoVector::add_read(std::uint64_t offset, std::span<std::byte> out) {
  if (out.empty()) return;
  APIO_REQUIRE(writes_.empty(), "IoVector already holds write segments");
  bytes_ += out.size();
  if (!reads_.empty() && mergeable(reads_.back(), storage::ReadExtent{offset, out})) {
    extend(reads_.back(), out.size());
    ++merged_;
    return;
  }
  in_order_ = in_order_ && (reads_.empty() || offset >= reads_.back().offset +
                                                        reads_.back().out.size());
  reads_.push_back({offset, out});
}

void IoVector::write_to(storage::Backend& backend) {
  APIO_REQUIRE(reads_.empty(), "IoVector holds read segments; use read_from");
  if (writes_.empty()) return;
  if (!in_order_) merged_ += sort_and_merge(writes_);
  if (obs::enabled()) {
    vectored_ops_counter().increment();
    extents_merged_counter().add(merged_);
  }
  const std::uint64_t moved = backend.write_v(writes_);
  APIO_INVARIANT(moved == bytes_,
                 "vectored write transferred fewer bytes than submitted");
}

void IoVector::read_from(storage::Backend& backend) {
  APIO_REQUIRE(writes_.empty(), "IoVector holds write segments; use write_to");
  if (reads_.empty()) return;
  if (!in_order_) merged_ += sort_and_merge(reads_);
  if (obs::enabled()) {
    vectored_ops_counter().increment();
    extents_merged_counter().add(merged_);
  }
  const std::uint64_t moved = backend.read_v(reads_);
  APIO_INVARIANT(moved == bytes_,
                 "vectored read transferred fewer bytes than submitted");
}

void IoVector::clear() {
  writes_.clear();
  reads_.clear();
  bytes_ = 0;
  merged_ = 0;
  in_order_ = true;
}

}  // namespace apio::h5
