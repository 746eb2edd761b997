// ByteRanges: the one interval set of the storage tiers.  PosixBackend
// records the bytes it has written (a sieve window reads back only
// when it meets one); CachedBackend tracks its staged, dirty and
// rewritten bytes.  Runs are disjoint, coalesced, half-open [begin,
// end) byte ranges, so memory grows with the number of runs, not with
// the bytes they cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace apio::storage {

class ByteRanges {
 public:
  /// Sorted, disjoint half-open ranges.
  using Runs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  /// Adds [begin, end), merging with every run it overlaps or touches.
  /// Returns whether some byte of it was recorded before.
  bool add(std::uint64_t begin, std::uint64_t end);
  /// Drops every recorded byte of [begin, end).
  void subtract(std::uint64_t begin, std::uint64_t end);
  /// Drops every recorded byte at or past `size`.
  void truncate(std::uint64_t size) { subtract(size, ~std::uint64_t{0}); }
  void clear() {
    runs_.clear();
    bytes_ = 0;
  }

  /// Whether some byte of [begin, end) is recorded.  Allocates nothing.
  bool overlaps(std::uint64_t begin, std::uint64_t end) const;
  /// Appends to `out` the sub-ranges of [begin, end) not recorded.
  void gaps(std::uint64_t begin, std::uint64_t end, Runs& out) const;
  /// Appends to `out` the recorded runs clipped to [begin, end).
  void clipped(std::uint64_t begin, std::uint64_t end, Runs& out) const;

  /// Recorded bytes, kept up to date by every edit.
  std::uint64_t bytes() const { return bytes_; }
  /// Disjoint runs held.
  std::size_t runs() const { return runs_.size(); }

 private:
  using Map = std::map<std::uint64_t, std::uint64_t>;  ///< begin -> end

  /// The first run that ends past `at`.
  Map::const_iterator first_ending_after(std::uint64_t at) const;

  Map runs_;
  std::uint64_t bytes_ = 0;
};

}  // namespace apio::storage
