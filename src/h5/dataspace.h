// Dataspaces and hyperslab selections.
//
// A Dataspace is an N-dimensional row-major extent.  A Selection picks
// elements out of it: everything, or a regular hyperslab described by
// (start, stride, count, block) per dimension with HDF5 semantics —
// `count` blocks of `block` consecutive elements, consecutive blocks
// `stride` apart, beginning at `start`.
//
// The data path consumes selections as a sequence of contiguous
// element runs in file order (for_each_run), which both the contiguous
// and the chunked dataset layouts build on.  One iterative odometer,
// RunWalker, produces the runs of both forms.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace apio::h5 {

using Dims = std::vector<std::uint64_t>;

/// Regular hyperslab, one entry per dimension.
struct Hyperslab {
  Dims start;
  Dims stride;  ///< empty means all-ones
  Dims count;
  Dims block;   ///< empty means all-ones

  /// Total number of selected elements.  Throws InvalidArgumentError
  /// when the product overflows uint64 or `block` has a different rank
  /// than `count` — callers may invoke this before validate(), so it
  /// must be safe on malformed slabs.
  std::uint64_t npoints() const;

  /// Member-wise; lets a selection key an ordered map.
  auto operator<=>(const Hyperslab&) const = default;
};

/// A selection over a dataspace: everything or a hyperslab.
class Selection {
 public:
  /// Selects the entire extent.
  static Selection all();

  /// Selects a hyperslab; validated against an extent at use time.
  static Selection hyperslab(Hyperslab slab);

  /// Convenience: contiguous block selection (stride = block = 1).
  static Selection offsets(Dims start, Dims count);

  bool is_all() const { return is_all_; }
  const Hyperslab& slab() const { return slab_; }

  /// Number of selected elements within `extent`.
  std::uint64_t npoints(const Dims& extent) const;

  /// Throws InvalidArgumentError when the selection does not fit in
  /// `extent` (rank mismatch, out-of-bounds, block > stride).
  void validate(const Dims& extent) const;

  /// Member-wise: equal selections were built from equal slabs.
  auto operator<=>(const Selection&) const = default;

 private:
  bool is_all_ = true;
  Hyperslab slab_;
};

/// Number of elements in an extent (1 for a scalar/rank-0 space).
std::uint64_t num_elements(const Dims& extent);

/// Row-major pitches: pitch[i] = product of extent[i+1..].
std::vector<std::uint64_t> row_pitches(const Dims& extent);

/// The odometer under for_each_run and for_each_row_run.  It steps
/// through a selection's runs in file order, one coordinate tuple of
/// the outer dimensions at a time; a packed last dimension (block ==
/// stride) is one run per row.  With `fold_rows`, rows a run covers
/// whole are folded into it, so a selection of full trailing dimensions
/// walks one run per outer step, not one per row.
///
/// `selection` must already have passed validate(extent).  The walk
/// neither recurses nor allocates up to rank kInlineRank.
class RunWalker {
 public:
  static constexpr std::size_t kInlineRank = 8;

  RunWalker(const Dims& extent, const Selection& selection, bool fold_rows);
  // dims_ may point into inline_.
  RunWalker(const RunWalker&) = delete;
  RunWalker& operator=(const RunWalker&) = delete;

  bool done() const { return done_; }
  /// Moves to the next run; done() after the last one.
  void advance();

  /// File element offset and length of the current run.
  std::uint64_t offset() const { return offset_; }
  std::uint64_t count() const { return count_; }
  /// Coordinate of the current run's first element in dimension `d`;
  /// meaningful for every dimension only without `fold_rows`.
  std::uint64_t coord(std::size_t d) const { return dims_[d].coord; }
  /// Runs the walk yields in all.
  std::uint64_t runs() const { return runs_; }

 private:
  /// One dimension's slab and its odometer digit: block `b`, element
  /// `k` within the block.
  struct Dim {
    std::uint64_t start = 0, stride = 1, block = 1, count = 1, pitch = 1;
    std::uint64_t b = 0, k = 0, coord = 0;
  };

  std::array<Dim, kInlineRank> inline_{};
  std::vector<Dim> spill_;
  Dim* dims_;
  std::size_t rank_;
  std::uint64_t offset_ = 0;
  std::uint64_t count_ = 1;
  std::uint64_t runs_ = 1;
  bool done_ = false;
};

/// Reports every maximal contiguous run left in `walker` (which must
/// fold rows) as `fn(file_elem_offset, elem_count)`.  Runs that touch
/// in the file merge: a strided last dimension that ends at the row's
/// end and restarts at its beginning joins rows the fold cannot.
template <typename Fn>
void for_each_run(RunWalker& walker, Fn&& fn) {
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
  for (; !walker.done(); walker.advance()) {
    if (count > 0 && walker.offset() == offset + count) {
      count += walker.count();
      continue;
    }
    if (count > 0) fn(offset, count);
    offset = walker.offset();
    count = walker.count();
  }
  if (count > 0) fn(offset, count);
}

/// Invokes `fn(file_elem_offset, elem_count)` for every maximal
/// contiguous run of the selection, in increasing file order (which is
/// also the packed order of the user's memory buffer).
template <typename Fn>
void for_each_run(const Dims& extent, const Selection& selection, Fn&& fn) {
  selection.validate(extent);
  RunWalker walker(extent, selection, /*fold_rows=*/true);
  for_each_run(walker, fn);
}

/// Like for_each_run but never coalesces across rows: each emitted run
/// lies within one row of the extent and is reported by the coordinate
/// of its first element.  The chunked layout builds on this form.
template <typename Fn>
void for_each_row_run(const Dims& extent, const Selection& selection, Fn&& fn) {
  selection.validate(extent);
  Dims coord(extent.size());
  for (RunWalker walker(extent, selection, /*fold_rows=*/false); !walker.done();
       walker.advance()) {
    for (std::size_t d = 0; d < coord.size(); ++d) coord[d] = walker.coord(d);
    fn(static_cast<const Dims&>(coord), walker.count());
  }
}

}  // namespace apio::h5
