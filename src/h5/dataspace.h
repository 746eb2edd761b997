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
// and the chunked dataset layouts build on.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
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

/// Invokes `fn(file_elem_offset, elem_count)` for every maximal
/// contiguous run of the selection, in increasing file order (which is
/// also the packed order of the user's memory buffer).
void for_each_run(const Dims& extent, const Selection& selection,
                  const std::function<void(std::uint64_t, std::uint64_t)>& fn);

/// Like for_each_run but never coalesces across rows: each emitted run
/// lies within one row of the extent and is reported by the coordinate
/// of its first element.  The chunked layout builds on this form.
void for_each_row_run(const Dims& extent, const Selection& selection,
                      const std::function<void(const Dims&, std::uint64_t)>& fn);

}  // namespace apio::h5
