// Property lists, mirroring HDF5's DCPL (dataset creation) and FAPL
// (file access) in reduced form.
#pragma once

#include <cstdint>

#include "h5/dataspace.h"

namespace apio::h5 {

enum class Layout : std::uint8_t {
  kContiguous = 0,  ///< one extent, allocated at creation
  kChunked = 1,     ///< fixed-size chunks allocated on first write
};

/// Dataset creation properties.
struct DatasetCreateProps {
  Layout layout = Layout::kContiguous;
  /// Required (non-empty, same rank as the dataspace) when chunked.
  Dims chunk_dims;

  static DatasetCreateProps contiguous() { return {}; }
  static DatasetCreateProps chunked(Dims chunk) {
    DatasetCreateProps p;
    p.layout = Layout::kChunked;
    p.chunk_dims = std::move(chunk);
    return p;
  }
};

/// File creation/access properties.
struct FileProps {
  /// Alignment for raw-data allocations, bytes (power of two).  Large
  /// alignments mimic PFS stripe-friendly allocation.
  std::uint64_t allocation_alignment = 8;
  /// Add each segment of a dataset transfer's one selection walk to an
  /// IoVector (one vectored backend call per transfer); when false,
  /// issue each segment as its own backend call, in walk order.
  /// Runtime-only — not serialised into the container — and on by
  /// default; tests and bench/ablation_vectored_io flip it off to A/B
  /// the scalar mode against the aggregated one.
  bool vectored_io = true;
};

}  // namespace apio::h5
