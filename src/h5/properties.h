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
  /// Route dataset transfers through the IoVector coalescing path (one
  /// vectored backend call per transfer) instead of one backend call
  /// per contiguous run.  Runtime-only — not serialised into the
  /// container — and on by default; tests flip it off to A/B the
  /// scalar path against the aggregated one.
  bool vectored_io = true;
};

}  // namespace apio::h5
