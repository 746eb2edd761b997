// IoVector: write-coalescing builder for dataset I/O.
//
// Dataset::plan walks a selection once and reports one segment per
// contiguous run — for a strided hyperslab over a chunked dataset that
// is one segment per row-fragment per chunk.  Issued one backend call
// each (the scalar A/B mode, FileProps::vectored_io = false), that is
// exactly the request-per-block pattern the paper's VPIC-IO workload
// shows collapsing PFS throughput.  IoVector instead accumulates every
// (file offset, memory span) segment of one transfer, sorts them by
// file offset, merges segments that are adjacent in BOTH the file and
// memory, and hands the whole list to Backend::write_v/read_v in a
// single call.  Segments that arrive in file order, as a contiguous
// layout's walk emits them, merge as they are added and skip the sort.
// Leaf backends then batch remaining file-adjacent extents into one
// pwritev/preadv each.
//
// A builder is single-transfer, single-thread state: fill it, issue it
// once, drop it (or clear() for reuse).  Write and read segments must
// not be mixed in one builder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/backend.h"

namespace apio::h5 {

class IoVector {
 public:
  /// Appends one gather-write segment.  Empty segments are ignored.
  void add_write(std::uint64_t offset, std::span<const std::byte> data);

  /// Appends one scatter-read segment.  Empty segments are ignored.
  void add_read(std::uint64_t offset, std::span<std::byte> out);

  /// Room for `segments` segments, so a planned walk appends without
  /// regrowing.
  void reserve_writes(std::size_t segments) { writes_.reserve(segments); }
  void reserve_reads(std::size_t segments) { reads_.reserve(segments); }

  /// Sorts and merges the write segments, unless they arrived in file
  /// order (already merged as they came), and issues them as one
  /// vectored call.
  /// Increments io.vectored_ops (one per issued call) and
  /// io.extents_merged (segments eliminated by coalescing).
  void write_to(storage::Backend& backend);

  /// Read-side counterpart of write_to.
  void read_from(storage::Backend& backend);

  /// Segments currently held (post-merge after an issue call).
  std::size_t extent_count() const {
    return writes_.empty() ? reads_.size() : writes_.size();
  }

  /// Total payload bytes added so far.
  std::uint64_t bytes() const { return bytes_; }

  /// Segments eliminated by merging so far.
  std::uint64_t extents_merged() const { return merged_; }

  void clear();

 private:
  std::vector<storage::WriteExtent> writes_;
  std::vector<storage::ReadExtent> reads_;
  std::uint64_t bytes_ = 0;
  std::uint64_t merged_ = 0;
  /// Every segment started at or after the end of the one before it.
  bool in_order_ = true;
};

}  // namespace apio::h5
