// Two-phase collective write aggregation over extent lists (MPI-IO
// "collective buffering", Thakur/Gropp/Lusk): the one two-phase
// implementation.  One slab per rank is the one-extent case, with
// `stripe_bytes` set to the slab so regions split on slab boundaries
// (bench/ablation_two_phase sweeps the aggregator count that way).
//
// Every rank contributes a list of (element offset, payload) extents of
// one shared 1-D dataset.  Ranks exchange extent headers with one
// allgather, partition the selected file span into stripe-aligned
// regions owned by aggregator ranks, ship payload pieces point-to-point
// to the owning aggregators, and the aggregators merge adjacent pieces
// into large contiguous writes issued through the VOL connector (whose
// dataset path lands them as vectored backend transfers).  Because the
// headers are allgathered, every rank derives the full communication
// pattern deterministically — no probing, no handshake round.
//
// Opt-in: workloads call this instead of per-rank dataset_write when
// their access pattern is many small interleaved extents, the pattern
// the paper's VPIC-IO workload shows collapsing PFS throughput.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "h5/file.h"
#include "pmpi/world.h"
#include "vol/connector.h"

namespace apio::vol {

struct CollectiveWriteOptions {
  /// Aggregator file-region granularity in bytes; regions are rounded
  /// up to whole stripes so one stripe never splits across aggregators
  /// (the Lustre-alignment rule collective buffering exists for).
  std::uint64_t stripe_bytes = 4 << 20;
  /// Number of aggregator ranks; 0 picks one aggregator per stripe-ful
  /// of selected span, capped at the communicator size.
  int num_aggregators = 0;
};

/// One rank-local contribution: `data` covers whole elements and lands
/// at element `elem_offset` of the shared dataset.
struct CollectiveExtent {
  std::uint64_t elem_offset = 0;
  std::span<const std::byte> data;
};

struct CollectiveWriteResult {
  /// Write requests the aggregators issued (after merging), summed.
  std::uint64_t requests_issued = 0;
  /// Payload pieces received by aggregators before merging, summed.
  std::uint64_t extents_received = 0;
  /// Bytes moved through aggregators (also added to the
  /// io.aggregated_bytes counter).
  std::uint64_t total_bytes = 0;
  /// Caller-visible blocking time, max over ranks.
  double blocking_seconds = 0.0;
};

/// Collective: every rank of `comm` must call with its own extent list
/// (possibly empty).  Extents must be pairwise disjoint across all
/// ranks, sorted by elem_offset within each rank's list and inside the
/// dataset; every rank checks every rank's extents after the header
/// exchange, so a violation anywhere throws InvalidArgumentError on all
/// ranks before any payload moves.  When
/// `outstanding` is non-null the aggregators' write requests are
/// appended there instead of waited on, so an async connector can
/// overlap the drain with the next epoch; the caller must wait on them
/// before reading the data back.  Returns identical results on every
/// rank (requests_issued counts only waited requests when `outstanding`
/// is null — in-flight requests are counted either way).
CollectiveWriteResult collective_write(
    Connector& connector, pmpi::Communicator& comm, h5::Dataset ds,
    std::span<const CollectiveExtent> extents,
    const CollectiveWriteOptions& options = {},
    std::vector<RequestPtr>* outstanding = nullptr);

}  // namespace apio::vol
