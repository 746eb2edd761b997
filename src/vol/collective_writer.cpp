#include "vol/collective_writer.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sched/io_request.h"

namespace apio::vol {
namespace {

/// Reserved tag for aggregation payloads; distinct from the pmpi
/// internal collectives (-1000xxx) and workloads/two_phase (-2000xxx).
constexpr int kTagPayload = -3000001;

obs::Counter& aggregated_bytes_counter() {
  static auto& c = obs::Registry::instance().counter("io.aggregated_bytes");
  return c;
}

/// One region-clipped piece of some rank's extent, in the deterministic
/// global order every rank derives from the allgathered headers.
struct Piece {
  int source = 0;
  int aggregator_index = 0;
  std::uint64_t elem_offset = 0;
  std::uint64_t bytes = 0;
  /// Byte offset of the piece inside its source extent's payload.
  std::uint64_t payload_offset = 0;
  /// Index of the extent in the source rank's submitted list.
  std::size_t extent_index = 0;
  /// Source rank's collective trace identity, piggybacked on the
  /// allgathered headers (0 when the source is untraced/unsampled).
  std::uint64_t source_trace_id = 0;
  std::uint64_t source_span_id = 0;
};

}  // namespace

CollectiveWriteResult collective_write(Connector& connector, pmpi::Communicator& comm,
                                       h5::Dataset ds,
                                       std::span<const CollectiveExtent> extents,
                                       const CollectiveWriteOptions& options,
                                       std::vector<RequestPtr>* outstanding) {
  const int rank = comm.rank();
  const int size = comm.size();
  APIO_REQUIRE(ds.dims().size() == 1, "collective_write requires a 1-D dataset");
  APIO_REQUIRE(options.stripe_bytes >= 1, "stripe_bytes must be >= 1");
  APIO_REQUIRE(options.num_aggregators >= 0 && options.num_aggregators <= size,
               "aggregator count must be in [0, comm size]");
  const std::size_t elsize = ds.element_size();
  for (std::size_t i = 0; i < extents.size(); ++i) {
    APIO_REQUIRE(extents[i].data.size() % elsize == 0,
                 "collective_write extents must hold whole elements");
    APIO_REQUIRE(i == 0 || extents[i].elem_offset >=
                               extents[i - 1].elem_offset +
                                   extents[i - 1].data.size() / elsize,
                 "collective_write extents must be sorted and disjoint");
  }
  WallClock clock;
  const double t0 = clock.now();

  // This rank's collective trace: the exchange phases record against
  // it, and its identity rides the allgathered headers so aggregators
  // can attribute remote writes back to the contributing rank's trace.
  auto& collector = obs::trace::TraceCollector::instance();
  const obs::trace::TraceContext rank_trace = collector.start_trace();
  obs::trace::ScopedTraceContext trace_bind(rank_trace);
  const double rank_trace_start = obs::steady_seconds();
  std::uint64_t my_bytes = 0;
  for (const auto& e : extents) my_bytes += e.data.size();
  const auto seal_rank_trace = [&] {
    if (!rank_trace.recording()) return;
    collector.complete(rank_trace, obs::IoOp::kWrite, sched::current_tenant(),
                       my_bytes, /*failed=*/false, rank_trace_start,
                       obs::steady_seconds());
  };

  // Phase 0: allgather extent headers so every rank knows the complete
  // access pattern.  Header stream per rank: (elem_offset, bytes,
  // trace_id, root_span_id) quads — the trace fields are the cross-rank
  // context propagation, zero when the source is untraced.
  obs::trace::ScopedPhase exchange_span(obs::trace::Phase::kExchange,
                                        my_bytes);
  std::vector<std::uint64_t> my_headers;
  my_headers.reserve(extents.size() * 4);
  for (const auto& e : extents) {
    my_headers.push_back(e.elem_offset);
    my_headers.push_back(e.data.size());
    my_headers.push_back(rank_trace.recording() ? rank_trace.trace_id : 0);
    my_headers.push_back(rank_trace.recording() ? rank_trace.span_id : 0);
  }
  const auto gathered = comm.allgather_bytes(std::as_bytes(std::span<const std::uint64_t>(my_headers)));

  std::vector<std::vector<std::uint64_t>> all_headers(static_cast<std::size_t>(size));
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (int r = 0; r < size; ++r) {
    const auto& raw = gathered[static_cast<std::size_t>(r)];
    auto& h = all_headers[static_cast<std::size_t>(r)];
    h.resize(raw.size() / sizeof(std::uint64_t));
    if (!raw.empty()) std::memcpy(h.data(), raw.data(), raw.size());
    for (std::size_t i = 0; i + 3 < h.size(); i += 4) {
      lo = std::min(lo, h[i]);
      hi = std::max(hi, h[i] + h[i + 1] / elsize);
    }
  }

  CollectiveWriteResult result;
  if (hi <= lo) {
    // Nothing selected anywhere; the allgather already synchronised.
    exchange_span.finish();
    seal_rank_trace();
    return result;
  }

  // Region map: the selected span [lo, hi) is divided among A
  // aggregators in contiguous stripe-aligned regions.  Boundaries live
  // in element space so no write ever splits mid-element.
  const std::uint64_t span_elems = hi - lo;
  const std::uint64_t stripe_elems =
      std::max<std::uint64_t>(1, options.stripe_bytes / elsize);
  int num_aggregators = options.num_aggregators;
  if (num_aggregators == 0) {
    const std::uint64_t stripes = (span_elems + stripe_elems - 1) / stripe_elems;
    num_aggregators = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(size), stripes));
  }
  std::uint64_t region_elems =
      (span_elems + static_cast<std::uint64_t>(num_aggregators) - 1) /
      static_cast<std::uint64_t>(num_aggregators);
  region_elems = (region_elems + stripe_elems - 1) / stripe_elems * stripe_elems;
  const auto aggregator_rank = [&](int g) {
    // Spread aggregators evenly across the communicator (first rank of
    // each contiguous group), the ROMIO cb_nodes placement.
    return g * size / num_aggregators;
  };
  const auto aggregator_of_elem = [&](std::uint64_t elem) {
    return static_cast<int>(
        std::min<std::uint64_t>((elem - lo) / region_elems,
                                static_cast<std::uint64_t>(num_aggregators - 1)));
  };

  // Derive the deterministic piece list: every rank's extents, clipped
  // at region boundaries, in (source rank, extent, offset) order.  This
  // is both the send schedule (pieces with source == rank) and the
  // receive schedule (pieces whose aggregator is this rank).
  std::vector<Piece> pieces;
  for (int r = 0; r < size; ++r) {
    const auto& h = all_headers[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i + 3 < h.size(); i += 4) {
      std::uint64_t off = h[i];
      std::uint64_t elems_left = h[i + 1] / elsize;
      std::uint64_t payload_off = 0;
      while (elems_left > 0) {
        const int g = aggregator_of_elem(off);
        const std::uint64_t region_end =
            lo + (static_cast<std::uint64_t>(g) + 1) * region_elems;
        const std::uint64_t take = std::min(elems_left, region_end - off);
        Piece p;
        p.source = r;
        p.aggregator_index = g;
        p.elem_offset = off;
        p.bytes = take * elsize;
        p.payload_offset = payload_off;
        p.extent_index = i / 4;
        p.source_trace_id = h[i + 2];
        p.source_span_id = h[i + 3];
        pieces.push_back(p);
        off += take;
        payload_off += take * elsize;
        elems_left -= take;
      }
    }
  }

  // Phase 1: ship payload pieces to their aggregators.  Sends are
  // buffered (Bsend semantics), so aggregators safely self-send.
  for (const auto& p : pieces) {
    if (p.source != rank) continue;
    const auto& payload = extents[p.extent_index].data;
    comm.send_bytes(payload.subspan(p.payload_offset, p.bytes),
                    aggregator_rank(p.aggregator_index), kTagPayload);
  }

  // Phase 2: aggregators receive in the same deterministic order, merge
  // element-adjacent pieces and issue large writes.
  std::uint64_t local_requests = 0;
  std::uint64_t local_received = 0;
  std::uint64_t local_bytes = 0;
  bool i_aggregate = false;
  for (int g = 0; g < num_aggregators; ++g) i_aggregate |= aggregator_rank(g) == rank;
  if (i_aggregate) {
    struct Received {
      std::uint64_t elem_offset;
      std::vector<std::byte> bytes;
      std::uint64_t piece_bytes;  ///< bytes.size() survives the merge move
      std::uint64_t source_trace_id;
      std::uint64_t source_span_id;
    };
    std::vector<Received> mine;
    for (const auto& p : pieces) {
      if (aggregator_rank(p.aggregator_index) != rank) continue;
      Received rec;
      rec.elem_offset = p.elem_offset;
      rec.bytes = comm.recv_bytes(p.source, kTagPayload);
      APIO_ASSERT(rec.bytes.size() == p.bytes, "collective piece size mismatch");
      rec.piece_bytes = p.bytes;
      rec.source_trace_id = p.source_trace_id;
      rec.source_span_id = p.source_span_id;
      mine.push_back(std::move(rec));
      ++local_received;
      local_bytes += p.bytes;
    }
    std::sort(mine.begin(), mine.end(), [](const Received& a, const Received& b) {
      return a.elem_offset < b.elem_offset;
    });
    if (obs::enabled()) aggregated_bytes_counter().add(local_bytes);
    exchange_span.finish();

    std::vector<RequestPtr> waited;
    std::vector<RequestPtr>& requests = outstanding != nullptr ? *outstanding : waited;
    std::size_t i = 0;
    while (i < mine.size()) {
      const std::uint64_t run_start = mine[i].elem_offset;
      const std::size_t run_first = i;
      std::vector<std::byte> merged = std::move(mine[i].bytes);
      std::size_t j = i + 1;
      while (j < mine.size() &&
             mine[j].elem_offset == run_start + merged.size() / elsize) {
        merged.insert(merged.end(), mine[j].bytes.begin(), mine[j].bytes.end());
        ++j;
      }
      {
        // Issue the merged write under the first contributor's context
        // (reconstructed from the wire — the sanctioned cross-rank
        // re-binding) so the minted request trace carries a causal
        // parent link back to the contributing rank's collective trace.
        const obs::trace::TraceContext issuer{  // apio-lint: allow(trace-phase)
            mine[run_first].source_trace_id, mine[run_first].source_span_id,
            mine[run_first].source_trace_id != 0};
        obs::trace::ScopedTraceContext issue_bind(issuer);
        const double w0 = obs::steady_seconds();
        requests.push_back(connector.dataset_write(
            ds, h5::Selection::offsets({run_start}, {merged.size() / elsize}),
            merged));
        const double w1 = obs::steady_seconds();
        // Attribute the issue to every contributor of the merged run.
        for (std::size_t k = run_first; k < j; ++k) {
          if (mine[k].source_trace_id == 0) continue;
          const obs::trace::TraceContext src{  // apio-lint: allow(trace-phase)
              mine[k].source_trace_id, mine[k].source_span_id, true};
          obs::trace::TraceSpan span;
          span.span_id = collector.new_span_id(src);
          span.parent_span_id = mine[k].source_span_id;
          span.phase = obs::trace::Phase::kRemoteWrite;
          span.start_seconds = w0;
          span.duration_seconds = w1 - w0;
          span.bytes = mine[k].piece_bytes;
          span.rank = obs::thread_rank();
          span.detail = "aggregator rank " + std::to_string(rank);
          collector.record(mine[k].source_trace_id, std::move(span));
        }
      }
      ++local_requests;
      i = j;
    }
    for (auto& req : waited) req->wait();
  }

  exchange_span.finish();
  const double blocking = clock.now() - t0;
  comm.barrier();

  result.blocking_seconds = comm.allreduce_max(blocking);
  result.requests_issued = comm.allreduce_sum(local_requests);
  result.extents_received = comm.allreduce_sum(local_received);
  result.total_bytes = comm.allreduce_sum(local_bytes);
  seal_rank_trace();
  return result;
}

}  // namespace apio::vol
