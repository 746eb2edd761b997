#include "workloads/cosmoflow.h"

#include "common/clock.h"
#include "common/error.h"
#include "obs/epoch_analyzer.h"

namespace apio::workloads {
namespace {

constexpr const char* kSamplesDataset = "samples";

}  // namespace

CosmoflowProxy::CosmoflowProxy(CosmoflowParams params) : params_(std::move(params)) {
  APIO_REQUIRE(!params_.sample_shape.empty(), "sample shape must be non-empty");
  APIO_REQUIRE(params_.batch_size >= 1, "batch size must be >= 1");
  APIO_REQUIRE(params_.samples_per_rank >= params_.batch_size,
               "need at least one full batch per rank");
  APIO_REQUIRE(params_.epochs >= 1, "need at least one training epoch");
}

std::uint64_t CosmoflowProxy::sample_bytes() const {
  return h5::num_elements(params_.sample_shape) * sizeof(float);
}

void CosmoflowProxy::prepare(vol::Connector& connector,
                             pmpi::Communicator& comm) const {
  const int rank = comm.rank();
  const std::uint64_t per_rank = static_cast<std::uint64_t>(params_.samples_per_rank);
  const std::uint64_t total = per_rank * static_cast<std::uint64_t>(comm.size());

  h5::Dims shape;
  shape.push_back(total);
  shape.insert(shape.end(), params_.sample_shape.begin(), params_.sample_shape.end());

  if (rank == 0) {
    connector.file()->root().create_dataset(kSamplesDataset, h5::Datatype::kFloat32,
                                            shape);
  }
  comm.barrier();

  // Every rank fills its own contiguous slice of samples.
  auto ds = connector.file()->root().open_dataset(kSamplesDataset);
  const std::uint64_t voxels = h5::num_elements(params_.sample_shape);
  std::vector<float> sample(voxels);
  std::vector<vol::RequestPtr> writes;
  for (std::uint64_t s = 0; s < per_rank; ++s) {
    const std::uint64_t global_sample = static_cast<std::uint64_t>(rank) * per_rank + s;
    for (std::uint64_t v = 0; v < voxels; ++v) {
      sample[v] = particle_value(global_sample * 131 + v, 0);
    }
    h5::Dims start(shape.size(), 0);
    start[0] = global_sample;
    h5::Dims count(shape.size(), 1);
    for (std::size_t d = 0; d < params_.sample_shape.size(); ++d) {
      count[d + 1] = params_.sample_shape[d];
    }
    writes.push_back(connector.dataset_write(
        ds, h5::Selection::offsets(start, count),
        std::as_bytes(std::span<const float>(sample))));
  }
  drain_or_throw(comm, writes);
}

CosmoflowRunResult CosmoflowProxy::train(vol::Connector& connector,
                                         pmpi::Communicator& comm) const {
  const int rank = comm.rank();
  const std::uint64_t per_rank = static_cast<std::uint64_t>(params_.samples_per_rank);
  const int batches_per_epoch = params_.samples_per_rank / params_.batch_size;
  const std::uint64_t voxels = h5::num_elements(params_.sample_shape);
  const std::uint64_t batch_elems =
      voxels * static_cast<std::uint64_t>(params_.batch_size);
  WallClock clock;
  const double t_start = clock.now();

  CosmoflowRunResult result;
  result.bytes_per_phase = batch_elems * sizeof(float) *
                           static_cast<std::uint64_t>(comm.size());

  auto ds = connector.file()->root().open_dataset(kSamplesDataset);
  const h5::Dims& shape = ds.dims();

  auto batch_selection = [&](int batch) {
    const std::uint64_t first = static_cast<std::uint64_t>(rank) * per_rank +
                                static_cast<std::uint64_t>(batch) *
                                    static_cast<std::uint64_t>(params_.batch_size);
    h5::Dims start(shape.size(), 0);
    start[0] = first;
    h5::Dims count(shape.size(), 1);
    count[0] = static_cast<std::uint64_t>(params_.batch_size);
    for (std::size_t d = 0; d < params_.sample_shape.size(); ++d) {
      count[d + 1] = params_.sample_shape[d];
    }
    return h5::Selection::offsets(start, count);
  };

  std::vector<float> batch(batch_elems);
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    for (int b = 0; b < batches_per_epoch; ++b) {
      // One model epoch per training batch (running counter across
      // training epochs): read-then-train, so the compute phase is
      // bracketed explicitly for the epoch analyzer.
      obs::EpochScope marker(
          static_cast<std::int64_t>(epoch) * batches_per_epoch + b);
      const double t0 = clock.now();
      auto req = connector.dataset_read(
          ds, batch_selection(b), std::as_writable_bytes(std::span<float>(batch)));
      req->wait();  // the training step needs the data
      const double blocking = clock.now() - t0;

      // DataLoader-style lookahead: prefetch the next batch (wrapping
      // into the next epoch) while this training step runs.
      if (params_.prefetch) {
        const int next = (b + 1) % batches_per_epoch;
        const bool more = (b + 1 < batches_per_epoch) || (epoch + 1 < params_.epochs);
        if (more) connector.prefetch(ds, batch_selection(next));
      }
      marker.compute_start();
      simulated_compute(params_.seconds_per_batch);
      marker.compute_done();

      result.add_phase(comm, blocking);
    }
  }
  comm.barrier();
  result.total_seconds = clock.now() - t_start;
  return result;
}

sim::RunConfig CosmoflowProxy::sim_config(const sim::SystemSpec& spec, int nodes,
                                          model::IoMode mode,
                                          const CosmoflowParams& params,
                                          double seconds_per_batch) {
  const std::uint64_t ranks =
      static_cast<std::uint64_t>(nodes) * spec.ranks_per_node;
  const std::uint64_t batch_bytes = h5::num_elements(params.sample_shape) *
                                    sizeof(float) *
                                    static_cast<std::uint64_t>(params.batch_size);
  sim::RunConfig config;
  config.nodes = nodes;
  config.mode = mode;
  config.iterations = params.epochs * (params.samples_per_rank / params.batch_size);
  config.compute_seconds = seconds_per_batch;
  config.bytes_per_epoch = batch_bytes * ranks;
  config.io_kind = storage::IoKind::kRead;
  config.prefetch_reads = params.prefetch;
  config.gpu_resident = spec.has_gpus;  // training data lands on the GPU
  return config;
}

}  // namespace apio::workloads
