// Cosmoflow proxy: the deep-learning workload of Sec. IV-C — a CNN
// reading 3-D matter-distribution volumes batch by batch.  The proxy
// reproduces the I/O structure of the paper's custom PyTorch
// DataLoader: each rank reads its own batches of 128^3-voxel samples
// from a shared container; in async mode the loader prefetches the
// next batch while the (emulated) training step runs.
#pragma once

#include "sim/epoch_sim.h"
#include "workloads/workload_common.h"

namespace apio::workloads {

struct CosmoflowParams {
  /// Samples per rank per training epoch.
  int samples_per_rank = 16;
  /// Voxels per sample axis (the paper's public 128^3 dataset).
  h5::Dims sample_shape{128, 128, 128};
  int batch_size = 8;
  int epochs = 4;
  /// Emulated forward+backward pass duration per batch.
  double seconds_per_batch = 0.0;
  bool prefetch = true;
};

/// One phase per batch, all epochs in order (identical on every rank).
struct CosmoflowRunResult : PhaseTimes {
  double total_seconds = 0.0;
};

class CosmoflowProxy {
 public:
  explicit CosmoflowProxy(CosmoflowParams params);

  /// Creates and fills the dataset ("samples", shape [N, voxels...])
  /// collectively; call once before train().  Throws IoError on every
  /// rank when a write failed.
  void prepare(vol::Connector& connector, pmpi::Communicator& comm) const;

  /// Runs `epochs` training epochs of batch reads + emulated compute.
  CosmoflowRunResult train(vol::Connector& connector, pmpi::Communicator& comm) const;

  const CosmoflowParams& params() const { return params_; }

  std::uint64_t sample_bytes() const;

  /// Simulator configuration reproducing Fig. 5 (Summit only; the
  /// paper ran Cosmoflow where GPUs were available).
  static sim::RunConfig sim_config(const sim::SystemSpec& spec, int nodes,
                                   model::IoMode mode, const CosmoflowParams& params,
                                   double seconds_per_batch = 1.0);

 private:
  CosmoflowParams params_;
};

}  // namespace apio::workloads
