// NativeConnector: the pass-through VOL connector — every operation is
// a blocking call into the apio-h5 data path (synchronous I/O mode).
#pragma once

#include "obs/trace_context.h"
#include "vol/connector.h"

namespace apio::vol {

class NativeConnector final : public Connector {
 public:
  explicit NativeConnector(h5::FilePtr file) : Connector(std::move(file)) {}

  RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                           std::span<const std::byte> data) override;
  RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                          std::span<std::byte> out) override;
  void prefetch(h5::Dataset ds, const h5::Selection& selection) override;
  RequestPtr flush() override;
  void wait_all() override {}
  void close() override;

 private:
  /// Reports a completed blocking call issued at `t0` under `trace`:
  /// the caller was blocked for the whole transfer.
  void report(IoOp op, std::uint64_t bytes, double t0,
              const obs::trace::TraceContext& trace = {},
              const h5::Dataset* ds = nullptr,
              const h5::Selection& selection = h5::Selection::all());
};

}  // namespace apio::vol
