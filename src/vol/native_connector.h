// NativeConnector: the pass-through VOL connector — every operation is
// a blocking call into the apio-h5 data path (synchronous I/O mode).
#pragma once

#include "common/clock.h"
#include "vol/connector.h"

namespace apio::vol {

class NativeConnector final : public Connector {
 public:
  explicit NativeConnector(h5::FilePtr file);

  const h5::FilePtr& file() const override { return file_; }

  RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                           std::span<const std::byte> data) override;
  RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                          std::span<std::byte> out) override;
  void prefetch(h5::Dataset ds, const h5::Selection& selection) override;
  RequestPtr flush() override;
  void wait_all() override {}
  void close() override;

 private:
  /// Reports a completed blocking call issued at `t0`: the caller was
  /// blocked for the whole transfer.
  void report(IoOp op, std::uint64_t bytes, double t0,
              const h5::Dataset* ds = nullptr,
              const h5::Selection& selection = h5::Selection::all());

  h5::FilePtr file_;
  WallClock clock_;
};

}  // namespace apio::vol
