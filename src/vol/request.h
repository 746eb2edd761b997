// Asynchronous request tokens returned by VOL operations, analogous to
// HDF5 event-set entries / the async VOL's internal task objects.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/error.h"
#include "obs/record.h"
#include "tasking/eventual.h"

namespace apio::vol {

/// Identity of one VOL operation, captured at issue time so failures
/// can be reported with full context long after the issuing call
/// returned (the request may fail on the background stream).
struct RequestInfo {
  obs::IoOp op = obs::IoOp::kWrite;
  /// Full in-file path of the dataset ("" when unknown).
  std::string dataset_path;
  /// Human-readable selection description ("all", "[start..start+count)").
  std::string selection;
  /// Linearized byte offset of the selection start within the dataset.
  std::uint64_t offset = 0;
  /// Payload size in bytes.
  std::uint64_t bytes = 0;

  /// "write tiles/temperature [8..24) @+64 (16 B)" style summary.
  std::string to_string() const;
};

/// Completion token for one VOL operation.  It completes once, with
/// the op's one outcome; retries, when configured, run below the
/// connector in storage::ResilientBackend.
class Request {
 public:
  explicit Request(tasking::EventualPtr done, RequestInfo info = {})
      : done_(std::move(done)), info_(std::move(info)) {}

  /// Blocks until the operation completed; rethrows its error.
  void wait() { done_->wait(); }

  /// Non-blocking completion probe.
  bool test() const { return done_->test(); }

  bool failed() const { return done_->has_error(); }

  /// The captured failure message; "" while pending or on success.
  std::string error_message() const {
    return apio::error_message(done_->error());
  }

  /// Error taxonomy name ("transient-io", "io", "state", ...); "" while
  /// pending or on success.
  std::string error_category() const {
    return apio::error_category(done_->error());
  }

  const RequestInfo& info() const { return info_; }

  const tasking::EventualPtr& eventual() const { return done_; }

 private:
  tasking::EventualPtr done_;
  RequestInfo info_;
};

using RequestPtr = std::shared_ptr<Request>;

}  // namespace apio::vol
