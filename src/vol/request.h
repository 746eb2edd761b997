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

/// Resolution detail of one operation.  The async connector writes it
/// on the background stream strictly before completing the eventual;
/// the eventual's completion ordering makes it visible to waiters.
struct RequestOutcome {
  /// Executions the operation took (1 = no retries).
  int attempts = 1;
  /// True when the async path failed and the staged data was replayed
  /// through the synchronous native path (degraded mode).
  bool degraded = false;
  /// True when retrying stopped because the per-request deadline would
  /// have been overrun.
  bool deadline_exhausted = false;
};

class AsyncConnector;

/// Completion token for one VOL operation.
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

  /// Executions the operation took, as recorded at completion (1 when
  /// the connector ran without resilience).
  int attempts() const { return outcome_.attempts; }

  /// True when the operation only completed via sync-fallback replay.
  bool degraded() const { return outcome_.degraded; }

  bool deadline_exhausted() const { return outcome_.deadline_exhausted; }

  const tasking::EventualPtr& eventual() const { return done_; }

 private:
  /// The only writer of outcome_, before it completes done_.
  friend class AsyncConnector;

  tasking::EventualPtr done_;
  RequestInfo info_;
  RequestOutcome outcome_;
};

using RequestPtr = std::shared_ptr<Request>;

}  // namespace apio::vol
