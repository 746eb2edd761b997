// Asynchronous request tokens returned by VOL operations, analogous to
// HDF5 event-set entries / the async VOL's internal task objects.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>

#include "common/error.h"
#include "obs/record.h"

namespace apio::vol {

class Request;
using RequestPtr = std::shared_ptr<Request>;

/// Completion token for one VOL operation.  It completes once, with
/// the op's one outcome; retries, when configured, run below the
/// connector in storage::ResilientBackend.  Thread-safe: the issuing
/// connector completes it (often on its background stream) while any
/// thread waits or polls.
///
/// Completion is one atomic word: complete() stores the error, then
/// publishes it with a release store and wakes the waiters; wait(),
/// test() and error() read the word with acquire.  A completer must
/// hold a reference to the request across complete(): a waiter may
/// return, and drop the last reference, as soon as the store lands.
/// AsyncConnector's ops derive from Request, so the op a connector runs
/// is the request its caller waits on.
///
/// A request's identity is its op's one obs::IoRecord, captured at issue
/// so a failure is reported with full context long after the issuing
/// call returned (the request may fail on the background stream).
class Request {
 public:
  explicit Request(obs::IoRecord info = {}) : info_(std::move(info)) {}

  /// A request that is already complete, for an op that finished inline.
  static RequestPtr make_ready(obs::IoRecord info = {});

  /// Completes the request (`error` null on success) and releases its
  /// waiters.  Called exactly once, by the connector that issued it.
  void complete(std::exception_ptr error = nullptr);

  /// Blocks until the operation completed; rethrows its error.
  void wait();

  /// Blocks until the operation completed without rethrowing; for
  /// draining a queue whose per-operation errors are reported elsewhere.
  void wait_ignore_error() const;

  /// Non-blocking completion probe.
  [[nodiscard]] bool test() const { return state_.load(std::memory_order_acquire) != kPending; }

  bool failed() const { return error() != nullptr; }

  /// The stored failure; null while pending or on success.
  std::exception_ptr error() const { return test() ? error_ : nullptr; }

  /// The captured failure message; "" while pending or on success.
  std::string error_message() const { return apio::error_message(error()); }

  /// Error taxonomy name ("transient-io", "io", "state", ...); "" while
  /// pending or on success.
  std::string error_category() const { return apio::error_category(error()); }

  /// The op's record.  Its identity fields never change once the op is
  /// queued; completion_seconds is valid only after completion.
  const obs::IoRecord& info() const { return info_; }

  /// The request's own completion: the frozen bench/e2e benchmark waits
  /// through `eventual()->wait_ignore_error()`.
  Request* eventual() { return this; }

 protected:
  /// For the connector that issued the op: it sets the identity before
  /// the op is queued, and completion_seconds before complete().
  obs::IoRecord& record() { return info_; }

 private:
  static constexpr int kPending = 0;
  static constexpr int kDone = 1;

  std::atomic<int> state_{kPending};
  /// Written once, before the release store of state_.
  std::exception_ptr error_;
  obs::IoRecord info_;
};

}  // namespace apio::vol
