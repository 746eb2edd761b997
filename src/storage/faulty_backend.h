// FaultyBackend: deterministic fault injection for testing error and
// recovery paths.
//
// Wraps another backend and fails selected operations — after a
// countdown, on a recurring every-N schedule, when the operation
// touches a configured offset range, or always — so tests can drive the
// library's failure handling (async error propagation, event-set error
// collection, ResilientBackend's retry/backoff and breaker) without real
// hardware faults.  Injected errors are classified: plans marked
// `transient` throw TransientIoError (the resilience layer retries
// these under policy), others throw plain IoError (classified
// permanent).
//
// Heal/arm contract: heal() first resets every countdown and per-op
// counter to the plan's initial state and then publishes the healed
// flag with release ordering; the fault checks load the flag with
// acquire before touching any counter.  A thread that observes the heal
// therefore also observes the reset counters, so arm() after heal()
// starts a fresh countdown instead of replaying a stale, already
// exhausted one.  (Operations concurrent with heal()/arm() may land on
// either side of the transition; each individual operation is
// internally consistent.)
#pragma once

#include <atomic>

#include "storage/decorator.h"

namespace apio::storage {

struct FaultPlan {
  /// Countdown patterns: fail every operation of the kind once this
  /// many calls have succeeded (negative = pattern off; 0 = fail from
  /// the first call).
  std::int64_t fail_writes_after = -1;
  std::int64_t fail_reads_after = -1;
  std::int64_t fail_flushes_after = -1;
  /// Recurring patterns: every n-th call of the kind fails (1-indexed
  /// call counter; 0 = pattern off).  n = 1 fails every call.
  std::uint64_t fail_every_n_writes = 0;
  std::uint64_t fail_every_n_reads = 0;
  std::uint64_t fail_every_n_flushes = 0;
  /// Offset-range pattern: reads/writes whose byte range intersects
  /// [fault_offset_begin, fault_offset_end) fail.  begin >= end
  /// disables.  Flushes carry no offset and never match.
  std::uint64_t fault_offset_begin = 0;
  std::uint64_t fault_offset_end = 0;
  /// Classification: injected errors throw TransientIoError when true
  /// (retried by resilience policies), plain IoError otherwise.
  bool transient = false;
  /// Transient-outage window: once this many faults have been injected
  /// the backend heals itself (negative = never).  Models an outage
  /// that clears while a request is being retried.
  std::int64_t heal_after_faults = -1;
};

class FaultyBackend final : public Decorator {
 public:
  FaultyBackend(BackendPtr inner, FaultPlan plan);

  /// The one decorator that splits a batch: each extent is its own
  /// one-extent Decorator::write_v/read_v through the fault check, so
  /// countdown and every-N plans can fail an aggregated transfer partway
  /// through (prefix written, suffix rejected) just like a real
  /// mid-batch fault.  A scalar write()/read() is one such extent.
  [[nodiscard]] std::uint64_t write_v(
      std::span<const WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const ReadExtent> extents) override;

  /// Operations rejected so far (monotone across heal/arm cycles).
  std::uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }

  /// Heals the backend: subsequent operations succeed.  Resets the
  /// plan's countdowns and call counters before publishing (see the
  /// header comment for the memory-order contract), so a later arm()
  /// starts from a fresh plan.
  void heal();

  /// Re-arms the plan after heal(): faults inject again with the
  /// counters freshly reset by the preceding heal().
  void arm();

  /// Replaces the plan and resets counters to the new plan's initial
  /// state.  Call only while healed or before the backend is shared
  /// across threads; the next arm() publishes the new plan under the
  /// same release/acquire contract as heal().
  void set_plan(FaultPlan plan);

  /// True while heal() is in effect.
  bool healed() const { return healed_.load(std::memory_order_acquire); }

 private:
  /// Throws the planned error when the operation should fail, else runs
  /// the transfer.  `offset`/`bytes` describe the touched range (0/0
  /// for flush).
  void around(obs::IoOp op, std::uint64_t offset, std::uint64_t bytes,
              Transfer transfer) override;

  FaultPlan plan_;
  std::atomic<std::int64_t> writes_left_;
  std::atomic<std::int64_t> reads_left_;
  std::atomic<std::int64_t> flushes_left_;
  std::atomic<std::uint64_t> write_calls_{0};
  std::atomic<std::uint64_t> read_calls_{0};
  std::atomic<std::uint64_t> flush_calls_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<bool> healed_{false};

  void maybe_fault(obs::IoOp op, std::uint64_t offset, std::uint64_t bytes);
  void reset_counters();
};

}  // namespace apio::storage
