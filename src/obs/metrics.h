// Process-wide metrics registry: lock-cheap counters, gauges and
// latency histograms with fixed log2 buckets, per-rank sharded and
// snapshot-merged.
//
// Design constraints (same spirit as APIO_INVARIANT): instrumentation
// sites are always compiled in but gated on a single relaxed atomic
// load — with observability disabled (the default) the hot-path cost is
// one predictable branch.  When enabled, counters shard across
// cache-line-padded atomics indexed by a thread-local slot (pmpi rank
// threads use their rank), so 32 writer ranks never bounce one cache
// line; snapshot() merges the shards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace apio::obs {

/// Global metrics switch; relaxed-atomic, default off.
bool enabled();
void set_enabled(bool on);

/// Number of counter shards.  Power of two; threads map onto shards by
/// their slot modulo this.
inline constexpr std::size_t kShards = 16;

/// The calling thread's shard slot, fixed on first use: a pmpi rank
/// thread takes its rank (from debug::thread_tag()), so per-shard
/// counter values read as per-rank values; any other thread is assigned
/// round-robin.  set_thread_shard() overrides it.
int thread_shard();
void set_thread_shard(int shard);

/// Monotonic wall time in seconds: WallClock::now(), the one steady
/// clock records, spans and epoch markers share.
double steady_seconds();

/// `s` escaped for the inside of a JSON string literal: quotes,
/// backslashes and every control character, so a value can never break
/// a document or a JSONL line.
std::string json_escape(const std::string& s);

/// Monotone counter, sharded per thread slot.
class Counter {
 public:
  void add(std::uint64_t v) noexcept {
    shards_[static_cast<std::size_t>(thread_shard()) % kShards].value.fetch_add(
        v, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }

  std::uint64_t total() const noexcept;
  std::array<std::uint64_t, kShards> per_shard() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (e.g. queue depth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t v) noexcept { value_.fetch_add(v, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  /// Tracks the largest value ever set()/add()ed (approximate under
  /// races; used for high-watermark reporting).
  std::int64_t high_watermark() const noexcept {
    return high_.load(std::memory_order_relaxed);
  }
  void note_watermark() noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_{0};
};

/// Latency histogram over fixed log2 buckets.  Bucket i counts values
/// in [2^i, 2^(i+1)) nanoseconds; bucket 0 additionally holds
/// sub-nanosecond values, the last bucket everything larger.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record_seconds(double seconds) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum_seconds() const noexcept;
  std::array<std::uint64_t, kBuckets> buckets() const noexcept;
  void reset() noexcept;

  /// Inclusive lower bound of bucket `i` in seconds.
  static double bucket_lower_seconds(std::size_t i);
  static std::size_t bucket_index(double seconds) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nanos_{0};
};

// ---------------------------------------------------------------------------
// Snapshots

struct CounterSnapshot {
  std::uint64_t total = 0;
  std::array<std::uint64_t, kShards> per_shard{};
};

struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t high_watermark = 0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum_seconds = 0.0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  double mean_seconds() const {
    return count > 0 ? sum_seconds / static_cast<double>(count) : 0.0;
  }

  /// Quantile estimate from the log2 buckets (q in [0, 1]): walks the
  /// cumulative counts to the target bucket and interpolates linearly
  /// inside it.  Resolution is bounded by the bucket width (a factor of
  /// 2), which is plenty for drift thresholds keyed on tail latency.
  double quantile_seconds(double q) const;

  double p50_seconds() const { return quantile_seconds(0.50); }
  double p95_seconds() const { return quantile_seconds(0.95); }
  double p99_seconds() const { return quantile_seconds(0.99); }
};

/// Coherent-enough copy of the whole registry (each metric is read
/// atomically; cross-metric skew is bounded by in-flight operations).
struct RegistrySnapshot {
  std::map<std::string, CounterSnapshot> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Multi-line human-readable summary (the plain-text export).
  std::string summary() const;

  /// Single JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;

  std::uint64_t counter_total(const std::string& name) const;
};

/// Process-wide named-metric registry.  Lookup creates on first use and
/// returns stable references (storage is node-based); cache the
/// reference at the instrumentation site.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  RegistrySnapshot snapshot() const;

  /// Zeroes every metric value; registrations (and handed-out
  /// references) stay valid.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace apio::obs
