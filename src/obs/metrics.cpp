#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/clock.h"
#include "common/debug/thread_role.h"
#include "common/units.h"

namespace apio::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_next_slot{0};

thread_local int t_shard = -1;

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

int thread_shard() {
  if (t_shard < 0) {
    const int rank = debug::thread_tag().rank();
    t_shard = (rank >= 0 ? rank
                         : g_next_slot.fetch_add(1, std::memory_order_relaxed)) %
              static_cast<int>(kShards);
  }
  return t_shard;
}

void set_thread_shard(int shard) {
  t_shard = shard >= 0 ? shard % static_cast<int>(kShards) : -1;
}

double steady_seconds() { return WallClock().now(); }

// ---------------------------------------------------------------------------
// Counter

std::uint64_t Counter::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

std::array<std::uint64_t, kShards> Counter::per_shard() const noexcept {
  std::array<std::uint64_t, kShards> out{};
  for (std::size_t i = 0; i < kShards; ++i) {
    out[i] = shards_[i].value.load(std::memory_order_relaxed);
  }
  return out;
}

void Counter::reset() noexcept {
  for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Gauge

void Gauge::note_watermark() noexcept {
  const std::int64_t v = value_.load(std::memory_order_relaxed);
  std::int64_t seen = high_.load(std::memory_order_relaxed);
  while (v > seen &&
         !high_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void Gauge::reset() noexcept {
  value_.store(0, std::memory_order_relaxed);
  high_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

std::size_t Histogram::bucket_index(double seconds) noexcept {
  if (!(seconds > 0.0)) return 0;
  const double nanos = seconds * 1e9;
  if (nanos < 1.0) return 0;
  const int b = static_cast<int>(std::floor(std::log2(nanos)));
  if (b < 0) return 0;
  return std::min<std::size_t>(static_cast<std::size_t>(b), kBuckets - 1);
}

double Histogram::bucket_lower_seconds(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i)) * 1e-9;
}

void Histogram::record_seconds(double seconds) noexcept {
  buckets_[bucket_index(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double nanos = seconds > 0.0 ? seconds * 1e9 : 0.0;
  sum_nanos_.fetch_add(static_cast<std::uint64_t>(nanos),
                       std::memory_order_relaxed);
}

double Histogram::sum_seconds() const noexcept {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets() const noexcept {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshot

double HistogramSnapshot::quantile_seconds(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target sample, 1-based ("nearest-rank" definition).
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] < target) {
      cumulative += buckets[i];
      continue;
    }
    // Interpolate inside bucket i.  Bucket 0 additionally holds
    // sub-nanosecond values, so its lower edge is taken as 0.
    const double lower = i == 0 ? 0.0 : Histogram::bucket_lower_seconds(i);
    const double upper = Histogram::bucket_lower_seconds(i + 1);
    const double within = static_cast<double>(target - cumulative) /
                          static_cast<double>(buckets[i]);
    return lower + (upper - lower) * within;
  }
  return Histogram::bucket_lower_seconds(buckets.size());
}

std::uint64_t RegistrySnapshot::counter_total(const std::string& name) const {
  auto it = counters.find(name);
  return it != counters.end() ? it->second.total : 0;
}

std::string RegistrySnapshot::summary() const {
  std::ostringstream os;
  os << "metrics registry snapshot\n";
  if (!counters.empty()) {
    os << "  counters:\n";
    for (const auto& [name, c] : counters) {
      os << "    " << name << " = " << c.total;
      if (name.find("bytes") != std::string::npos) {
        os << " (" << format_bytes(c.total) << ")";
      }
      os << '\n';
    }
  }
  if (!gauges.empty()) {
    os << "  gauges:\n";
    for (const auto& [name, g] : gauges) {
      os << "    " << name << " = " << g.value
         << " (high watermark " << g.high_watermark << ")\n";
    }
  }
  if (!histograms.empty()) {
    os << "  latency histograms (log2 ns buckets):\n";
    for (const auto& [name, h] : histograms) {
      os << "    " << name << ": n=" << h.count << " mean="
         << format_seconds(h.mean_seconds()) << " p50="
         << format_seconds(h.p50_seconds()) << " p95="
         << format_seconds(h.p95_seconds()) << " p99="
         << format_seconds(h.p99_seconds()) << " total="
         << format_seconds(h.sum_seconds) << '\n';
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] == 0) continue;
        os << "      [" << format_seconds(Histogram::bucket_lower_seconds(i))
           << ", " << format_seconds(Histogram::bucket_lower_seconds(i + 1))
           << "): " << h.buckets[i] << '\n';
      }
    }
  }
  return os.str();
}

std::string RegistrySnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"total\":" << c.total
       << ",\"per_shard\":[";
    for (std::size_t i = 0; i < c.per_shard.size(); ++i) {
      if (i > 0) os << ',';
      os << c.per_shard[i];
    }
    os << "]}";
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"value\":" << g.value
       << ",\"high_watermark\":" << g.high_watermark << '}';
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << h.count
       << ",\"sum_seconds\":" << h.sum_seconds
       << ",\"p50_seconds\":" << h.p50_seconds()
       << ",\"p95_seconds\":" << h.p95_seconds()
       << ",\"p99_seconds\":" << h.p99_seconds() << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) os << ',';
      os << h.buckets[i];
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  RegistrySnapshot snap;
  for (const auto& [name, c] : counters_) {
    CounterSnapshot cs;
    cs.total = c->total();
    cs.per_shard = c->per_shard();
    snap.counters.emplace(name, cs);
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, GaugeSnapshot{g->value(), g->high_watermark()});
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum_seconds = h->sum_seconds();
    hs.buckets = h->buckets();
    snap.histograms.emplace(name, hs);
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace apio::obs
