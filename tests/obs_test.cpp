// Tests for the observability layer: metrics registry sharding and
// snapshots, the one span stream (ScopedPhase spans in the trace ring,
// its metric sink and the Chrome trace_event export), JSON escaping of
// every exported string, the composable observer chain, and end-to-end
// coherence of counters against connector statistics under
// multi-threaded load.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "model/advisor.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/metrics_observer.h"
#include "obs/record.h"
#include "obs/telemetry.h"
#include "obs/trace_context.h"
#include "pmpi/world.h"
#include "resilience/circuit_breaker.h"
#include "resilience/retry.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "vol/trace.h"

namespace apio::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader: validates syntax and exposes
// just enough structure for the Chrome-trace assertions.  Throws
// std::runtime_error on malformed input.

struct JsonValue {
  enum class Type { kObject, kArray, kString, kNumber, kBool, kNull };
  Type type = Type::kNull;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;
  bool boolean = false;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'b': v.string += '\b'; break;
          case 'f': v.string += '\f'; break;
          case 'n': v.string += '\n'; break;
          case 'r': v.string += '\r'; break;
          case 't': v.string += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            pos_ += 4;  // validated for length only
            v.string += '?';
            break;
          }
          default: fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        v.string += c;
      }
    }
    ++pos_;
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null() {
    JsonValue v;
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("bad number");
    v.number = std::atof(text_.substr(start, pos_ - start).c_str());
    return v;
  }
};

/// RAII: metrics on and the trace collector recording every request,
/// both wiped first; everything off and wiped again on scope exit so
/// tests stay independent.
class ScopedObservability {
 public:
  ScopedObservability() {
    Registry::instance().reset();
    auto& collector = trace::TraceCollector::instance();
    collector.clear();
    collector.set_sampling_period(1);
    collector.set_enabled(true);
    set_enabled(true);
  }
  ~ScopedObservability() {
    set_enabled(false);
    auto& collector = trace::TraceCollector::instance();
    collector.set_enabled(false);
    collector.clear();
    Registry::instance().reset();
  }
};

/// The events of a rendered Chrome timeline, parsed.
std::vector<JsonValue> chrome_events(const std::vector<trace::CompletedTrace>& traces) {
  const JsonValue root = JsonParser(trace::to_chrome_json(traces)).parse();
  EXPECT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_TRUE(root.has("traceEvents"));
  return root.at("traceEvents").array;
}

h5::FilePtr mem_file() {
  return h5::File::create(std::make_shared<storage::MemoryBackend>());
}

// ---------------------------------------------------------------------------
// Metrics primitives

TEST(CounterTest, ShardedAddsSumToTotal) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter, i] {
      set_thread_shard(i);
      for (std::uint64_t n = 0; n < kPerThread; ++n) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counter.total(), kThreads * kPerThread);
  const auto shards = counter.per_shard();
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) sum += shards[i];
  EXPECT_EQ(sum, counter.total());
  // Pinned shards read back as per-thread values.
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(shards[static_cast<std::size_t>(i)], kPerThread) << i;
  }
  counter.reset();
  EXPECT_EQ(counter.total(), 0u);
}

TEST(GaugeTest, TracksValueAndWatermark) {
  Gauge gauge;
  gauge.set(7);
  gauge.note_watermark();
  gauge.set(3);
  EXPECT_EQ(gauge.value(), 3);
  EXPECT_EQ(gauge.high_watermark(), 7);
  gauge.add(10);
  gauge.note_watermark();
  EXPECT_EQ(gauge.value(), 13);
  EXPECT_EQ(gauge.high_watermark(), 13);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.high_watermark(), 0);
}

TEST(HistogramTest, Log2BucketsAndMoments) {
  EXPECT_EQ(Histogram::bucket_index(0.5e-9), 0u);   // sub-nanosecond
  EXPECT_EQ(Histogram::bucket_index(1.0e-9), 0u);   // [1ns, 2ns)
  EXPECT_EQ(Histogram::bucket_index(2.0e-9), 1u);   // [2ns, 4ns)
  EXPECT_EQ(Histogram::bucket_index(1.1e-6), 10u);  // [1024ns, 2048ns)
  EXPECT_EQ(Histogram::bucket_index(1e12), Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_seconds(0), 1e-9);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_seconds(10), 1024e-9);

  Histogram hist;
  hist.record_seconds(1.0e-6);
  hist.record_seconds(1.5e-6);
  hist.record_seconds(3.0e-6);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_NEAR(hist.sum_seconds(), 5.5e-6, 1e-8);
  // 1000ns / 1500ns / 3000ns land in log2 buckets 9 / 10 / 11.
  const auto buckets = hist.buckets();
  EXPECT_EQ(buckets[Histogram::bucket_index(1.0e-6)], 1u);
  EXPECT_EQ(buckets[Histogram::bucket_index(1.5e-6)], 1u);
  EXPECT_EQ(buckets[Histogram::bucket_index(3.0e-6)], 1u);
}

TEST(HistogramTest, QuantilesFromLog2Buckets) {
  Histogram hist;
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile_seconds(0.5), 0.0);  // no samples

  // 100 samples in one bucket: every quantile interpolates inside
  // [1024ns, 2048ns), monotonically in q.
  for (int i = 0; i < 100; ++i) hist.record_seconds(1.5e-6);
  HistogramSnapshot one;
  one.count = hist.count();
  one.sum_seconds = hist.sum_seconds();
  one.buckets = hist.buckets();
  EXPECT_GE(one.p50_seconds(), 1024e-9);
  EXPECT_LE(one.p50_seconds(), 2048e-9);
  EXPECT_LE(one.p50_seconds(), one.p95_seconds());
  EXPECT_LE(one.p95_seconds(), one.p99_seconds());
  EXPECT_LE(one.p99_seconds(), 2048e-9);

  // Bimodal: 90 fast samples, 10 slow ones two decades up.  p50 stays
  // in the fast bucket, p95/p99 land in the slow one.
  Histogram bimodal;
  for (int i = 0; i < 90; ++i) bimodal.record_seconds(1.0e-6);
  for (int i = 0; i < 10; ++i) bimodal.record_seconds(1.0e-4);
  HistogramSnapshot two;
  two.count = bimodal.count();
  two.sum_seconds = bimodal.sum_seconds();
  two.buckets = bimodal.buckets();
  EXPECT_LT(two.p50_seconds(), 3e-6);
  EXPECT_GT(two.p95_seconds(), 5e-5);
  EXPECT_GT(two.p99_seconds(), 5e-5);
  EXPECT_LE(two.p99_seconds(), 2e-4);

  // Extremes clamp instead of misbehaving.
  EXPECT_GT(two.quantile_seconds(0.0), 0.0);   // smallest sample's bucket
  EXPECT_LE(two.quantile_seconds(1.0), 2e-4);  // largest sample's bucket
}

TEST(RegistryTest, SnapshotJsonCarriesPercentiles) {
  ScopedObservability scoped;
  for (int i = 0; i < 20; ++i) {
    Registry::instance().histogram("q.latency").record_seconds(1e-3);
  }
  const auto snap = Registry::instance().snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"p50_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_seconds\":"), std::string::npos);
  const std::string text = snap.summary();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

TEST(RegistryTest, StableReferencesAcrossReset) {
  auto& counter = Registry::instance().counter("obs_test.stable");
  counter.add(5);
  Registry::instance().reset();
  EXPECT_EQ(counter.total(), 0u);
  counter.add(2);  // handed-out reference still valid
  EXPECT_EQ(Registry::instance().counter("obs_test.stable").total(), 2u);
  Registry::instance().reset();
}

TEST(RegistryTest, SnapshotIsWellFormedJson) {
  ScopedObservability scoped;
  Registry::instance().counter("a.bytes").add(42);
  Registry::instance().gauge("a.depth").set(3);
  Registry::instance().histogram("a.lat\"ency").record_seconds(1e-3);

  const std::string json = Registry::instance().snapshot().to_json();
  JsonValue root = JsonParser(json).parse();
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_TRUE(root.has("counters"));
  EXPECT_TRUE(root.has("gauges"));
  EXPECT_TRUE(root.has("histograms"));
  EXPECT_EQ(root.at("counters").at("a.bytes").at("total").number, 42.0);
  // The quote in the histogram name must have been escaped.
  EXPECT_TRUE(root.at("histograms").has("a.lat\"ency"));

  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counter_total("a.bytes"), 42u);
  EXPECT_EQ(snap.counter_total("no.such.counter"), 0u);
  EXPECT_NE(snap.summary().find("a.bytes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Composite observer chain

class Probe final : public IoObserver {
 public:
  explicit Probe(bool detail = false) : detail_(detail) {}
  void on_io(const IoRecord& record) override {
    std::lock_guard lock(mutex_);
    records.push_back(record);
  }
  bool wants_detail() const override { return detail_; }
  std::size_t count() const {
    std::lock_guard lock(mutex_);
    return records.size();
  }
  std::vector<IoRecord> records;

 private:
  bool detail_;
  mutable std::mutex mutex_;
};

TEST(CompositeObserverTest, FansOutAndAggregatesDetail) {
  CompositeObserver composite;
  EXPECT_TRUE(composite.empty());
  EXPECT_FALSE(composite.wants_detail());

  auto plain = std::make_shared<Probe>(false);
  auto detailed = std::make_shared<Probe>(true);
  composite.add(plain);
  EXPECT_FALSE(composite.wants_detail());
  composite.add(detailed);
  EXPECT_TRUE(composite.wants_detail());
  EXPECT_EQ(composite.size(), 2u);

  IoRecord record;
  record.op = IoOp::kWrite;
  record.bytes = 64;
  composite.on_io(record);
  EXPECT_EQ(plain->count(), 1u);
  EXPECT_EQ(detailed->count(), 1u);

  composite.remove(detailed);
  EXPECT_FALSE(composite.wants_detail());
  composite.on_io(record);
  EXPECT_EQ(plain->count(), 2u);
  EXPECT_EQ(detailed->count(), 1u);

  composite.remove(detailed);  // unknown pointer: ignored
  composite.clear();
  EXPECT_TRUE(composite.empty());
  composite.on_io(record);
  EXPECT_EQ(plain->count(), 2u);
}

TEST(CompositeObserverTest, AddRemoveObserversOnConnector) {
  auto file = mem_file();
  vol::NativeConnector conn(file);
  auto first = std::make_shared<Probe>();
  auto second = std::make_shared<Probe>();
  conn.add_observer(first);
  conn.add_observer(second);
  EXPECT_EQ(conn.observer_chain()->size(), 2u);

  // Removing one observer leaves the rest of the chain receiving.
  conn.remove_observer(first);
  EXPECT_EQ(conn.observer_chain()->size(), 1u);

  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {4});
  const std::vector<std::uint8_t> data(4, 1);
  conn.dataset_write(ds, h5::Selection::all(),
                     std::as_bytes(std::span<const std::uint8_t>(data)));
  EXPECT_EQ(first->count(), 0u);
  EXPECT_EQ(second->count(), 1u);

  conn.observer_chain()->clear();
  EXPECT_TRUE(conn.observer_chain()->empty());
  conn.dataset_write(ds, h5::Selection::all(),
                     std::as_bytes(std::span<const std::uint8_t>(data)));
  EXPECT_EQ(second->count(), 1u);
}

// Regression (TSan-visible): dispatch used to iterate observers_ while
// holding the chain's mutex released — a concurrent remove() could
// invalidate the iterator mid-fan-out.  on_io now snapshots the chain
// under the lock and dispatches on the copy, so add/remove/clear may
// race freely with dispatch; an observer may receive at most one
// in-flight record after its remove() returns, never a torn read.
TEST(CompositeObserverTest, AddRemoveRacingDispatchHammer) {
  CompositeObserver composite;
  IoRecord record;
  record.op = IoOp::kWrite;
  record.bytes = 1;

  std::atomic<bool> stop{false};
  std::thread dispatcher([&] {
    while (!stop.load(std::memory_order_relaxed)) composite.on_io(record);
  });
  std::thread churner([&] {
    for (int i = 0; i < 2000; ++i) {
      auto probe = std::make_shared<Probe>();
      composite.add(probe);
      composite.remove(probe);
      if (i % 64 == 0) composite.clear();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  churner.join();
  dispatcher.join();
  EXPECT_TRUE(composite.empty());
}

TEST(MetricsObserverTest, RoutesOpsToRegistryCounters) {
  ScopedObservability scoped;
  MetricsObserver observer("t");

  IoRecord write;
  write.op = IoOp::kWrite;
  write.bytes = 100;
  write.blocking_seconds = 1e-4;
  write.completion_seconds = 2e-4;
  write.async = true;
  observer.on_io(write);

  IoRecord read;
  read.op = IoOp::kRead;
  read.bytes = 40;
  read.cache_hit = true;
  observer.on_io(read);

  IoRecord prefetch;
  prefetch.op = IoOp::kPrefetch;
  prefetch.bytes = 8;
  observer.on_io(prefetch);

  IoRecord flush;
  flush.op = IoOp::kFlush;
  observer.on_io(flush);

  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counter_total("t.bytes_written"), 100u);
  EXPECT_EQ(snap.counter_total("t.bytes_read"), 40u);
  EXPECT_EQ(snap.counter_total("t.writes"), 1u);
  EXPECT_EQ(snap.counter_total("t.reads"), 1u);
  EXPECT_EQ(snap.counter_total("t.prefetches"), 1u);
  EXPECT_EQ(snap.counter_total("t.flushes"), 1u);
  EXPECT_EQ(snap.counter_total("t.cache_hits"), 1u);
  EXPECT_EQ(snap.counter_total("t.async_ops"), 1u);
  // Latency histograms take one sample per record, whatever the op.
  EXPECT_EQ(snap.histograms.at("t.blocking_seconds").count, 4u);
  EXPECT_NEAR(snap.histograms.at("t.blocking_seconds").sum_seconds, 1e-4, 1e-6);
  EXPECT_FALSE(observer.wants_detail());
}

// ---------------------------------------------------------------------------
// One span stream: ScopedPhase, its metric sink, the Chrome renderer

TEST(TracerTest, DisabledSpansCostNothingAndRecordNothing) {
  auto& collector = trace::TraceCollector::instance();
  collector.clear();
  ASSERT_FALSE(collector.enabled());
  const trace::TraceContext ctx = collector.start_trace();
  EXPECT_FALSE(ctx.recording());
  {
    trace::ScopedTraceContext bind(ctx);
    trace::ScopedPhase phase(trace::Phase::kAttempt, 123, "invisible");
  }
  collector.complete(ctx, IoOp::kWrite, "t", 123, false, 0.0, 1.0);
  EXPECT_TRUE(collector.drain().empty());
  EXPECT_EQ(collector.watermark().started, 0u);
}

TEST(TracerTest, ChromeExportIsValidTraceEventJson) {
  ScopedObservability scoped;
  auto& collector = trace::TraceCollector::instance();
  // One request per thread identity: unlabelled, rank 3, stream 5.
  const auto traced = [&](trace::Phase phase, const char* detail) {
    const trace::TraceContext ctx = collector.start_trace();
    {
      trace::ScopedTraceContext bind(ctx);
      trace::ScopedPhase outer(phase, 4096);
      trace::ScopedPhase inner(trace::Phase::kBackend, 4096, detail);
    }
    collector.complete(ctx, IoOp::kWrite, "t", 4096, false, steady_seconds(),
                       steady_seconds());
  };
  traced(trace::Phase::kAttempt, "in\"ner\\path");
  set_thread_rank(3);
  traced(trace::Phase::kSubmit, "memory");
  set_thread_rank(-1);
  set_thread_stream(5);
  traced(trace::Phase::kAttempt, "memory");
  set_thread_stream(-1);

  const auto events = chrome_events(collector.drain());
  ASSERT_EQ(events.size(), 6u);
  bool saw_escaped = false;
  std::map<std::string, std::vector<double>> lanes;
  for (const auto& event : events) {
    ASSERT_EQ(event.type, JsonValue::Type::kObject);
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}) {
      EXPECT_TRUE(event.has(key)) << key;
    }
    EXPECT_EQ(event.at("ph").string, "X");
    EXPECT_EQ(event.at("cat").string, "write");
    EXPECT_GE(event.at("ts").number, 0.0);
    EXPECT_GE(event.at("dur").number, 0.0);
    const auto& args = event.at("args");
    if (args.has("detail") && args.at("detail").string == "in\"ner\\path") {
      saw_escaped = true;
    }
    lanes[event.at("name").string].push_back(event.at("tid").number);
  }
  EXPECT_TRUE(saw_escaped);
  // Lanes: unlabelled threads on 0, rank 3 on 1003, stream 5 on 2005.
  EXPECT_EQ(lanes["submit"], std::vector<double>{1003.0});
  EXPECT_EQ(lanes["attempt"], (std::vector<double>{0.0, 2005.0}));
  EXPECT_EQ(lanes["backend"], (std::vector<double>{0.0, 1003.0, 2005.0}));
}

TEST(ScopedPhaseTest, MetricSinkAndSpanAreGatedIndependently) {
  auto& collector = trace::TraceCollector::instance();
  auto& latency = Registry::instance().histogram("obs_test.phase_seconds");
  auto& bytes = Registry::instance().counter("obs_test.phase_bytes");
  Registry::instance().reset();
  collector.clear();
  collector.set_sampling_period(1);
  collector.set_enabled(true);

  // Metrics on, thread unbound: one latency sample and N bytes, no span.
  set_enabled(true);
  { trace::ScopedPhase phase(trace::Phase::kBackend, 64, "probe", latency, &bytes); }
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_EQ(bytes.total(), 64u);
  EXPECT_EQ(collector.watermark().late_spans, 0u);
  EXPECT_TRUE(collector.drain().empty());

  // Bound to a sampled trace, metrics off: exactly one span, no sample.
  set_enabled(false);
  const trace::TraceContext sampled = collector.start_trace();
  ASSERT_TRUE(sampled.recording());
  {
    trace::ScopedTraceContext bind(sampled);
    trace::ScopedPhase phase(trace::Phase::kBackend, 64, "probe", latency, &bytes);
  }
  collector.complete(sampled, IoOp::kWrite, "t", 64, false, 0.0, 1.0);
  const auto traces = collector.drain();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].spans.size(), 1u);
  EXPECT_EQ(traces[0].spans[0].phase, trace::Phase::kBackend);
  EXPECT_EQ(traces[0].spans[0].bytes, 64u);
  EXPECT_EQ(traces[0].spans[0].detail, "probe");
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_EQ(bytes.total(), 64u);

  // Both off: nothing recorded anywhere.
  collector.set_enabled(false);
  const trace::TraceContext off = collector.start_trace();
  {
    trace::ScopedTraceContext bind(off);
    trace::ScopedPhase phase(trace::Phase::kBackend, 64, "probe", latency, &bytes);
  }
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_EQ(bytes.total(), 64u);
  EXPECT_TRUE(collector.drain().empty());

  collector.clear();
  Registry::instance().reset();
}

// Every string a trace export carries goes through obs::json_escape: a
// tenant with a quote and a newline must leave the JSONL line one line
// and the critical-path report parseable.
TEST(JsonEscapeTest, HostileTenantAndDetailStayValidJson) {
  trace::CompletedTrace t;
  t.trace_id = 1;
  t.root_span_id = 1;
  t.tenant = "a\"b\nc";
  t.bytes = 8;
  t.duration_seconds = 1e-3;
  trace::TraceSpan span;
  span.span_id = 2;
  span.parent_span_id = 1;
  span.phase = trace::Phase::kBackend;
  span.duration_seconds = 5e-4;
  span.detail = "d\\e\tf";
  t.spans.push_back(span);

  const std::string line = trace::trace_to_json(t);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  const JsonValue parsed = JsonParser(line).parse();
  EXPECT_EQ(parsed.at("tenant").string, "a\"b\nc");
  EXPECT_EQ(parsed.at("spans").array.at(0).at("detail").string, "d\\e\tf");

  const JsonValue report =
      JsonParser(trace::CriticalPathAnalyzer({t}).to_json()).parse();
  EXPECT_TRUE(report.at("tenants").has("a\"b\nc"));
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented stack

TEST(ObsEndToEndTest, WorkloadEmitsSpansFromAllFourLayers) {
  ScopedObservability scoped;
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  auto metrics = std::make_shared<MetricsObserver>();
  connector->add_observer(metrics);

  constexpr std::uint64_t kBytesPerRank = 64 * 1024;
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8,
                                        {2 * kBytesPerRank});
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    const std::vector<std::uint8_t> data(kBytesPerRank,
                                         static_cast<std::uint8_t>(comm.rank()));
    comm.barrier();
    connector->dataset_write(
        ds,
        h5::Selection::offsets(
            {static_cast<std::uint64_t>(comm.rank()) * kBytesPerRank},
            {kBytesPerRank}),
        std::as_bytes(std::span<const std::uint8_t>(data)));
    comm.barrier();
  });
  connector->wait_all();
  const auto stats = connector->stats();
  connector->close();

  // The vol submit window and staging copy on both rank lanes, the
  // tasking stream's attempt on a stream lane, the storage leaf inside
  // it — all from the one trace ring.
  auto traces = trace::TraceCollector::instance().drain();
  ASSERT_EQ(traces.size(), 2u);
  // A hostile annotation must not break the rendered document.
  trace::CompletedTrace odd;
  trace::TraceSpan quoted;
  quoted.phase = trace::Phase::kOther;
  quoted.detail = "q\"uo\\te";
  odd.spans.push_back(quoted);
  traces.push_back(odd);

  std::map<std::string, std::set<double>> lanes;
  bool saw_memory_leaf = false;
  bool saw_quoted = false;
  for (const auto& event : chrome_events(traces)) {
    const std::string name = event.at("name").string;
    lanes[name].insert(event.at("tid").number);
    const auto& args = event.at("args");
    if (!args.has("detail")) continue;
    saw_memory_leaf |= name == "backend" && args.at("detail").string == "memory";
    saw_quoted |= args.at("detail").string == "q\"uo\\te";
  }
  EXPECT_EQ(lanes["submit"], (std::set<double>{1000.0, 1001.0}));
  EXPECT_EQ(lanes["stage_copy"], (std::set<double>{1000.0, 1001.0}));
  ASSERT_FALSE(lanes["attempt"].empty());
  for (double tid : lanes["attempt"]) EXPECT_GE(tid, 2000.0);
  EXPECT_TRUE(saw_memory_leaf) << "no memory leaf span";
  EXPECT_TRUE(saw_quoted);

  // Registry counters agree with the connector's own accounting and the
  // observer bridge.
  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counter_total("vol.async.bytes_staged"), stats.bytes_staged);
  EXPECT_EQ(snap.counter_total("io.bytes_written"), stats.bytes_staged);
  EXPECT_EQ(stats.bytes_staged, 2 * kBytesPerRank);

  // Rank threads pinned their shard to the rank: the per-shard view of
  // the staging counter is the per-rank byte count.
  const auto& staged = snap.counters.at("vol.async.bytes_staged");
  EXPECT_EQ(staged.per_shard[0], kBytesPerRank);
  EXPECT_EQ(staged.per_shard[1], kBytesPerRank);

  // pmpi: both ranks passed both barriers, timed into the registry.
  EXPECT_GE(snap.histograms.at("pmpi.barrier_wait_seconds").count, 4u);
}

// The execute metrics ride the kAttempt phase, which opens only after
// the breaker admits the attempt: a rejected attempt moves no bytes and
// must count none.
TEST(ObsEndToEndTest, BreakerRejectedAttemptsExecuteNoBytes) {
  ScopedObservability scoped;
  resilience::ManualClock clock;
  resilience::BreakerOptions breaker_options;
  breaker_options.failure_threshold = 1;
  breaker_options.open_seconds = 100.0;
  auto breaker = std::make_shared<resilience::CircuitBreaker>(breaker_options, &clock);
  breaker->on_failure();  // open for the whole test
  vol::AsyncOptions options;
  options.retry.max_attempts = 1;
  options.breaker = breaker;

  auto file = mem_file();
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});
  vol::AsyncConnector connector(file, options, &clock);
  const std::vector<std::uint8_t> data(64, 7);
  auto request = connector.dataset_write(
      ds, h5::Selection::all(), std::as_bytes(std::span<const std::uint8_t>(data)));
  EXPECT_THROW(request->wait(), resilience::BreakerOpenError);
  connector.close();

  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counter_total("vol.async.bytes_staged"), 64u);
  EXPECT_EQ(snap.counter_total("vol.async.bytes_executed"), 0u);
  EXPECT_EQ(snap.counter_total("vol.async.failed_ops"), 1u);
  const auto traces = trace::TraceCollector::instance().drain();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].failed);
  for (const auto& span : traces[0].spans) {
    EXPECT_NE(span.phase, trace::Phase::kAttempt);
  }
}

// The satellite stress requirement: one connector hammered from 8
// threads with metrics + trace + model observers attached; snapshots
// must stay coherent (sum of per-shard counters == total == AsyncStats
// accounting) and every operation must surface in the trace.
TEST(ObsHammerTest, EightWriterThreadsSnapshotCoherence) {
  ScopedObservability scoped;
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 16;
  constexpr std::uint64_t kChunk = 16 * 1024;

  auto file = mem_file();
  auto inner = std::make_shared<vol::AsyncConnector>(file);
  vol::TraceRecorder recorder(inner);
  auto metrics = std::make_shared<MetricsObserver>();
  auto advisor = std::make_shared<model::ModeAdvisor>();
  recorder.add_observer(metrics);
  recorder.add_observer(advisor);

  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kUInt8,
      {static_cast<std::uint64_t>(kThreads) * kWritesPerThread * kChunk});

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      set_thread_shard(t);
      const std::vector<std::uint8_t> data(kChunk,
                                           static_cast<std::uint8_t>(t));
      for (int i = 0; i < kWritesPerThread; ++i) {
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(t) * kWritesPerThread +
             static_cast<std::uint64_t>(i)) *
            kChunk;
        recorder.dataset_write(
            ds, h5::Selection::offsets({offset}, {kChunk}),
            std::as_bytes(std::span<const std::uint8_t>(data)));
      }
    });
  }
  for (auto& t : threads) t.join();
  recorder.wait_all();

  constexpr std::uint64_t kTotal = static_cast<std::uint64_t>(kThreads) *
                                   kWritesPerThread * kChunk;
  const auto stats = inner->stats();
  EXPECT_EQ(stats.bytes_staged, kTotal);
  EXPECT_EQ(stats.writes_enqueued,
            static_cast<std::uint64_t>(kThreads) * kWritesPerThread);

  const auto snap = Registry::instance().snapshot();
  const auto& staged = snap.counters.at("vol.async.bytes_staged");
  EXPECT_EQ(staged.total, kTotal);
  std::uint64_t shard_sum = 0;
  for (std::size_t s = 0; s < staged.per_shard.size(); ++s) {
    shard_sum += staged.per_shard[s];
  }
  EXPECT_EQ(shard_sum, staged.total);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(staged.per_shard[static_cast<std::size_t>(t)],
              static_cast<std::uint64_t>(kWritesPerThread) * kChunk)
        << "shard " << t;
  }
  EXPECT_EQ(snap.counter_total("io.bytes_written"), kTotal);

  // Every write surfaced on the unified stream: the trace sink saw all
  // of them, and the model accumulated usable samples.
  const auto trace = recorder.trace();
  EXPECT_EQ(trace.size(),
            static_cast<std::size_t>(kThreads) * kWritesPerThread);
  double prev = -1.0;
  for (const auto& e : trace.events()) {
    EXPECT_EQ(e.kind, vol::TraceEvent::Kind::kWrite);
    EXPECT_EQ(e.bytes, kChunk);
    EXPECT_GE(e.issue_time, prev);
    prev = e.issue_time;
  }
  EXPECT_TRUE(advisor->async_ready());

  inner->close();
}

}  // namespace
}  // namespace apio::obs
