// Tests for I/O tracing: the recording connector, CSV persistence,
// replay against fresh connectors, and the profile report.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "common/error.h"
#include "obs/trace_context.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "vol/selection_token.h"
#include "vol/trace.h"

namespace apio::vol {
namespace {

h5::FilePtr mem_file() {
  return h5::File::create(std::make_shared<storage::MemoryBackend>());
}

/// Creates a container with the structure traces in these tests use.
h5::FilePtr make_structure() {
  auto file = mem_file();
  auto g = file->root().create_group("out");
  g.create_dataset("field", h5::Datatype::kFloat32, {64});
  g.create_dataset("ids", h5::Datatype::kInt32, {32});
  return file;
}

Trace record_sample_workload(h5::FilePtr file) {
  NativeConnector connector(file);
  auto recorder = std::make_shared<TraceRecorder>();
  connector.add_observer(recorder);
  auto field = file->dataset_at("out/field");
  auto ids = file->dataset_at("out/ids");

  std::vector<float> values(32);
  std::iota(values.begin(), values.end(), 0.0f);
  connector.dataset_write(field, h5::Selection::offsets({0}, {32}),
                          std::as_bytes(std::span<const float>(values)));
  connector.dataset_write(field, h5::Selection::offsets({32}, {32}),
                          std::as_bytes(std::span<const float>(values)));
  std::vector<std::int32_t> id_values(32, 7);
  connector.dataset_write(ids, h5::Selection::all(),
                          std::as_bytes(std::span<const std::int32_t>(id_values)));
  std::vector<float> sink(32);
  connector.dataset_read(field, h5::Selection::offsets({0}, {32}),
                         std::as_writable_bytes(std::span<float>(sink)));
  connector.prefetch(field, h5::Selection::offsets({32}, {32}));
  connector.flush();
  return recorder->trace();
}

TEST(TraceRecorderTest, CapturesAllOperationKinds) {
  auto file = make_structure();
  const Trace trace = record_sample_workload(file);
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace.events()[0].op, IoOp::kWrite);
  EXPECT_EQ(trace.events()[0].dataset_path, "out/field");
  EXPECT_EQ(trace.events()[0].bytes, 32u * sizeof(float));
  EXPECT_EQ(trace.events()[2].dataset_path, "out/ids");
  EXPECT_EQ(trace.events()[3].op, IoOp::kRead);
  EXPECT_EQ(trace.events()[4].op, IoOp::kPrefetch);
  EXPECT_EQ(trace.events()[4].bytes, 32u * sizeof(float));
  EXPECT_EQ(trace.events()[5].op, IoOp::kFlush);
}

TEST(TraceRecorderTest, CausalTraceIdsRideTheRecordStream) {
  auto& collector = obs::trace::TraceCollector::instance();
  collector.clear();
  collector.set_sampling_period(1);
  collector.set_enabled(true);

  auto file = make_structure();
  AsyncConnector connector(file);
  auto recorder = std::make_shared<TraceRecorder>();
  connector.add_observer(recorder);
  auto field = file->dataset_at("out/field");
  std::vector<float> values(32, 1.0f);
  connector
      .dataset_write(field, h5::Selection::offsets({0}, {32}),
                     std::as_bytes(std::span<const float>(values)))
      ->wait();
  connector.wait_all();
  const Trace trace = recorder->trace();
  connector.close();
  collector.set_enabled(false);
  collector.clear();

  ASSERT_EQ(trace.size(), 1u);
  EXPECT_NE(trace.events()[0].trace_id, 0u);
  EXPECT_NE(trace.events()[0].span_id, 0u);
}

TEST(TraceRecorderTest, IssueTimesMonotone) {
  auto file = make_structure();
  const Trace trace = record_sample_workload(file);
  double prev = -1.0;
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.issue_time, prev);
    prev = e.issue_time;
    EXPECT_GE(e.blocking_seconds, 0.0);
  }
}

TEST(TraceTest, CsvRoundTrip) {
  auto file = make_structure();
  Trace trace = record_sample_workload(file);
  // Times past six significant digits, and ids past 2^53.
  IoRecord precise;
  precise.dataset_path = "out/field";
  precise.issue_time = 0.0123456789;
  precise.blocking_seconds = 1.0 / 3.0;
  precise.trace_id = std::numeric_limits<std::uint64_t>::max();
  precise.span_id = (std::uint64_t{1} << 53) + 1;
  trace.append(precise);
  const std::string csv = trace.to_csv();
  const Trace parsed = Trace::from_csv(csv);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& a = trace.events()[i];
    const auto& b = parsed.events()[i];
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.dataset_path, b.dataset_path) << i;
    EXPECT_EQ(a.bytes, b.bytes) << i;
    EXPECT_EQ(a.issue_time, b.issue_time) << i;
    EXPECT_EQ(a.blocking_seconds, b.blocking_seconds) << i;
    EXPECT_EQ(a.trace_id, b.trace_id) << i;
    EXPECT_EQ(a.span_id, b.span_id) << i;
    const h5::Selection sa = selection_from_token(a.selection);
    const h5::Selection sb = selection_from_token(b.selection);
    EXPECT_EQ(sa.is_all(), sb.is_all()) << i;
    if (!sa.is_all()) {
      EXPECT_EQ(sa.slab().start, sb.slab().start) << i;
      EXPECT_EQ(sa.slab().count, sb.slab().count) << i;
    }
  }
}

/// Expects from_csv to reject `csv` with a FormatError whose message
/// contains `reason`, so a row fails on the field it targets and not on
/// its column count or an earlier field.
void expect_rejected(const std::string& csv, const std::string& reason) {
  try {
    Trace::from_csv(csv);
    ADD_FAILURE() << "accepted: " << csv;
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << csv << " -> " << e.what();
  }
}

TEST(TraceTest, CsvRejectsGarbage) {
  expect_rejected("9,x,all,1,0,0,0,0\n", "bad kind '9'");
  expect_rejected("0,p,0:1:2,4,0,0,0,0\n", "malformed selection token");
  // Only the 8-column layout parses: a truncated row, the pre-trace-id
  // 6 columns, a missing span id and a 9th column are all malformed.
  expect_rejected("0,p\n", "has 2 fields");
  expect_rejected("0,p,all,4,0,0\n", "has 6 fields");
  expect_rejected("0,p,all,4,0,0,17\n", "has 7 fields");
  expect_rejected("0,p,all,4,0,0,17,18,19\n", "has 9 fields");
  // Every numeric field is parsed whole: a prefix, a sign on a count,
  // a non-finite or negative time is malformed.
  expect_rejected("x,p,all,4,0,0,0,0\n", "bad kind 'x'");
  expect_rejected(",p,all,4,0,0,0,0\n", "bad kind ''");
  expect_rejected("0,p,all,12kb,0,0,0,0\n", "bad bytes '12kb'");
  expect_rejected("0,p,all,-5,0,0,0,0\n", "bad bytes '-5'");
  expect_rejected("0,p,all,4,0.5s,0,0,0\n", "bad issue time '0.5s'");
  expect_rejected("0,p,all,4,-1,0,0,0\n", "bad issue time '-1'");
  expect_rejected("0,p,all,4,0,inf,0,0\n", "bad blocking time 'inf'");
  expect_rejected("0,p,all,4,nan,0,0,0\n", "bad issue time 'nan'");
  expect_rejected("0,p,all,4,0,0,17x,18\n", "bad trace id '17x'");
  expect_rejected("0,p,all,4,0,0,17,+18\n", "bad span id '+18'");
  // Exponent forms, as to_csv may print them, still parse.
  const Trace ok = Trace::from_csv("0,p,all,4,1e-07,2.5e+06,0,0\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_DOUBLE_EQ(ok.events()[0].issue_time, 1e-07);
  EXPECT_DOUBLE_EQ(ok.events()[0].blocking_seconds, 2.5e+06);
}

TEST(TraceTest, CsvCarriesTraceIds) {
  Trace trace;
  IoRecord e;
  e.op = IoOp::kWrite;
  e.dataset_path = "d";
  e.selection = selection_to_token(h5::Selection::offsets({0}, {8}));
  e.bytes = 8;
  e.trace_id = 42;
  e.span_id = 7;
  trace.append(e);
  const std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("trace_id,span_id"), std::string::npos);

  const Trace parsed = Trace::from_csv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.events()[0].trace_id, 42u);
  EXPECT_EQ(parsed.events()[0].span_id, 7u);
}

// Dataset paths are user-controlled, so the CSV layer must quote the
// separator, quote and newline characters (RFC 4180) rather than
// corrupt neighbouring fields.
TEST(TraceTest, CsvEscapesAwkwardPaths) {
  const std::vector<std::string> paths = {
      "plain",
      "with,comma",
      "with \"quotes\" inside",
      "line\nbreak",
      "cr\rlf\r\nmix",
      ",\"start and end\"",
  };
  Trace trace;
  std::uint64_t bytes = 8;
  for (const auto& path : paths) {
    IoRecord e;
    e.op = IoOp::kWrite;
    e.dataset_path = path;
    e.selection = selection_to_token(h5::Selection::offsets({0}, {bytes}));
    e.bytes = bytes;
    trace.append(e);
    bytes += 8;
  }
  const Trace parsed = Trace::from_csv(trace.to_csv());
  ASSERT_EQ(parsed.size(), paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(parsed.events()[i].dataset_path, paths[i]) << i;
    EXPECT_EQ(parsed.events()[i].bytes, 8 * (i + 1)) << i;
  }
}

TEST(TraceTest, CsvRejectsMalformedQuoting) {
  // Unterminated quoted field.
  EXPECT_THROW(Trace::from_csv("0,\"no closing quote,all,1,0,0,0,0\n"),
               FormatError);
  // Garbage between closing quote and the next separator.
  EXPECT_THROW(Trace::from_csv("0,\"p\"x,all,1,0,0,0,0\n"), FormatError);
  // A quoted field must not swallow the rest of the row's fields.
  EXPECT_THROW(Trace::from_csv("0,\"p,all,1,0,0,0,0\"\n"), FormatError);
}

// The written format, pinned: a header, one row of each op kind, an
// RFC 4180-quoted path, a strided hyperslab token and non-zero trace
// ids parse and re-serialize byte for byte.
TEST(TraceTest, GoldenCsvRoundTripsByteIdentically) {
  const std::string golden =
      "kind,path,selection,bytes,issue_time,blocking,trace_id,span_id\n"
      "0,out/field,0:32,128,0,0.00025,11,12\n"
      "1,\"run,1/\"\"x\"\"\",1x2:3x4:2x2:1x2,96,0.5,1.25e-05,13,14\n"
      "2,out/field,32:32,128,0.75,0,15,16\n"
      "3,,all,0,1,0.003,17,18\n";
  const Trace trace = Trace::from_csv(golden);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.events()[1].dataset_path, "run,1/\"x\"");
  EXPECT_EQ(trace.events()[1].selection, "1x2:3x4:2x2:1x2");
  EXPECT_EQ(trace.to_csv(), golden);
}

TEST(TraceTest, StridedSelectionSurvivesCsv) {
  Trace trace;
  IoRecord e;
  e.op = IoOp::kWrite;
  e.dataset_path = "d";
  h5::Hyperslab slab;
  slab.start = {1, 2};
  slab.count = {3, 4};
  slab.stride = {2, 2};
  slab.block = {1, 2};
  e.selection = selection_to_token(h5::Selection::hyperslab(slab));
  e.bytes = 96;
  trace.append(e);
  const Trace parsed = Trace::from_csv(trace.to_csv());
  const h5::Selection selection = selection_from_token(parsed.events()[0].selection);
  const auto& s = selection.slab();
  EXPECT_EQ(s.stride, (h5::Dims{2, 2}));
  EXPECT_EQ(s.block, (h5::Dims{1, 2}));
}

TEST(ReplayTest, ReplaysWriteTraceIntoTwinContainer) {
  auto original = make_structure();
  const Trace trace = record_sample_workload(original);

  // A fresh container with the same structure; replay through async.
  auto twin = make_structure();
  AsyncConnector connector(twin);
  const auto result = replay_trace(trace, connector);
  EXPECT_EQ(result.operations, trace.size());
  EXPECT_EQ(result.bytes_written, 3u * 32 * 4);
  EXPECT_EQ(result.bytes_read, 32u * 4);
  EXPECT_GT(result.total_seconds, 0.0);

  // Replayed writes filled the datasets with the synthetic pattern.
  auto field = twin->dataset_at("out/field");
  auto values = field.read_vector<float>(h5::Selection::all());
  float expected;
  std::uint32_t bits = 0xA5A5A5A5u;
  std::memcpy(&expected, &bits, sizeof expected);
  EXPECT_EQ(values[0], expected);
  connector.close();
}

TEST(ReplayTest, MissingDatasetSurfacesNotFound) {
  auto original = make_structure();
  const Trace trace = record_sample_workload(original);
  auto empty = mem_file();  // no structure
  NativeConnector connector(empty);
  EXPECT_THROW(replay_trace(trace, connector), NotFoundError);
}

TEST(ProfileTest, AggregatesPerDataset) {
  auto file = make_structure();
  const Trace trace = record_sample_workload(file);
  IoProfile profile(trace);
  EXPECT_EQ(profile.total_operations(), 6u);
  const auto& field = profile.per_dataset().at("out/field");
  EXPECT_EQ(field.writes, 2u);
  EXPECT_EQ(field.reads, 2u);  // explicit read + prefetch
  EXPECT_EQ(field.bytes_written, 2u * 32 * 4);
  const auto& ids = profile.per_dataset().at("out/ids");
  EXPECT_EQ(ids.writes, 1u);
  EXPECT_EQ(ids.reads, 0u);
}

TEST(ProfileTest, SizeHistogramBucketsRequests) {
  auto file = make_structure();
  const Trace trace = record_sample_workload(file);
  IoProfile profile(trace);
  // All five dataset ops move 128 bytes => bucket log2(128) = 7.
  EXPECT_EQ(profile.size_histogram()[7], 5u);
  EXPECT_EQ(profile.total_bytes(), 5u * 128);
  const std::string report = profile.report();
  EXPECT_NE(report.find("out/field"), std::string::npos);
  EXPECT_NE(report.find("128.00 B"), std::string::npos);
}

TEST(PathOfTest, ResolvesNestedPaths) {
  auto file = mem_file();
  auto g = file->ensure_path("a/b/c");
  auto ds = g.create_dataset("leaf", h5::Datatype::kInt8, {1});
  EXPECT_EQ(file->path_of(ds), "a/b/c/leaf");
  auto top = file->root().create_dataset("top", h5::Datatype::kInt8, {1});
  EXPECT_EQ(file->path_of(top), "top");
}

TEST(PathOfTest, ForeignHandleRejected) {
  auto file_a = mem_file();
  auto file_b = mem_file();
  auto ds = file_a->root().create_dataset("d", h5::Datatype::kInt8, {1});
  EXPECT_THROW(file_b->path_of(ds), NotFoundError);
}

}  // namespace
}  // namespace apio::vol
