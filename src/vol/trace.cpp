#include "vol/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "common/error.h"
#include "common/units.h"
#include "vol/selection_token.h"

namespace apio::vol {
namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

void append_csv_field(std::string& out, const std::string& field) {
  if (!needs_quoting(field)) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

/// RFC4180-style row splitter: quote-aware, tolerates commas/newlines/
/// CRLF inside quoted fields, doubles-as-escape for quotes.  Throws
/// FormatError on an unterminated quoted field.
std::vector<std::vector<std::string>> parse_csv(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  const std::size_t n = csv.size();
  std::size_t i = 0;
  while (i < n) {
    std::vector<std::string> fields;
    bool row_done = false;
    while (!row_done) {
      std::string field;
      if (i < n && csv[i] == '"') {
        ++i;
        bool closed = false;
        while (i < n) {
          const char c = csv[i];
          if (c == '"') {
            if (i + 1 < n && csv[i + 1] == '"') {
              field += '"';
              i += 2;
            } else {
              ++i;
              closed = true;
              break;
            }
          } else {
            field += c;
            ++i;
          }
        }
        if (!closed) throw FormatError("unterminated quoted field in trace CSV");
        if (i < n && csv[i] != ',' && csv[i] != '\n' && csv[i] != '\r') {
          throw FormatError("garbage after quoted field in trace CSV");
        }
      } else {
        while (i < n && csv[i] != ',' && csv[i] != '\n') {
          if (csv[i] != '\r') field += csv[i];
          ++i;
        }
      }
      fields.push_back(std::move(field));
      if (i < n && csv[i] == ',') {
        ++i;
        continue;
      }
      if (i < n && csv[i] == '\r') ++i;
      if (i < n && csv[i] == '\n') ++i;
      row_done = true;
    }
    // Blank separator lines parse as one empty field; skip them.
    if (fields.size() == 1 && fields[0].empty()) continue;
    rows.push_back(std::move(fields));
  }
  return rows;
}

}  // namespace

void Trace::append(TraceEvent event) { events_.push_back(std::move(event)); }

std::string Trace::to_csv() const {
  std::string out = "kind,path,selection,bytes,issue_time,blocking,trace_id,span_id\n";
  std::ostringstream num;
  for (const auto& e : events_) {
    out += std::to_string(static_cast<int>(e.kind));
    out += ',';
    append_csv_field(out, e.dataset_path);
    out += ',';
    out += selection_to_token(e.selection);
    out += ',';
    out += std::to_string(e.bytes);
    num.str("");
    num << ',' << e.issue_time << ',' << e.blocking_seconds;
    out += num.str();
    out += ',';
    out += std::to_string(e.trace_id);
    out += ',';
    out += std::to_string(e.span_id);
    out += '\n';
  }
  return out;
}

Trace Trace::from_csv(const std::string& csv) {
  Trace trace;
  const auto rows = parse_csv(csv);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& fields = rows[r];
    if (r == 0 && !fields.empty() && fields[0] == "kind") continue;  // header
    // 6 columns is the legacy pre-trace-id layout; 8 is current.
    if (fields.size() != 6 && fields.size() != 8) {
      throw FormatError("malformed trace row with " +
                        std::to_string(fields.size()) + " fields");
    }
    TraceEvent e;
    const int kind = std::atoi(fields[0].c_str());
    if (kind < 0 || kind > 3) {
      throw FormatError("bad trace kind '" + fields[0] + "'");
    }
    e.kind = static_cast<TraceEvent::Kind>(kind);
    e.dataset_path = fields[1];
    e.selection = selection_from_token(fields[2]);
    e.bytes = std::strtoull(fields[3].c_str(), nullptr, 10);
    e.issue_time = std::atof(fields[4].c_str());
    e.blocking_seconds = std::atof(fields[5].c_str());
    if (fields.size() == 8) {
      e.trace_id = std::strtoull(fields[6].c_str(), nullptr, 10);
      e.span_id = std::strtoull(fields[7].c_str(), nullptr, 10);
    }
    trace.append(std::move(e));
  }
  return trace;
}

// ---------------------------------------------------------------------------
// TraceRecorder

/// The recorder's subscription on the unified record stream.  Detail
/// strings (path, selection token) are requested so connectors fill
/// them; records are stored with absolute issue times and rebased at
/// snapshot time.
class TraceRecorder::Sink final : public IoObserver {
 public:
  bool wants_detail() const override { return true; }

  void on_io(const IoRecord& record) override {
    TraceEvent event;
    event.kind = record.op;
    event.dataset_path = record.dataset_path;
    event.selection = selection_from_token(record.selection);
    event.bytes = record.bytes;
    event.issue_time = record.issue_time;
    event.blocking_seconds = record.blocking_seconds;
    event.trace_id = record.trace_id;
    event.span_id = record.span_id;
    std::lock_guard lock(mutex_);
    events_.push_back(std::move(event));
  }

  Trace snapshot() const {
    std::vector<TraceEvent> events;
    {
      std::lock_guard lock(mutex_);
      events = events_;
    }
    // Async connectors report at completion, which may disagree with
    // issue order; a trace is by definition issue-ordered.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.issue_time < b.issue_time;
                     });
    Trace trace;
    if (!events.empty()) {
      const double base = events.front().issue_time;
      for (auto& e : events) {
        e.issue_time -= base;
        trace.append(std::move(e));
      }
    }
    return trace;
  }

 private:
  mutable debug::RankedMutex<debug::LockRank::kVolTrace> mutex_;
  std::vector<TraceEvent> events_;
};

TraceRecorder::TraceRecorder(ConnectorPtr inner)
    : PassthroughConnector(std::move(inner)), sink_(std::make_shared<Sink>()) {
  this->inner()->add_observer(sink_);
}

TraceRecorder::~TraceRecorder() {
  // The sink must not outlive this subscription: the inner connector is
  // shared and may keep emitting after the recorder is gone.
  inner()->remove_observer(sink_);
}

Trace TraceRecorder::trace() const { return sink_->snapshot(); }

// ---------------------------------------------------------------------------
// Replay

ReplayResult replay_trace(const Trace& trace, Connector& connector,
                          ReplayOptions options) {
  WallClock clock;
  const double t_start = clock.now();
  ReplayResult result;
  std::vector<RequestPtr> outstanding;
  double prev_issue = 0.0;

  for (const auto& event : trace.events()) {
    // Reproduce the inter-call gap (the original compute phase).
    if (options.time_scale > 0.0 && event.issue_time > prev_issue) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          (event.issue_time - prev_issue) * options.time_scale));
    }
    prev_issue = event.issue_time;

    const double t0 = clock.now();
    switch (event.kind) {
      case TraceEvent::Kind::kWrite: {
        auto ds = connector.file()->dataset_at(event.dataset_path);
        std::vector<std::byte> payload(event.bytes, std::byte{options.fill});
        outstanding.push_back(connector.dataset_write(ds, event.selection, payload));
        result.bytes_written += event.bytes;
        break;
      }
      case TraceEvent::Kind::kRead: {
        auto ds = connector.file()->dataset_at(event.dataset_path);
        std::vector<std::byte> sink(event.bytes);
        auto req = connector.dataset_read(ds, event.selection, sink);
        req->wait();  // the original caller consumed the data
        result.bytes_read += event.bytes;
        break;
      }
      case TraceEvent::Kind::kPrefetch: {
        auto ds = connector.file()->dataset_at(event.dataset_path);
        connector.prefetch(ds, event.selection);
        break;
      }
      case TraceEvent::Kind::kFlush:
        outstanding.push_back(connector.flush());
        break;
    }
    result.blocking_seconds += clock.now() - t0;
    ++result.operations;
  }
  for (auto& req : outstanding) req->wait();
  connector.wait_all();
  result.total_seconds = clock.now() - t_start;
  return result;
}

// ---------------------------------------------------------------------------
// IoProfile

IoProfile::IoProfile(const Trace& trace) : histogram_(48, 0) {
  for (const auto& e : trace.events()) {
    ++total_ops_;
    if (e.kind == TraceEvent::Kind::kFlush) continue;
    auto& p = per_dataset_[e.dataset_path];
    p.blocking_seconds += e.blocking_seconds;
    if (e.kind == TraceEvent::Kind::kWrite) {
      ++p.writes;
      p.bytes_written += e.bytes;
    } else {
      ++p.reads;
      p.bytes_read += e.bytes;
    }
    total_bytes_ += e.bytes;
    std::size_t bucket = 0;
    if (e.bytes > 0) {
      bucket = static_cast<std::size_t>(std::floor(std::log2(
          static_cast<double>(e.bytes))));
      bucket = std::min(bucket, histogram_.size() - 1);
    }
    ++histogram_[bucket];
  }
}

std::string IoProfile::report() const {
  std::ostringstream os;
  os << "I/O profile: " << total_ops_ << " operations, "
     << format_bytes(total_bytes_) << " moved\n";
  os << "  per dataset:\n";
  for (const auto& [path, p] : per_dataset_) {
    os << "    " << path << ": " << p.writes << " writes ("
       << format_bytes(p.bytes_written) << "), " << p.reads << " reads ("
       << format_bytes(p.bytes_read) << "), blocking "
       << format_seconds(p.blocking_seconds) << '\n';
  }
  os << "  request-size histogram (non-empty buckets):\n";
  for (std::size_t i = 0; i < histogram_.size(); ++i) {
    if (histogram_[i] == 0) continue;
    os << "    [" << format_bytes(1ull << i) << ", "
       << format_bytes(1ull << (i + 1)) << "): " << histogram_[i] << '\n';
  }
  return os.str();
}

}  // namespace apio::vol
