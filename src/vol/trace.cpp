#include "vol/trace.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "common/error.h"
#include "common/units.h"
#include "vol/selection_token.h"

namespace apio::vol {
namespace {

/// Synthetic payload byte of every replayed write.
constexpr std::byte kReplayFill{0xA5};

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

/// Appends a time in shortest round-trip form: from_chars parses it
/// back to the same double.
void append_seconds(std::string& out, double seconds) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, seconds).ptr);
}

[[noreturn]] void bad_field(std::size_t row, const char* what, const std::string& field) {
  throw FormatError("trace row " + std::to_string(row) + ": bad " + what + " '" + field + "'");
}

/// Parses a whole trace field as a number: a prefix ("12kb"), a sign
/// on an unsigned field or an empty field is malformed.
template <typename T>
T parse_number(const std::string& field, std::size_t row, const char* what) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) bad_field(row, what, field);
  return value;
}

/// A time field: parsed whole, finite and non-negative.
double parse_seconds(const std::string& field, std::size_t row, const char* what) {
  const double v = parse_number<double>(field, row, what);
  if (!std::isfinite(v) || v < 0) bad_field(row, what, field);
  return v;
}

}  // namespace

void Trace::append(IoRecord record) { events_.push_back(std::move(record)); }

std::string Trace::to_csv() const {
  std::string out = "kind,path,selection,bytes,issue_time,blocking,trace_id,span_id\n";
  for (const auto& e : events_) {
    out += std::to_string(static_cast<int>(e.op));
    out += ',';
    append_csv_field(out, e.dataset_path);
    out += ',';
    out += e.selection.empty() ? "all" : e.selection;
    out += ',';
    out += std::to_string(e.bytes);
    out += ',';
    append_seconds(out, e.issue_time);
    out += ',';
    append_seconds(out, e.blocking_seconds);
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
    if (fields.size() != 8) {
      throw FormatError("trace row " + std::to_string(r) + " has " +
                        std::to_string(fields.size()) + " fields");
    }
    IoRecord e;
    const int kind = parse_number<int>(fields[0], r, "kind");
    if (kind < 0 || kind > 3) bad_field(r, "kind", fields[0]);
    e.op = static_cast<IoOp>(kind);
    e.dataset_path = fields[1];
    // Validated, and kept in the canonical form the recorder writes.
    e.selection = selection_to_token(selection_from_token(fields[2]));
    e.bytes = parse_number<std::uint64_t>(fields[3], r, "bytes");
    e.issue_time = parse_seconds(fields[4], r, "issue time");
    e.blocking_seconds = parse_seconds(fields[5], r, "blocking time");
    e.trace_id = parse_number<std::uint64_t>(fields[6], r, "trace id");
    e.span_id = parse_number<std::uint64_t>(fields[7], r, "span id");
    trace.append(std::move(e));
  }
  return trace;
}

// ---------------------------------------------------------------------------
// TraceRecorder

void TraceRecorder::on_io(const IoRecord& record) {
  std::lock_guard lock(mutex_);
  events_.push_back(record);
}

Trace TraceRecorder::trace() const {
  std::vector<IoRecord> events;
  {
    std::lock_guard lock(mutex_);
    events = events_;
  }
  // Async connectors report at completion, which may disagree with
  // issue order; a trace is by definition issue-ordered.
  std::stable_sort(events.begin(), events.end(),
                   [](const IoRecord& a, const IoRecord& b) {
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
    const h5::Selection selection = selection_from_token(event.selection);
    switch (event.op) {
      case IoOp::kWrite: {
        auto ds = connector.file()->dataset_at(event.dataset_path);
        std::vector<std::byte> payload(event.bytes, kReplayFill);
        outstanding.push_back(connector.dataset_write(ds, selection, payload));
        result.bytes_written += event.bytes;
        break;
      }
      case IoOp::kRead: {
        auto ds = connector.file()->dataset_at(event.dataset_path);
        std::vector<std::byte> sink(event.bytes);
        auto req = connector.dataset_read(ds, selection, sink);
        req->wait();  // the original caller consumed the data
        result.bytes_read += event.bytes;
        break;
      }
      case IoOp::kPrefetch: {
        auto ds = connector.file()->dataset_at(event.dataset_path);
        connector.prefetch(ds, selection);
        break;
      }
      case IoOp::kFlush:
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
    if (e.op == IoOp::kFlush) continue;
    auto& p = per_dataset_[e.dataset_path];
    p.blocking_seconds += e.blocking_seconds;
    if (e.op == IoOp::kWrite) {
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
