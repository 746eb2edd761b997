#include "timeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>

namespace apio::e2e {
namespace {

const std::chrono::steady_clock::time_point g_anchor =
    std::chrono::steady_clock::now();

std::atomic<SpanBuffer*> g_active{nullptr};
std::atomic<std::uint16_t> g_next_thread{1};

/// Slot of the innermost open span on this thread (0 = none).
thread_local std::uint32_t t_current = 0;

bool is_top(SpanName n) {
  return n == SpanName::kTopRead || n == SpanName::kTopWrite ||
         n == SpanName::kTopMeta;
}

bool is_leaf(SpanName n) {
  return n == SpanName::kLeafRead || n == SpanName::kLeafWrite ||
         n == SpanName::kLeafMeta;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_anchor)
      .count();
}

const char* span_label(SpanName name) {
  switch (name) {
    case SpanName::kRun: return "run";
    case SpanName::kEpoch: return "epoch";
    case SpanName::kIo: return "io";
    case SpanName::kCompute: return "compute";
    case SpanName::kCheck: return "check";
    case SpanName::kVolWrite: return "vol.write";
    case SpanName::kVolRead: return "vol.read";
    case SpanName::kVolPrefetch: return "vol.prefetch";
    case SpanName::kVolWait: return "vol.wait";
    case SpanName::kVolOpen: return "vol.open";
    case SpanName::kVolClose: return "vol.close";
    case SpanName::kDrain: return "storage.drain";
    case SpanName::kTopRead: return "storage.top.read";
    case SpanName::kTopWrite: return "storage.top.write";
    case SpanName::kTopMeta: return "storage.top.meta";
    case SpanName::kLeafRead: return "storage.leaf.read";
    case SpanName::kLeafWrite: return "storage.leaf.write";
    case SpanName::kLeafMeta: return "storage.leaf.meta";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint16_t thread_tag() {
  thread_local const std::uint16_t tag = g_next_thread.fetch_add(1);
  return tag;
}

SpanBuffer::SpanBuffer(std::size_t capacity) : spans_(capacity) {}

std::uint32_t SpanBuffer::open(SpanName name, std::uint32_t op) {
  const std::uint32_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span& s = spans_[idx];
  s.name = name;
  s.op = op;
  s.thread = thread_tag();
  s.parent = t_current;
  s.start_ns = now_ns();
  t_current = idx + 1;
  return idx + 1;
}

void SpanBuffer::close(std::uint32_t slot) {
  if (slot == 0) return;
  Span& s = spans_[slot - 1];
  s.end_ns = now_ns();
  t_current = s.parent;
}

std::size_t SpanBuffer::size() const {
  return std::min<std::size_t>(next_.load(), spans_.size());
}

SpanBuffer* active_spans() { return g_active.load(std::memory_order_acquire); }

void set_active_spans(SpanBuffer* buffer) {
  g_active.store(buffer, std::memory_order_release);
}

TimedSpan::TimedSpan(SpanName name, std::uint32_t op) : buffer_(active_spans()) {
  if (buffer_ != nullptr) slot_ = buffer_->open(name, op);
}

TimedSpan::~TimedSpan() {
  if (buffer_ != nullptr) buffer_->close(slot_);
}

TimelineSummary summarize(const SpanBuffer& buffer, std::uint16_t app_thread) {
  const auto& spans = buffer.spans();
  const std::size_t n = buffer.size();
  std::vector<std::int64_t> child_ns(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }

  TimelineSummary out;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const double dur = ns_to_s(s.end_ns - s.start_ns);
    const double self = ns_to_s(s.end_ns - s.start_ns - child_ns[i]);
    SelfTime& t = out.by_name[span_label(s.name)];
    ++t.count;
    t.total_s += dur;
    t.self_s += self;

    if (is_top(s.name)) out.stack_self_s.push_back(self);
    if (is_leaf(s.name)) {
      out.leaf_busy_s += dur;
      if (s.name != SpanName::kLeafMeta) out.leaf_data_s += dur;
    }
    if (s.thread != app_thread) {
      auto& [top, leaf] = out.stream_probe_s[s.thread];
      if (is_top(s.name)) top += dur;
      if (is_leaf(s.name)) leaf += dur;
      continue;
    }
    switch (s.name) {
      case SpanName::kRun:
        out.run_s += dur;
        out.unattributed_s += self;
        break;
      case SpanName::kEpoch:
      case SpanName::kIo:
        out.unattributed_s += self;
        break;
      case SpanName::kVolWrite:
        out.write_call_s += dur;
        out.call_s.push_back(dur);
        break;
      case SpanName::kVolRead:
      case SpanName::kVolPrefetch:
        out.call_s.push_back(dur);
        break;
      default:
        break;
    }
  }
  return out;
}

bool write_chrome_trace(const SpanBuffer& buffer, std::uint16_t app_thread,
                        const std::string& path) {
  // The stdio buffer outlives the stream: fclose flushes through it.
  std::vector<char> iobuf(1 << 20);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                    &std::fclose);
  if (!f) return false;
  std::setvbuf(f.get(), iobuf.data(), _IOFBF, iobuf.size());

  const auto& spans = buffer.spans();
  const std::size_t n = buffer.size();
  std::set<std::uint16_t> threads;
  for (std::size_t i = 0; i < n; ++i) threads.insert(spans[i].thread);

  std::fprintf(f.get(), "{\"traceEvents\":[\n");
  bool first = true;
  for (const std::uint16_t t : threads) {
    std::fprintf(f.get(),
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", static_cast<unsigned>(t),
                 t == app_thread ? "app" : "stream");
    first = false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"slot\":%zu,\"parent\":%u,"
                 "\"op\":%u}}",
                 first ? "" : ",\n", span_label(s.name),
                 static_cast<unsigned>(s.thread),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i + 1,
                 s.parent, s.op);
    first = false;
  }
  std::fprintf(f.get(),
               "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%llu}}\n",
               static_cast<unsigned long long>(buffer.dropped()));
  return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
}

}  // namespace apio::e2e
