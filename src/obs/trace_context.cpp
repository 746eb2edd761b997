#include "obs/trace_context.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"

namespace apio::obs::trace {

namespace {

/// The thread's bound context (trace_id == 0 when unbound) and its open
/// phase-span stack.  Both are swapped wholesale by ScopedTraceContext
/// so nested bindings never cross-parent.
thread_local TraceContext t_context;
thread_local std::vector<std::uint64_t> t_phase_stack;

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kSubmit: return "submit";
    case Phase::kStageCopy: return "stage_copy";
    case Phase::kFifoWait: return "fifo_wait";
    case Phase::kPoolWait: return "pool_wait";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kAdmission: return "admission";
    case Phase::kAttempt: return "attempt";
    case Phase::kBackoff: return "backoff";
    case Phase::kBackend: return "backend";
    case Phase::kCacheHit: return "cache_hit";
    case Phase::kCacheFlush: return "cache_flush";
    case Phase::kFallback: return "fallback";
    case Phase::kExchange: return "exchange";
    case Phase::kRemoteWrite: return "remote_write";
    case Phase::kComplete: return "complete";
    case Phase::kOther: return "other";
  }
  return "?";
}

const TraceContext* current_trace() {
  return t_context.trace_id != 0 ? &t_context : nullptr;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : previous_(t_context), previous_stack_(std::move(t_phase_stack)) {
  t_context = context;
  t_phase_stack.clear();
}

ScopedTraceContext::~ScopedTraceContext() {
  t_context = previous_;
  t_phase_stack = std::move(previous_stack_);
}

// ---------------------------------------------------------------------------
// TraceCollector

TraceCollector& TraceCollector::instance() {
  static TraceCollector collector;
  // Seed the slowdown-injection hook from the environment exactly once;
  // absent (the production case) it stays 0 and the minting path pays a
  // single relaxed load.
  static const bool env_seeded = [] {
    if (const char* v = std::getenv("APIO_TRACE_INJECT_SPAN_DELAY_US")) {
      collector.set_injected_delay_us(std::strtoull(v, nullptr, 10));
    }
    return true;
  }();
  (void)env_seeded;
  return collector;
}

void TraceCollector::set_injected_delay_us(std::uint64_t us) {
  injected_delay_us_.store(us, std::memory_order_relaxed);
}

void TraceCollector::apply_injected_delay() const {
  const std::uint64_t us = injected_delay_us_.load(std::memory_order_relaxed);
  if (us == 0) return;
  // Busy-wait: the hook models tracing-path CPU cost, so it must not
  // yield (a sleep would vanish from min-of-N wall samples under load).
  const double until = steady_seconds() + static_cast<double>(us) * 1e-6;
  while (steady_seconds() < until) {
  }
}

void TraceCollector::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void TraceCollector::set_sampling_period(std::uint64_t period) {
  std::lock_guard lock(mutex_);
  sampling_period_ = period > 0 ? period : 1;
}

std::uint64_t TraceCollector::sampling_period() const {
  std::lock_guard lock(mutex_);
  return sampling_period_;
}

void TraceCollector::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity > 0 ? capacity : 1;
  while (completed_.size() > capacity_) {
    completed_.pop_front();
    ++evicted_count_;
  }
}

TraceContext TraceCollector::start_trace() {
  if (!enabled()) return {};
  apply_injected_delay();
  TraceContext ctx;
  const std::uint64_t n = next_trace_.fetch_add(1, std::memory_order_relaxed);
  ctx.trace_id = n + 1;
  ctx.span_id = next_span_.fetch_add(1, std::memory_order_relaxed) + 1;

  // A recording context bound on the minting thread (an aggregator
  // issuing writes from inside a collective trace) makes this trace a
  // causal child; chained traces are always sampled so a sampled parent
  // never points at a hole.
  const TraceContext* parent = current_trace();
  const bool chained = parent != nullptr && parent->sampled;

  std::lock_guard lock(mutex_);
  ctx.sampled = chained || n % sampling_period_ == 0;
  if (!ctx.sampled) return ctx;
  ++sampled_count_;
  ActiveTrace& active = active_[ctx.trace_id];
  active.root_span_id = ctx.span_id;
  active.start_seconds = steady_seconds();
  if (chained) {
    active.parent_trace_id = parent->trace_id;
    active.parent_span_id = parent->span_id;
  }
  return ctx;
}

std::uint64_t TraceCollector::new_span_id(const TraceContext& context) {
  if (!context.recording()) return 0;
  return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void TraceCollector::record_locked(std::uint64_t trace_id, TraceSpan&& span) {
  auto it = active_.find(trace_id);
  if (it == active_.end()) {
    ++late_spans_;
    return;
  }
  if (it->second.spans.size() >= kMaxSpansPerTrace) {
    ++dropped_spans_;
    return;
  }
  it->second.spans.push_back(std::move(span));
}

void TraceCollector::record(const TraceContext& context, TraceSpan span) {
  if (!context.recording() || !enabled()) return;
  std::lock_guard lock(mutex_);
  record_locked(context.trace_id, std::move(span));
}

void TraceCollector::record(std::uint64_t trace_id, TraceSpan span) {
  if (trace_id == 0 || !enabled()) return;
  std::lock_guard lock(mutex_);
  record_locked(trace_id, std::move(span));
}

void TraceCollector::complete(const TraceContext& context, IoOp op,
                              std::string tenant, std::uint64_t bytes,
                              bool failed, double start_seconds,
                              double end_seconds) {
  if (!context.recording()) return;
  std::lock_guard lock(mutex_);
  auto it = active_.find(context.trace_id);
  if (it == active_.end()) return;  // cleared mid-flight
  CompletedTrace done;
  done.trace_id = context.trace_id;
  done.root_span_id = it->second.root_span_id;
  done.parent_trace_id = it->second.parent_trace_id;
  done.parent_span_id = it->second.parent_span_id;
  done.op = op;
  done.tenant = std::move(tenant);
  done.bytes = bytes;
  done.failed = failed;
  done.start_seconds = start_seconds;
  done.duration_seconds = end_seconds - start_seconds;
  done.spans = std::move(it->second.spans);
  active_.erase(it);
  completed_.push_back(std::move(done));
  ++completed_seq_;
  ++completed_count_;
  while (completed_.size() > capacity_) {
    completed_.pop_front();
    ++evicted_count_;
  }
}

std::vector<CompletedTrace> TraceCollector::drain() {
  std::lock_guard lock(mutex_);
  std::vector<CompletedTrace> out(completed_.begin(), completed_.end());
  completed_.clear();
  return out;
}

std::pair<std::vector<CompletedTrace>, std::uint64_t>
TraceCollector::completed_since(std::uint64_t cursor) const {
  std::lock_guard lock(mutex_);
  std::vector<CompletedTrace> out;
  // completed_.back() has sequence completed_seq_; walk back to the
  // first entry newer than the cursor.
  const std::uint64_t newest = completed_seq_;
  if (newest > cursor) {
    const std::uint64_t want =
        std::min<std::uint64_t>(newest - cursor, completed_.size());
    out.assign(completed_.end() - static_cast<std::ptrdiff_t>(want),
               completed_.end());
  }
  return {std::move(out), newest};
}

TraceCollector::Watermark TraceCollector::watermark() const {
  std::lock_guard lock(mutex_);
  Watermark w;
  w.started = next_trace_.load(std::memory_order_relaxed);
  w.sampled = sampled_count_;
  w.completed = completed_count_;
  w.evicted = evicted_count_;
  w.dropped_spans = dropped_spans_;
  w.late_spans = late_spans_;
  w.active = active_.size();
  for (const auto& [id, active] : active_) {
    if (w.oldest_active_start == 0.0 ||
        active.start_seconds < w.oldest_active_start) {
      w.oldest_active_start = active.start_seconds;
    }
  }
  return w;
}

void TraceCollector::clear() {
  std::lock_guard lock(mutex_);
  active_.clear();
  completed_.clear();
  completed_seq_ = 0;
  sampled_count_ = 0;
  completed_count_ = 0;
  evicted_count_ = 0;
  dropped_spans_ = 0;
  late_spans_ = 0;
  next_trace_.store(0, std::memory_order_relaxed);
  next_span_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Phase recording

void record_phase(const TraceContext& context, Phase phase,
                  double start_seconds, double duration_seconds,
                  std::uint64_t bytes, std::string detail) {
  auto& collector = TraceCollector::instance();
  if (!context.recording() || !collector.enabled()) return;
  TraceSpan span;
  span.span_id = collector.new_span_id(context);
  span.parent_span_id = context.span_id;
  span.phase = phase;
  span.start_seconds = start_seconds;
  span.duration_seconds = duration_seconds;
  span.bytes = bytes;
  span.rank = thread_rank();
  span.stream = thread_stream();
  span.detail = std::move(detail);
  collector.record(context, std::move(span));
}

ScopedPhase::ScopedPhase(Phase phase, std::uint64_t bytes, const char* detail)
    : phase_(phase), bytes_(bytes), detail_(detail) {
  const TraceContext* ctx = current_trace();
  if (ctx == nullptr || !ctx->sampled) return;
  auto& collector = TraceCollector::instance();
  if (!collector.enabled()) return;
  active_ = true;
  context_ = *ctx;
  span_id_ = collector.new_span_id(context_);
  parent_ = t_phase_stack.empty() ? context_.span_id : t_phase_stack.back();
  t_phase_stack.push_back(span_id_);
  start_ = steady_seconds();
}

ScopedPhase::ScopedPhase(Phase phase, std::uint64_t bytes, const char* detail,
                         Histogram& latency, Counter* bytes_counter)
    : ScopedPhase(phase, bytes, detail) {
  if (!obs::enabled()) return;
  latency_ = &latency;
  bytes_counter_ = bytes_counter;
  if (!active_) start_ = steady_seconds();
}

void ScopedPhase::finish() {
  if (!active_ && latency_ == nullptr) return;
  const double end = steady_seconds();
  if (latency_ != nullptr) {
    latency_->record_seconds(end - start_);
    if (bytes_counter_ != nullptr) bytes_counter_->add(bytes_);
    latency_ = nullptr;
  }
  if (!active_) return;
  active_ = false;
  // Unwind the stack down to (and including) this span: an early
  // finish() with nested phases still open must not leave dangling
  // parents behind.
  while (!t_phase_stack.empty()) {
    const std::uint64_t top = t_phase_stack.back();
    t_phase_stack.pop_back();
    if (top == span_id_) break;
  }
  TraceSpan span;
  span.span_id = span_id_;
  span.parent_span_id = parent_;
  span.phase = phase_;
  span.start_seconds = start_;
  span.duration_seconds = end - start_;
  span.bytes = bytes_;
  span.rank = thread_rank();
  span.stream = thread_stream();
  if (detail_ != nullptr) span.detail = detail_;
  TraceCollector::instance().record(context_, std::move(span));
}

ScopedPhase::~ScopedPhase() { finish(); }

}  // namespace apio::obs::trace
