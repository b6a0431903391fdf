// Per-request trace spans: a bounded, allocation-light timeline of what one
// EnumerationRequest did, layer by layer.
//
// Usage pattern (all from the request thread):
//
//   telemetry::Trace trace;                      // per-request buffer
//   {
//     telemetry::ScopedTraceTarget target(&trace);   // install thread_local
//     telemetry::TraceSpan root("api", "enumerate"); // RAII spans nest
//     ... the work; any code on this thread can open TraceSpan ...
//   }
//   result.trace = std::move(trace);             // after target uninstalls
//
// TraceSpan reads a thread_local active-trace pointer, so instrumentation
// sites need no plumbing — storage code deep under Session::Enumerate lands
// its spans in the right request automatically. The flip side: spans are
// recorded only on the thread that installed the target; work a request
// hands to another thread is aggregated by the registry's
// counters/histograms instead of traced.
//
// The buffer is bounded (kDefaultMaxSpans); once full, new spans still time
// themselves but are dropped, counted in dropped(). Span names and layers
// must be string LITERALS (or otherwise outlive the trace) — records store
// the pointers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hypre/telemetry/telemetry.h"

namespace hypre {
namespace telemetry {

struct TraceSpanRecord {
  const char* name;
  const char* layer;
  /// Index of the enclosing span in Trace::spans(), -1 for roots.
  int32_t parent;
  /// Nesting depth: 0 for roots.
  int32_t depth;
  /// Start offset from the trace's origin, monotonic clock.
  uint64_t start_ns;
  /// 0 while the span is open (or for zero-duration notes).
  uint64_t duration_ns;
};

/// \brief One request's span buffer. Movable and copyable (span records are
/// plain values) so it can ride inside EnumerationResult; move or copy only
/// AFTER the ScopedTraceTarget pointing at it is gone.
class Trace {
 public:
  static constexpr size_t kDefaultMaxSpans = 256;

  explicit Trace(size_t max_spans = kDefaultMaxSpans)
      : max_spans_(max_spans),
        origin_(std::chrono::steady_clock::now()) {}

  const std::vector<TraceSpanRecord>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  /// \brief Spans that arrived after the buffer filled.
  uint64_t dropped() const { return dropped_; }

  /// \brief Nanoseconds since this trace was constructed.
  uint64_t NowNs() const {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - origin_)
                        .count());
  }

  /// \brief Opens a span; returns its index or -1 when the buffer is full.
  int32_t Open(const char* layer, const char* name);
  /// \brief Closes the span at `index` (no-op for -1) and restores its
  /// parent as the open span.
  void Close(int32_t index);
  /// \brief Records an instantaneous event at the current nesting level.
  void Note(const char* layer, const char* name);

  /// \brief True if any span has the given layer — acceptance checks.
  bool HasLayer(const char* layer) const;

  /// \brief {"spans":[{name,layer,parent,depth,start_ns,duration_ns}...],
  /// "dropped":N} — machine-readable; shell pretty-printing is separate.
  std::string ToJson() const;

 private:
  size_t max_spans_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceSpanRecord> spans_;
  // Index of the innermost open span; -1 at top level.
  int32_t current_ = -1;
  uint64_t dropped_ = 0;
};

/// \brief The trace new spans on this thread land in, or null.
Trace* ActiveTrace();

/// \brief Installs `trace` as this thread's active trace for the scope,
/// restoring whatever was active before on destruction. Pass null to
/// suppress tracing in a sub-scope.
class ScopedTraceTarget {
 public:
  explicit ScopedTraceTarget(Trace* trace);
  ~ScopedTraceTarget();
  ScopedTraceTarget(const ScopedTraceTarget&) = delete;
  ScopedTraceTarget& operator=(const ScopedTraceTarget&) = delete;

 private:
  Trace* previous_;
};

/// \brief RAII span against the thread's active trace. Free when no trace
/// is installed (one thread_local read), absent entirely in
/// -DHYPRE_TELEMETRY=OFF builds.
class TraceSpan {
 public:
  TraceSpan(const char* layer, const char* name) {
#if HYPRE_TELEMETRY_ENABLED
    trace_ = ActiveTrace();
    if (trace_ != nullptr) index_ = trace_->Open(layer, name);
#else
    (void)layer;
    (void)name;
#endif
  }
  ~TraceSpan() {
#if HYPRE_TELEMETRY_ENABLED
    if (trace_ != nullptr) trace_->Close(index_);
#endif
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
#if HYPRE_TELEMETRY_ENABLED
  Trace* trace_ = nullptr;
  int32_t index_ = -1;
#endif
};

/// \brief Instantaneous event on the thread's active trace.
inline void TraceNote(const char* layer, const char* name) {
#if HYPRE_TELEMETRY_ENABLED
  Trace* t = ActiveTrace();
  if (t != nullptr) t->Note(layer, name);
#else
  (void)layer;
  (void)name;
#endif
}

}  // namespace telemetry
}  // namespace hypre
