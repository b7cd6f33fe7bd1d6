#ifndef HLM_OBS_TRACE_H_
#define HLM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace hlm::obs {

/// Microseconds since process start (steady clock). One time base shared
/// by spans, events, and the flight recorder so their records merge.
double NowMicros();

/// Stable identifier for the calling thread (hash of std::thread::id,
/// no thread is spawned). Used as the "tid" field of spans and events.
uint64_t CurrentThreadId();

/// Registers a human-readable name for the calling thread. Names show up
/// as chrome://tracing "M" (metadata) events and in Statusz open-span
/// tables. The pool registers "hlm-worker-<k>"; benches register
/// "hlm-main".
void SetCurrentThreadName(const std::string& name);

/// One finished span, chrome://tracing "complete event" shaped.
struct TraceEvent {
  std::string name;
  std::string category;
  double start_us = 0.0;  ///< microseconds since process start
  double duration_us = 0.0;
  uint64_t thread_id = 0;
  int64_t span_id = 0;
  int64_t parent_id = 0;  ///< 0 for root spans
  int depth = 0;          ///< 0 for root spans
};

/// A span that is currently open (constructed, not yet destroyed).
/// Statusz renders these so a hung run shows what it was doing.
struct OpenSpanInfo {
  int64_t span_id = 0;
  int64_t parent_id = 0;
  std::string name;
  double start_us = 0.0;
  uint64_t thread_id = 0;
  int depth = 0;
};

/// Capture of "where am I in the span tree" that can be handed to
/// another thread. ParallelFor forks one context per region (plus one
/// per item) and adopts it on whichever thread runs the item, so spans
/// opened inside workers nest under the caller's span instead of
/// becoming orphan roots.
///
/// Identity is a deterministic path hash: every fork consumes an
/// ordinal from the caller's frame (caller code is serial, so ordinals
/// are issued in program order) or derives from the item index, never
/// from a global counter or the scheduling order. The same program
/// therefore produces the same span ids at every thread count.
struct TraceContext {
  int64_t span_id = 0;  ///< innermost open span at capture (0 = root)
  uint64_t path = 0;    ///< deterministic path hash for children
  int depth = 0;        ///< depth a child span adopts
  bool active = false;  ///< false when tracing was disabled at capture

  /// Snapshot of the calling thread's innermost frame; does not consume
  /// an ordinal (events use this to attach a span id).
  static TraceContext Current();

  /// Forks a context for one parallel region, consuming one child
  /// ordinal from the calling thread's innermost frame. Inactive (all
  /// zero) when tracing is disabled, so the disabled path stays one
  /// atomic load.
  static TraceContext ForkRegion();

  /// Derives the context for item `ordinal` of this region. Item
  /// identity depends only on the ordinal (not on chunk shape or
  /// claiming thread), which is what keeps span ids invariant to the
  /// thread count.
  TraceContext ForkItem(uint64_t ordinal) const;
};

/// RAII adoption of a forked context: while alive, spans opened on this
/// thread become children of ctx.span_id with ctx's deterministic path.
/// A no-op for inactive contexts.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  bool pushed_;
};

/// Process-wide collector for trace spans. Disabled by default: span
/// construction then costs one relaxed atomic load and (when a histogram
/// is attached) one clock read. Enable() starts collecting; the buffer
/// is exported in chrome://tracing JSON array format (load via
/// chrome://tracing or https://ui.perfetto.dev).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(TraceEvent event);

  /// Tags every subsequent export with a run identifier (see
  /// obs::ComputeRunId), carried as "otherData.run_id". Empty clears
  /// the tag. Survives Clear(): the run identity outlives any one batch
  /// of spans.
  void SetRunId(const std::string& run_id);
  std::string run_id() const;

  /// Copy of everything recorded so far.
  std::vector<TraceEvent> Events() const;

  /// Clears recorded events, the open-span table, and — for the calling
  /// thread — the root-span ordinal counter, so a workload replayed
  /// after Clear() reproduces the same span ids (the property the
  /// cross-thread determinism tests rely on).
  void Clear();

  /// Spans currently open, ordered by span id.
  std::vector<OpenSpanInfo> OpenSpans() const;

  /// Thread-name registrations (tid -> name), for trace metadata.
  std::map<uint64_t, std::string> ThreadNames() const;
  void SetThreadName(uint64_t thread_id, const std::string& name);

  /// The chrome://tracing object form, which Perfetto also reads:
  /// {"otherData":{"run_id":...},"traceEvents":[...]}.
  std::string ToChromeJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  friend class TraceSpan;
  void RecordOpen(const OpenSpanInfo& span);
  void RecordClose(int64_t span_id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::string run_id_;
  std::vector<TraceEvent> events_;
  std::map<int64_t, OpenSpanInfo> open_spans_;
  std::map<uint64_t, std::string> thread_names_;
};

/// RAII nested span. While alive it is the parent of any span opened on
/// the same thread, giving chrome-trace nesting without explicit plumbing.
/// Optionally records its wall time into a histogram (also when tracing
/// is disabled), so one object serves both the metrics and trace paths.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, Histogram* histogram = nullptr,
                     std::string category = "hlm");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  int64_t span_id() const { return span_id_; }
  int64_t parent_id() const { return parent_id_; }
  int depth() const { return depth_; }

  /// Nesting depth of the current thread's innermost open span; 0 when
  /// no span is open.
  static int CurrentDepth();

 private:
  std::string name_;
  std::string category_;
  Histogram* histogram_;
  bool recording_;
  int64_t span_id_ = 0;
  int64_t parent_id_ = 0;
  int depth_ = 0;
  uint64_t path_ = 0;
  double start_us_ = 0.0;
};

}  // namespace hlm::obs

#endif  // HLM_OBS_TRACE_H_
