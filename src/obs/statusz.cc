#include "obs/statusz.h"

#include <sstream>

#include "obs/json.h"
#include "obs/percentiles.h"
#include "obs/profiler.h"

namespace hlm::obs {

namespace {

std::string RunIdOf(const MetricsSnapshot& metrics) {
  auto it = metrics.meta.find("run_id");
  if (it != metrics.meta.end()) return it->second;
  return TraceRecorder::Global().run_id();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

std::string RenderStatuszText(const MetricsSnapshot& metrics,
                              const std::vector<OpenSpanInfo>& open_spans,
                              const std::vector<FlightEntry>& flight_tail,
                              const WindowSummary& window) {
  std::ostringstream out;
  out << "==== hlm statusz ====\n";
  const std::string run_id = RunIdOf(metrics);
  if (!run_id.empty()) out << "run_id: " << run_id << "\n";
  out << "uptime_us: " << NowMicros() << "\n";

  out << "\n-- counters --\n";
  for (const auto& [name, value] : metrics.counters) {
    out << name << " " << value << "\n";
  }

  out << "\n-- gauges --\n";
  for (const auto& [name, value] : metrics.gauges) {
    out << name << " " << value << "\n";
  }

  out << "\n-- latency percentiles --\n";
  out << "name count p50 p90 p99 max\n";
  for (const auto& [name, histogram] : metrics.histograms) {
    if (!EndsWith(name, "_seconds")) continue;
    PercentileSummary summary = SummarizePercentiles(histogram);
    out << name << " " << histogram.count << " " << summary.p50 << " "
        << summary.p90 << " " << summary.p99 << " " << summary.max << "\n";
  }

  if (!window.empty()) {
    out << "\n-- windowed (last " << window.window_s << "s, covered "
        << window.covered_s << "s) --\n";
    out << "counter delta rate_per_s\n";
    for (const auto& [name, delta] : window.counter_deltas) {
      out << name << " " << delta << " " << window.Rate(name) << "\n";
    }
    out << "histogram count qps p50 p90 p99\n";
    for (const auto& [name, histogram] : window.histograms) {
      if (!EndsWith(name, "_seconds")) continue;
      HistogramSnapshot snapshot = histogram.ToSnapshot();
      PercentileSummary summary = SummarizePercentiles(snapshot);
      const double qps =
          window.covered_s > 0
              ? static_cast<double>(histogram.count) / window.covered_s
              : 0.0;
      out << name << " " << histogram.count << " " << qps << " "
          << summary.p50 << " " << summary.p90 << " " << summary.p99
          << "\n";
    }
  }

  out << "\n-- resource profile --\n";
  for (const auto& [key, value] : metrics.meta) {
    if (StartsWith(key, "profile.")) out << key << " = " << value << "\n";
  }

  out << "\n-- registry --\n";
  for (const auto& [key, value] : metrics.meta) {
    if (StartsWith(key, "serve.registry.")) {
      out << key << " = " << value << "\n";
    }
  }

  out << "\n-- meta --\n";
  for (const auto& [key, value] : metrics.meta) {
    if (StartsWith(key, "profile.") || StartsWith(key, "serve.registry.")) {
      continue;
    }
    out << key << " = " << value << "\n";
  }

  out << "\n-- open spans (" << open_spans.size() << ") --\n";
  out << "span_id parent_id depth tid started_us name\n";
  for (const OpenSpanInfo& span : open_spans) {
    out << span.span_id << " " << span.parent_id << " " << span.depth << " "
        << (span.thread_id % 1000000) << " " << span.start_us << " "
        << span.name << "\n";
  }

  out << "\n-- flight recorder tail (" << flight_tail.size() << ") --\n";
  out << "seq kind level tid span_id ts_us name detail\n";
  for (const FlightEntry& entry : flight_tail) {
    out << entry.seq << " "
        << (entry.kind == FlightEntry::Kind::kSpan ? "span" : "event") << " "
        << entry.level << " " << (entry.thread_id % 1000000) << " "
        << entry.span_id << " " << entry.ts_us << " " << entry.name << " "
        << (entry.detail.empty() ? "{}" : entry.detail) << "\n";
  }
  return out.str();
}

std::string RenderStatuszJson(const MetricsSnapshot& metrics,
                              const std::vector<OpenSpanInfo>& open_spans,
                              const std::vector<FlightEntry>& flight_tail,
                              const WindowSummary& window) {
  JsonWriter json;
  json.BeginObject().Key("run_id").String(RunIdOf(metrics));
  json.Key("uptime_us").Number(NowMicros());

  json.Key("window").BeginObject();
  json.Key("window_s").Number(window.window_s);
  json.Key("covered_s").Number(window.covered_s);
  json.Key("counter_deltas").BeginObject();
  for (const auto& [name, delta] : window.counter_deltas) {
    json.Key(name).Int(delta);
  }
  json.EndObject().Key("counter_rates").BeginObject();
  for (const auto& [name, _] : window.counter_deltas) {
    json.Key(name).Number(window.Rate(name));
  }
  json.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, histogram] : window.histograms) {
    PercentileSummary summary = SummarizePercentiles(histogram.ToSnapshot());
    const double qps =
        window.covered_s > 0
            ? static_cast<double>(histogram.count) / window.covered_s
            : 0.0;
    json.Key(name).BeginObject().Key("count").Int(histogram.count);
    json.Key("qps").Number(qps).Key("p50").Number(summary.p50);
    json.Key("p90").Number(summary.p90).Key("p99").Number(summary.p99);
    json.EndObject();
  }
  json.EndObject().EndObject();

  json.Key("percentiles").BeginObject();
  for (const auto& [name, histogram] : metrics.histograms) {
    if (!EndsWith(name, "_seconds")) continue;
    PercentileSummary summary = SummarizePercentiles(histogram);
    json.Key(name).BeginObject().Key("count").Int(histogram.count);
    json.Key("p50").Number(summary.p50).Key("p90").Number(summary.p90);
    json.Key("p99").Number(summary.p99).Key("max").Number(summary.max);
    json.EndObject();
  }
  json.EndObject();

  json.Key("open_spans").BeginArray();
  for (const OpenSpanInfo& span : open_spans) {
    json.BeginObject().Key("span_id").Int(span.span_id);
    json.Key("parent_id").Int(span.parent_id).Key("depth").Int(span.depth);
    json.Key("tid").Int(static_cast<long long>(span.thread_id % 1000000));
    json.Key("started_us").Number(span.start_us);
    json.Key("name").String(span.name).EndObject();
  }
  json.EndArray();

  json.Key("flight_tail").BeginArray();
  for (const FlightEntry& entry : flight_tail) {
    json.BeginObject().Key("seq").Int(static_cast<long long>(entry.seq));
    json.Key("kind").String(
        entry.kind == FlightEntry::Kind::kSpan ? "span" : "event");
    json.Key("level").String(entry.level);
    json.Key("tid").Int(static_cast<long long>(entry.thread_id % 1000000));
    json.Key("span_id").Int(entry.span_id).Key("ts_us").Number(entry.ts_us);
    json.Key("name").String(entry.name);
    json.Key("detail").Raw(entry.detail.empty() ? "{}" : entry.detail);
    json.EndObject();
  }
  json.EndArray();

  // The full metrics document (meta + counters + gauges + histograms)
  // as produced by MetricsSnapshot::ToJson, embedded verbatim.
  json.Key("metrics").Raw(metrics.ToJson());
  return json.EndObject().Take();
}

namespace {

// Gathers the three live parts with profiler meta attached.
struct LiveParts {
  MetricsSnapshot metrics;
  std::vector<OpenSpanInfo> open_spans;
  std::vector<FlightEntry> flight_tail;
  WindowSummary window;
};

LiveParts CollectLive(const StatuszOptions& options) {
  LiveParts parts;
  ResourceProfiler::Global().AttachTo(&MetricsRegistry::Global());
  parts.metrics = MetricsRegistry::Global().Snapshot();
  parts.open_spans = TraceRecorder::Global().OpenSpans();
  if (parts.open_spans.size() > options.max_open_spans) {
    parts.open_spans.resize(options.max_open_spans);
  }
  parts.flight_tail = FlightRecorder::Global().Tail(options.flight_tail);
  parts.window = TimeSeriesCollector::Global().Summarize(NowMicros() / 1e6,
                                                         options.window_s);
  return parts;
}

}  // namespace

std::string StatuszText(const StatuszOptions& options) {
  LiveParts parts = CollectLive(options);
  return RenderStatuszText(parts.metrics, parts.open_spans,
                           parts.flight_tail, parts.window);
}

std::string StatuszJson(const StatuszOptions& options) {
  LiveParts parts = CollectLive(options);
  return RenderStatuszJson(parts.metrics, parts.open_spans,
                           parts.flight_tail, parts.window);
}

}  // namespace hlm::obs
