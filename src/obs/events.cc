#include "obs/events.h"

#include <algorithm>
#include <fstream>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::obs {

namespace {

// Names past the kMaxNames cardinality cap collapse to this bucket so a
// name built from unbounded input (ids, paths) cannot grow the name set
// without bound.
const char kOverflowName[] = "obs.events.overflow";

}  // namespace

const char* EventLevelName(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug:
      return "debug";
    case EventLevel::kInfo:
      return "info";
    case EventLevel::kWarning:
      return "warn";
    case EventLevel::kError:
      return "error";
  }
  return "?";
}

std::string EventValue::ToJson() const {
  JsonWriter json;
  switch (kind_) {
    case Kind::kBool: json.Bool(bool_); break;
    case Kind::kInt: json.Int(int_); break;
    case Kind::kDouble: json.Number(double_); break;
    case Kind::kString: json.String(string_); break;
  }
  return json.Take();
}

std::string Event::AttrsJson() const {
  JsonWriter json;
  json.BeginObject();
  for (const auto& [key, value] : attrs) json.Key(key).Raw(value.ToJson());
  return json.EndObject().Take();
}

std::string Event::ToJsonLine() const {
  JsonWriter json;
  json.BeginObject().Key("ts_us").Number(ts_us);
  json.Key("level").String(EventLevelName(level)).Key("name").String(name);
  json.Key("tid").Int(static_cast<long long>(thread_id % 1000000));
  json.Key("span_id").Int(span_id).Key("attrs").Raw(AttrsJson());
  return json.EndObject().Take();
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Emit(
    EventLevel level, std::string name,
    std::initializer_list<std::pair<const char*, EventValue>> attrs) {
  if (!ShouldEmit(level)) return;

  Event event;
  event.ts_us = NowMicros();
  event.level = level;
  event.name = std::move(name);
  event.thread_id = CurrentThreadId();
  event.span_id = TraceContext::Current().span_id;
  event.attrs.reserve(std::min(attrs.size(), kMaxAttrs));
  for (const auto& [key, value] : attrs) {
    if (event.attrs.size() >= kMaxAttrs) break;
    event.attrs.emplace_back(key, value);
  }

  bool keep = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!seen_names_.contains(event.name)) {
      if (seen_names_.size() >= kMaxNames) event.name = kOverflowName;
      seen_names_.insert(event.name);
    }
    keep = buffer_.size() < kMaxBuffered;
    if (keep) buffer_.push_back(event);
  }

  static Counter* emitted_total =
      MetricsRegistry::Global().GetCounter("hlm.obs.events_total");
  emitted_total->Increment();
  if (!keep) {
    static Counter* dropped_total =
        MetricsRegistry::Global().GetCounter("hlm.obs.events_dropped_total");
    dropped_total->Increment();
  }

  // The flight recorder sees every gate-passing event, including ones
  // the bounded buffer discarded — its ring overwrites
  // oldest-first anyway, and crash dumps want the freshest context.
  FlightRecorder::Global().RecordEvent(event);
}

std::vector<Event> EventLog::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Event>(buffer_.begin(), buffer_.end());
}

Status EventLog::WriteJsonl(const std::string& path) const {
  std::vector<Event> events = Events();
  // Diagnostic export, not a snapshot: nothing reloads this file as
  // state, so a torn write costs one log, not a serving model.
  // hlm-lint: allow(no-raw-persist-write)
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for write: " + path);
  for (const Event& event : events) {
    out << event.ToJsonLine() << "\n";
  }
  if (!out) return Status::DataLoss("short write: " + path);
  return Status::OK();
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  seen_names_.clear();
}

}  // namespace hlm::obs
