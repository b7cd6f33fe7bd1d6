#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>

#include "common/logging.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace hlm::obs {

namespace {

std::mutex g_dump_dir_mu;
std::string g_dump_dir = ".";  // guarded by g_dump_dir_mu

void DumpOnFatal() {
  const std::string path = CrashDumpPath();
  Status status = FlightRecorder::Global().DumpToFile(path);
  // The process is already inside a fatal log; report with bare stderr
  // instead of re-entering the logger.
  if (status.ok()) {
    std::fprintf(stderr, "[FATAL] flight recorder dumped to %s\n",
                 path.c_str());
  } else {
    std::fprintf(stderr, "[FATAL] flight recorder dump failed: %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace

FlightRecorder::FlightRecorder() {
  for (Stripe& stripe : stripes_) stripe.ring.reserve(kPerStripe);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(FlightEntry entry) {
  entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[entry.thread_id % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.ring.size() < kPerStripe) {
    stripe.ring.push_back(std::move(entry));
  } else {
    stripe.ring[stripe.next] = std::move(entry);
    stripe.next = (stripe.next + 1) % kPerStripe;
  }
}

void FlightRecorder::RecordEvent(const Event& event) {
  FlightEntry entry;
  entry.kind = FlightEntry::Kind::kEvent;
  entry.ts_us = event.ts_us;
  entry.name = event.name;
  entry.level = EventLevelName(event.level);
  entry.thread_id = event.thread_id;
  entry.span_id = event.span_id;
  entry.detail = event.AttrsJson();
  Record(std::move(entry));
}

void FlightRecorder::RecordSpanClose(const TraceEvent& event) {
  FlightEntry entry;
  entry.kind = FlightEntry::Kind::kSpan;
  entry.ts_us = event.start_us;
  entry.name = event.name;
  entry.level = "span";
  entry.thread_id = event.thread_id;
  entry.span_id = event.span_id;
  JsonWriter detail;
  detail.BeginObject().Key("duration_us").Number(event.duration_us);
  detail.Key("parent_id").Int(event.parent_id).Key("depth").Int(event.depth);
  entry.detail = detail.EndObject().Take();
  Record(std::move(entry));
}

std::vector<FlightEntry> FlightRecorder::Tail(size_t max_entries) const {
  std::vector<FlightEntry> merged;
  merged.reserve(kStripes * kPerStripe);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    merged.insert(merged.end(), stripe.ring.begin(), stripe.ring.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const FlightEntry& a, const FlightEntry& b) {
              return a.seq < b.seq;
            });
  if (merged.size() > max_entries) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<ptrdiff_t>(max_entries));
  }
  return merged;
}

std::string FlightRecorder::ToJson(size_t max_entries) const {
  JsonWriter json;
  json.BeginObject().Key("run_id").String(TraceRecorder::Global().run_id());
  json.Key("dumped_at_us").Number(NowMicros());
  json.Key("entries").BeginArray();
  for (const FlightEntry& e : Tail(max_entries)) {
    json.BeginObject().Key("kind").String(
        e.kind == FlightEntry::Kind::kSpan ? "span" : "event");
    json.Key("seq").Int(static_cast<long long>(e.seq));
    json.Key("ts_us").Number(e.ts_us).Key("name").String(e.name);
    json.Key("level").String(e.level);
    json.Key("tid").Int(static_cast<long long>(e.thread_id % 1000000));
    json.Key("span_id").Int(e.span_id);
    json.Key("detail").Raw(e.detail.empty() ? "{}" : e.detail);
    json.EndObject();
  }
  return json.EndArray().EndObject().Take();
}

Status FlightRecorder::DumpToFile(const std::string& path,
                                  size_t max_entries) const {
  // Crash-path diagnostic, not a snapshot: written once on the way to
  // abort(), never reloaded as state.
  // hlm-lint: allow(no-raw-persist-write)
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for write: " + path);
  out << ToJson(max_entries) << "\n";
  out.flush();
  if (!out) return Status::DataLoss("short write: " + path);
  return Status::OK();
}

void FlightRecorder::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.ring.clear();
    stripe.next = 0;
  }
}

void SetCrashDumpDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_dump_dir_mu);
  g_dump_dir = dir.empty() ? "." : dir;
}

std::string CrashDumpPath() {
  std::string run_id = TraceRecorder::Global().run_id();
  if (run_id.empty()) run_id = "unknown";
  std::lock_guard<std::mutex> lock(g_dump_dir_mu);
  return g_dump_dir + "/hlm-crash-" + run_id + ".json";
}

void InstallCrashHandler() { SetFatalHook(&DumpOnFatal); }

}  // namespace hlm::obs
