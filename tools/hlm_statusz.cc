// hlm_statusz: renders the /statusz introspection page from
// observability dump files, and self-checks the crash-dump path.
//
// Usage:
//   hlm_statusz render --metrics PATH [--events PATH]
//                      [--format text|json] [--tail N]
//     Renders the same sections a live process would serve: metrics,
//     latency percentiles, resource profile, registry meta, and (when
//     --events points at a JSONL file written via --events_out) the
//     newest N events as the flight tail. Open spans are a live-only
//     section and render empty here.
//
//   hlm_statusz selfcheck-crash --dir DIR
//     Arms the crash handler, emits a few events, then fails an
//     HLM_CHECK on purpose. The process aborts (nonzero exit) after
//     writing DIR/hlm-crash-selfcheck.json; scripts/tier1.sh asserts
//     the dump exists and parses. Exiting ZERO from this command means
//     the crash path is broken.
//
//   hlm_statusz promcheck --file PATH
//     Validates a Prometheus text-exposition payload (a /metricsz
//     scrape) with obs::ValidateExposition; exits non-zero with the
//     offending line on any syntax or histogram-invariant violation.
//     scripts/tier1.sh runs this against the live daemon's scrape.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/status.h"
#include "obs/events.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "obs/trace.h"

namespace {

using hlm::Status;

hlm::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Internal("read error: " + path);
  return buffer.str();
}

/// Parses events JSONL (Event::ToJsonLine) into flight-tail entries,
/// keeping the newest `tail`. Lines that do not parse as a JSON object
/// are skipped and missing fields take defaults, so a mixed or
/// hand-edited file still renders.
std::vector<hlm::obs::FlightEntry> EventsToTail(const std::string& jsonl,
                                                size_t tail) {
  std::vector<hlm::obs::FlightEntry> entries;
  std::istringstream lines(jsonl);
  std::string line;
  uint64_t seq = 0;
  while (std::getline(lines, line)) {
    hlm::Result<hlm::obs::JsonValue> event = hlm::obs::JsonValue::Parse(line);
    if (!event.ok() || !event->is_object()) continue;
    // Ids outside the int64 range (or NaN) read as 0 rather than
    // overflowing the conversion.
    auto integer = [&event](const char* key) -> long long {
      const hlm::obs::JsonValue* value = event->Find(key);
      const double number = value == nullptr ? 0.0 : value->AsNumber();
      return std::fabs(number) < 9.2e18 ? static_cast<long long>(number) : 0;
    };
    hlm::obs::FlightEntry entry;
    entry.kind = hlm::obs::FlightEntry::Kind::kEvent;
    entry.seq = ++seq;
    if (const hlm::obs::JsonValue* ts_us = event->Find("ts_us")) {
      entry.ts_us = ts_us->AsNumber();
    }
    entry.thread_id = static_cast<uint64_t>(integer("tid"));
    entry.span_id = integer("span_id");
    if (const hlm::obs::JsonValue* name = event->Find("name")) {
      entry.name = name->AsString();
    }
    const hlm::obs::JsonValue* level = event->Find("level");
    entry.level = level == nullptr ? "info" : level->AsString("info");
    const hlm::obs::JsonValue* attrs = event->Find("attrs");
    if (attrs != nullptr && attrs->is_object()) {
      entry.detail = hlm::obs::JsonWriter().Value(*attrs).Take();
    }
    entries.push_back(std::move(entry));
  }
  if (entries.size() > tail) {
    entries.erase(entries.begin(),
                  entries.begin() +
                      static_cast<std::ptrdiff_t>(entries.size() - tail));
  }
  return entries;
}

Status RunRender(const std::string& metrics_path,
                 const std::string& events_path, const std::string& format,
                 size_t tail) {
  HLM_ASSIGN_OR_RETURN(std::string metrics_json, ReadFile(metrics_path));
  HLM_ASSIGN_OR_RETURN(hlm::obs::MetricsSnapshot metrics,
                       hlm::obs::MetricsSnapshot::FromJson(metrics_json));
  std::vector<hlm::obs::FlightEntry> flight_tail;
  if (!events_path.empty()) {
    HLM_ASSIGN_OR_RETURN(std::string jsonl, ReadFile(events_path));
    flight_tail = EventsToTail(jsonl, tail);
  }
  const std::string rendered =
      format == "json"
          ? hlm::obs::RenderStatuszJson(metrics, {}, flight_tail) + "\n"
          : hlm::obs::RenderStatuszText(metrics, {}, flight_tail);
  std::cout << rendered;
  return Status::OK();
}

int RunSelfcheckCrash(const std::string& dir) {
  hlm::obs::TraceRecorder::Global().SetRunId("selfcheck");
  hlm::obs::TraceRecorder::Global().Enable();
  hlm::obs::SetCrashDumpDir(dir);
  hlm::obs::InstallCrashHandler();
  // Leave footprints for the dump: a span close and a couple of events.
  {
    hlm::obs::TraceSpan span("statusz.selfcheck");
    HLM_EVENT("statusz.selfcheck.start", {{"dir", dir}});
  }
  HLM_EVENT("statusz.selfcheck.arm", {{"expected_dump", true}});
  HLM_CHECK(false) << "hlm_statusz selfcheck-crash: deliberate failure "
                      "to exercise the crash-dump path";
  // Unreachable: HLM_CHECK(false) aborts after the hook dumps.
  return 0;
}

Status RunPromcheck(const std::string& file) {
  HLM_ASSIGN_OR_RETURN(std::string payload, ReadFile(file));
  return hlm::obs::ValidateExposition(payload);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: hlm_statusz render --metrics PATH [--events PATH]\n"
      "                          [--format text|json] [--tail N]\n"
      "       hlm_statusz selfcheck-crash --dir DIR\n"
      "       hlm_statusz promcheck --file PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  std::string metrics_path;
  std::string events_path;
  std::string format = "text";
  long long tail = 32;
  std::string dir = ".";
  std::string file;

  hlm::FlagSet flags;
  flags.AddString("metrics", &metrics_path, "metrics snapshot JSON file");
  flags.AddString("events", &events_path, "events JSONL file (optional)");
  flags.AddString("format", &format, "output format: text or json");
  flags.AddInt64("tail", &tail, "flight-tail entries to keep");
  flags.AddString("dir", &dir, "crash-dump directory for selfcheck-crash");
  flags.AddString("file", &file, "exposition payload for promcheck");
  Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (format != "text" && format != "json") return Usage();
  if (tail < 0) return Usage();

  if (command == "render") {
    if (metrics_path.empty()) return Usage();
    Status status = RunRender(metrics_path, events_path, format,
                              static_cast<size_t>(tail));
    if (!status.ok()) {
      std::fprintf(stderr, "hlm_statusz render: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "selfcheck-crash") {
    return RunSelfcheckCrash(dir);
  }
  if (command == "promcheck") {
    if (file.empty()) return Usage();
    Status status = RunPromcheck(file);
    if (!status.ok()) {
      std::fprintf(stderr, "hlm_statusz promcheck: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stdout, "hlm_statusz promcheck: %s ok\n", file.c_str());
    return 0;
  }
  return Usage();
}
