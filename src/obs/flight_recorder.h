#ifndef HLM_OBS_FLIGHT_RECORDER_H_
#define HLM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace hlm::obs {

struct Event;       // obs/events.h
struct TraceEvent;  // obs/trace.h

/// One flight-recorder record: a wide event or a closed span, reduced
/// to the fields a postmortem needs. `detail` is a pre-serialized JSON
/// object fragment (event attrs, or span duration/parent).
struct FlightEntry {
  enum class Kind { kEvent, kSpan };
  Kind kind = Kind::kEvent;
  uint64_t seq = 0;  ///< global admission order (merge key)
  double ts_us = 0.0;
  std::string name;
  std::string level;  ///< event level, or "span"
  uint64_t thread_id = 0;
  int64_t span_id = 0;
  std::string detail;  ///< JSON object, e.g. {"sweep":3}
};

/// Fixed-size, lock-striped ring buffer of the last ~N events and span
/// closes. Always on: writes touch one stripe mutex and never allocate
/// beyond the entry's strings, so it is cheap enough to leave armed for
/// the whole run. HLM_CHECK failures and fatal logs dump it to
/// hlm-crash-<run_id>.json (see InstallCrashHandler), turning an
/// invariant failure into a postmortem with the run's last moves.
class FlightRecorder {
 public:
  static constexpr size_t kStripes = 8;      ///< keyed by thread id
  static constexpr size_t kPerStripe = 256;  ///< ring capacity per stripe

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  static FlightRecorder& Global();

  void Record(FlightEntry entry);
  void RecordEvent(const Event& event);
  void RecordSpanClose(const TraceEvent& event);

  /// The newest `max_entries` records across all stripes, oldest first
  /// (merged by admission order).
  std::vector<FlightEntry> Tail(size_t max_entries) const;

  /// {"run_id": ..., "entries": [...]} over the newest max_entries.
  std::string ToJson(size_t max_entries = kStripes * kPerStripe) const;

  Status DumpToFile(const std::string& path,
                    size_t max_entries = kStripes * kPerStripe) const;

  void Clear();

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<FlightEntry> ring;  ///< capacity kPerStripe once warm
    size_t next = 0;                ///< overwrite cursor
  };

  std::atomic<uint64_t> next_seq_{1};
  Stripe stripes_[kStripes];
};

/// Directory crash dumps are written to; default "." (the working
/// directory of the failing process).
void SetCrashDumpDir(const std::string& dir);

/// "<dump_dir>/hlm-crash-<run_id>.json", using the TraceRecorder run id
/// ("unknown" when none was set).
std::string CrashDumpPath();

/// Installs a fatal-log hook (common/logging SetFatalHook) that dumps
/// the flight recorder to CrashDumpPath() before the process aborts.
/// Idempotent. HLM_CHECK failures route through HLM_LOG(Fatal), so one
/// call covers both.
void InstallCrashHandler();

}  // namespace hlm::obs

#endif  // HLM_OBS_FLIGHT_RECORDER_H_
