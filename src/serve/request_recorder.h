#ifndef HLM_SERVE_REQUEST_RECORDER_H_
#define HLM_SERVE_REQUEST_RECORDER_H_

#include <array>
#include <atomic>
#include <string>

#include "obs/metrics.h"

namespace hlm::serve {

/// The routes the serving endpoints break metrics down by. kOther
/// absorbs 404s and anything unrouted, so the per-route series cover
/// every request.
enum class Route {
  kRecommend = 0,
  kSimilar,
  kTopics,
  kHealthz,
  kStatusz,
  kMetricsz,
  kOther,
};
inline constexpr size_t kNumRoutes = 7;

/// Stable lowercase route label ("recommend", ..., "other") used in
/// metric names and trace attributes.
const char* RouteName(Route route);

/// Maps a request path onto its route (exact match on the endpoint
/// table; everything else is kOther).
Route RouteForPath(const std::string& path);

/// Tail-sampling policy: requests at or above kSlowRequestSeconds are
/// always kept (and counted in hlm.serve.trace.slow_total), and so is
/// one in kTraceSampleEvery of the fast, successful rest.
inline constexpr double kSlowRequestSeconds = 0.25;
inline constexpr long long kTraceSampleEvery = 100;

/// Per-request accounting for the serving handler path: per-route
/// counters/histograms plus the tail-sampled wide event feeding the
/// flight recorder.
///
/// Lock discipline: src/serve may not hold mutexes on the request path,
/// so the recorder pre-registers every (route x metric) cell at
/// construction and afterwards touches only the cached lock-free
/// metric handles and one atomic sampling ordinal.
///
/// Metric layout, all pre-registered (zero-valued cells are visible
/// from the first scrape, keeping /metricsz schemas stable):
///   hlm.serve.http.<route>.requests_total
///   hlm.serve.http.<route>.errors_total
///   hlm.serve.http.<route>.status_2xx_total   (.. 4xx, 5xx)
///   hlm.serve.http.<route>.request_seconds
///   hlm.serve.trace.kept_total / slow_total / sampled_total
///
/// Tail sampling: a request is kept when it is slow
/// (>= kSlowRequestSeconds), failed (status >= 400), or lands on the
/// 1-in-kTraceSampleEvery ordinal sample; kept requests emit the
/// "serve.http.request" wide event (warning level for errors), which the
/// event log mirrors into the flight recorder — so /statusz tails and
/// crash dumps always contain the slowest and the failing recent
/// requests, without per-request log volume.
class RequestRecorder {
 public:
  RequestRecorder();
  RequestRecorder(const RequestRecorder&) = delete;
  RequestRecorder& operator=(const RequestRecorder&) = delete;

  /// Records one finished request. `generation` is the serving bundle
  /// generation that answered it (-1 when no bundle was involved).
  void Record(Route route, int status_code, double elapsed_s,
              int generation);

 private:
  struct RouteMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* status_2xx = nullptr;
    obs::Counter* status_4xx = nullptr;
    obs::Counter* status_5xx = nullptr;
    obs::Histogram* seconds = nullptr;
  };

  std::array<RouteMetrics, kNumRoutes> routes_;
  obs::Counter* kept_ = nullptr;
  obs::Counter* slow_ = nullptr;
  obs::Counter* sampled_ = nullptr;
  std::atomic<long long> ordinal_{0};
};

}  // namespace hlm::serve

#endif  // HLM_SERVE_REQUEST_RECORDER_H_
