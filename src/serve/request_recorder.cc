#include "serve/request_recorder.h"

#include "obs/events.h"

namespace hlm::serve {

namespace {

/// The endpoint table, indexed by Route. kOther (last) has no path.
struct RouteEntry {
  const char* name;
  const char* path;
};
constexpr RouteEntry kRoutes[kNumRoutes] = {
    {"recommend", "/v1/recommend"}, {"similar", "/v1/similar"},
    {"topics", "/v1/topics"},       {"healthz", "/healthz"},
    {"statusz", "/statusz"},        {"metricsz", "/metricsz"},
    {"other", nullptr},
};

}  // namespace

const char* RouteName(Route route) {
  return kRoutes[static_cast<size_t>(route)].name;
}

Route RouteForPath(const std::string& path) {
  for (size_t i = 0; i < kNumRoutes; ++i) {
    if (kRoutes[i].path != nullptr && path == kRoutes[i].path) {
      return static_cast<Route>(i);
    }
  }
  return Route::kOther;
}

RequestRecorder::RequestRecorder() {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (size_t i = 0; i < kNumRoutes; ++i) {
    // Names are assembled from the fixed route table; every one follows
    // the hlm.<subsystem>.<metric>_total / _seconds convention.
    const std::string prefix =
        std::string("hlm.serve.http.") + RouteName(static_cast<Route>(i));
    auto route_counter = [&metrics, &prefix](const std::string& suffix) {
      const std::string name = prefix + suffix;
      return metrics.GetCounter(name);
    };
    RouteMetrics& cells = routes_[i];
    cells.requests = route_counter(".requests_total");
    cells.errors = route_counter(".errors_total");
    cells.status_2xx = route_counter(".status_2xx_total");
    cells.status_4xx = route_counter(".status_4xx_total");
    cells.status_5xx = route_counter(".status_5xx_total");
    const std::string seconds_name = prefix + ".request_seconds";
    cells.seconds = metrics.GetHistogram(seconds_name);
  }
  kept_ = metrics.GetCounter("hlm.serve.trace.kept_total");
  slow_ = metrics.GetCounter("hlm.serve.trace.slow_total");
  sampled_ = metrics.GetCounter("hlm.serve.trace.sampled_total");
}

void RequestRecorder::Record(Route route, int status_code, double elapsed_s,
                             int generation) {
  const RouteMetrics& cells = routes_[static_cast<size_t>(route)];
  cells.requests->Increment();
  cells.seconds->Observe(elapsed_s);
  const bool error = status_code >= 400;
  if (error) cells.errors->Increment();
  if (status_code >= 200 && status_code < 300) {
    cells.status_2xx->Increment();
  } else if (status_code >= 400 && status_code < 500) {
    cells.status_4xx->Increment();
  } else if (status_code >= 500) {
    cells.status_5xx->Increment();
  }

  const bool slow = elapsed_s >= kSlowRequestSeconds;
  if (slow) slow_->Increment();
  // The ordinal pre-increments, so the 1-in-n sample fires on request
  // kTraceSampleEvery, 2*kTraceSampleEvery, ... — never on the very
  // first request, which keeps keep-decisions assertable in tests.
  const long long ordinal =
      ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool sampled = ordinal % kTraceSampleEvery == 0;
  if (!slow && !error && !sampled) return;
  kept_->Increment();
  if (sampled && !slow && !error) sampled_->Increment();
  HLM_EVENT_AT(
      error ? obs::EventLevel::kWarning : obs::EventLevel::kInfo,
      "serve.http.request",
      {{"route", RouteName(route)},
       {"code", status_code},
       {"seconds", elapsed_s},
       {"generation", generation},
       {"slow", slow}});
}

}  // namespace hlm::serve
