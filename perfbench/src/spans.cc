#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<hlm::obs::TraceEvent>& events) {
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const hlm::obs::TraceEvent& event : events) {
    if (event.parent_id != 0) {
      children[event.parent_id].emplace_back(
          event.start_us, event.start_us + event.duration_us);
    }
  }
  std::map<std::string, SpanStats> stats;
  for (const hlm::obs::TraceEvent& event : events) {
    const double begin = event.start_us;
    const double end = event.start_us + event.duration_us;
    double covered = 0.0;
    auto it = children.find(event.span_id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& spans = it->second;
      std::sort(spans.begin(), spans.end());
      double reach = begin;
      for (auto [child_begin, child_end] : spans) {
        child_begin = std::max(child_begin, reach);
        child_end = std::min(child_end, end);
        if (child_end > child_begin) {
          covered += child_end - child_begin;
          reach = child_end;
        }
      }
    }
    SpanStats& s = stats[event.name];
    ++s.count;
    s.total_us += event.duration_us;
    s.self_us += event.duration_us - covered;
  }
  return stats;
}

}  // namespace perfbench
