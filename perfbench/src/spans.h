#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Aggregate of every span sharing one name.
struct SpanStats {
  long long count = 0;
  double total_us = 0.0;
  /// Duration minus the part of it covered by child spans (the union of
  /// their intervals, so overlapping parallel children count once).
  double self_us = 0.0;
};

/// Groups recorded spans by name and computes each group's self time.
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<hlm::obs::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
