#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "obs/errors.h"
#include "obs/json.h"
#include "obs/percentiles.h"

namespace hlm::obs {

namespace {

// CAS loops for the floating-point aggregates (std::atomic<double>
// fetch_add/min/max are not portable enough to rely on).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  HLM_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  HLM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
  buckets_ = std::make_unique<std::atomic<long long>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.bucket_counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snapshot.bucket_counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.min = snapshot.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  snapshot.max = snapshot.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return snapshot;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  HLM_CHECK_GT(start, 0.0);
  HLM_CHECK_GT(factor, 1.0);
  HLM_CHECK_GT(count, 0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& DefaultLatencyBounds() {
  // 1e-5 s .. ~335 s in 25 x2 steps: covers a Gibbs token update through
  // a full multi-minute training run.
  static const std::vector<double> kBuckets =
      ExponentialBuckets(1e-5, 2.0, 25);
  return kBuckets;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Referencing the installer here pulls errors.o (and its static
  // installer) into every binary that touches metrics, so common-layer
  // TrackError reporting is live before any snapshot I/O runs.
  EnsureErrorSinkInstalled();
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

void MetricsRegistry::SetMeta(const std::string& name,
                              const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_[name] = value;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.meta = meta_;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter json;
  json.BeginObject().Key("meta").BeginObject();
  for (const auto& [name, value] : meta) json.Key(name).String(value);
  json.EndObject().Key("counters").BeginObject();
  for (const auto& [name, value] : counters) json.Key(name).Int(value);
  json.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) json.Key(name).Number(value);
  json.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms) {
    PercentileSummary pct = SummarizePercentiles(h);
    json.Key(name).BeginObject();
    json.Key("count").Int(h.count);
    json.Key("sum").Number(h.sum);
    json.Key("min").Number(h.min);
    json.Key("max").Number(h.max);
    json.Key("mean").Number(h.Mean());
    json.Key("p50").Number(pct.p50);
    json.Key("p90").Number(pct.p90);
    json.Key("p99").Number(pct.p99);
    json.Key("bounds").BeginArray();
    for (double bound : h.bounds) json.Number(bound);
    json.EndArray().Key("bucket_counts").BeginArray();
    for (long long count : h.bucket_counts) json.Int(count);
    json.EndArray().EndObject();
  }
  json.EndObject().EndObject();
  return json.Take();
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream out;
  size_t width = 1;
  for (const auto& [name, _] : meta) width = std::max(width, name.size());
  for (const auto& [name, _] : counters) width = std::max(width, name.size());
  for (const auto& [name, _] : gauges) width = std::max(width, name.size());
  for (const auto& [name, _] : histograms) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : meta) {
    out << name << std::string(width - name.size(), ' ') << "  meta     "
        << value << "\n";
  }
  for (const auto& [name, value] : counters) {
    out << name << std::string(width - name.size(), ' ') << "  counter  "
        << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    out << name << std::string(width - name.size(), ' ') << "  gauge    "
        << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    PercentileSummary pct = SummarizePercentiles(h);
    out << name << std::string(width - name.size(), ' ')
        << "  histo    count=" << h.count << " mean=" << h.Mean()
        << " p50=" << pct.p50 << " p90=" << pct.p90 << " p99=" << pct.p99
        << " min=" << h.min << " max=" << h.max << " sum=" << h.sum << "\n";
  }
  return out.str();
}

namespace {

Status NotA(const char* what, const std::string& where) {
  return Status::DataLoss("metrics json: " + where + " is not " + what);
}

/// A number, or null for a value that was not finite when written.
Result<double> NumberOrNull(const JsonValue& value, const std::string& where) {
  if (value.is_null()) return std::numeric_limits<double>::quiet_NaN();
  if (value.kind() != JsonValue::Kind::kNumber) return NotA("a number", where);
  return value.AsNumber();
}

Result<long long> Count(const JsonValue& value, const std::string& where) {
  if (value.kind() != JsonValue::Kind::kNumber) return NotA("a number", where);
  return static_cast<long long>(std::llround(value.AsNumber()));
}

Result<HistogramSnapshot> HistogramFromJson(const JsonValue& fields,
                                            const std::string& name) {
  if (!fields.is_object()) return NotA("an object", name);
  HistogramSnapshot h;
  for (const auto& [field, value] : fields.object()) {
    const std::string where = name + "." + field;
    if (field == "bounds" || field == "bucket_counts") {
      if (!value.is_array()) return NotA("an array", where);
      for (const JsonValue& element : value.array()) {
        if (field == "bounds") {
          HLM_ASSIGN_OR_RETURN(double bound, NumberOrNull(element, where));
          h.bounds.push_back(bound);
        } else {
          HLM_ASSIGN_OR_RETURN(long long count, Count(element, where));
          h.bucket_counts.push_back(count);
        }
      }
      continue;
    }
    if (field == "count") {
      HLM_ASSIGN_OR_RETURN(h.count, Count(value, where));
      continue;
    }
    HLM_ASSIGN_OR_RETURN(double number, NumberOrNull(value, where));
    if (field == "sum") {
      h.sum = number;
    } else if (field == "min") {
      h.min = number;
    } else if (field == "max") {
      h.max = number;
    }  // "mean"/"p50"/"p90"/"p99" are derived; ignore.
  }
  return h;
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& json) {
  HLM_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(json));
  if (!doc.is_object()) return NotA("an object", "document");
  MetricsSnapshot snapshot;
  for (const auto& [section, members] : doc.object()) {
    if (section != "meta" && section != "counters" && section != "gauges" &&
        section != "histograms") {
      return Status::DataLoss("unknown metrics section: " + section);
    }
    if (!members.is_object()) return NotA("an object", section);
    for (const auto& [name, value] : members.object()) {
      if (section == "meta") {
        if (value.kind() != JsonValue::Kind::kString) {
          return NotA("a string", name);
        }
        snapshot.meta[name] = value.AsString();
      } else if (section == "counters") {
        HLM_ASSIGN_OR_RETURN(snapshot.counters[name], Count(value, name));
      } else if (section == "gauges") {
        HLM_ASSIGN_OR_RETURN(snapshot.gauges[name], NumberOrNull(value, name));
      } else {
        HLM_ASSIGN_OR_RETURN(snapshot.histograms[name],
                             HistogramFromJson(value, name));
      }
    }
  }
  return snapshot;
}

}  // namespace hlm::obs
