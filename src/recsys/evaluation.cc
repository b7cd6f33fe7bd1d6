#include "recsys/evaluation.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::recsys {

namespace {

/// Fills each threshold's cross-window means and confidence intervals
/// from its per-window counts.
std::vector<ThresholdEvaluation> SweepThresholds(
    std::vector<ThresholdEvaluation> evaluations,
    const RecommendationEvalConfig& config) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceSpan sweep_span(
      "recsys.threshold_sweep",
      metrics.GetHistogram("hlm.recsys.threshold_sweep_seconds"));
  metrics.GetCounter("hlm.recsys.thresholds_swept_total")
      ->Increment(static_cast<long long>(evaluations.size()));
  for (ThresholdEvaluation& evaluation : evaluations) {
    std::vector<double> precisions, recalls, f1s, retrieved, correct,
        relevant;
    for (const WindowObservation& obs : evaluation.windows) {
      precisions.push_back(obs.precision());
      recalls.push_back(obs.recall());
      f1s.push_back(obs.f1());
      retrieved.push_back(static_cast<double>(obs.retrieved));
      correct.push_back(static_cast<double>(obs.correct));
      relevant.push_back(static_cast<double>(obs.relevant));
      if (obs.retrieved > 0) evaluation.any_retrieved = true;
    }
    evaluation.mean_precision = Mean(precisions);
    evaluation.mean_recall = Mean(recalls);
    evaluation.mean_f1 = Mean(f1s);
    HLM_CHECK_PROB(evaluation.mean_precision);
    HLM_CHECK_PROB(evaluation.mean_recall);
    HLM_CHECK_PROB(evaluation.mean_f1);
    evaluation.precision_ci =
        MeanConfidenceInterval(precisions, config.ci_level);
    evaluation.recall_ci = MeanConfidenceInterval(recalls, config.ci_level);
    evaluation.f1_ci = MeanConfidenceInterval(f1s, config.ci_level);
    evaluation.mean_retrieved = Mean(retrieved);
    evaluation.mean_correct = Mean(correct);
    evaluation.mean_relevant = Mean(relevant);
    evaluation.retrieved_ci =
        MeanConfidenceInterval(retrieved, config.ci_level);
    evaluation.correct_ci = MeanConfidenceInterval(correct, config.ci_level);
  }
  return evaluations;
}

/// Scores every company with history in every window and reduces each
/// one at once to retrieval counts per threshold; returns one
/// evaluation per threshold holding only its per-window counts.
template <typename ScoreFn>
std::vector<ThresholdEvaluation> CountAllWindows(
    const corpus::Corpus& corpus, const RecommendationEvalConfig& config,
    const ScoreFn& score_company) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* window_seconds =
      metrics.GetHistogram("hlm.recsys.window_score_seconds");
  obs::Counter* companies_scored =
      metrics.GetCounter("hlm.recsys.companies_scored_total");
  obs::TraceSpan score_span("recsys.score_windows");
  const std::vector<double>& thresholds = config.thresholds;
  std::vector<ThresholdEvaluation> evaluations(thresholds.size());
  for (size_t t = 0; t < thresholds.size(); ++t) {
    evaluations[t].threshold = thresholds[t];
  }
  const auto windows = config.protocol.Windows();
  for (const auto& window : windows) {
    obs::ScopedTimer window_timer(window_seconds);
    // Companies score independently within a window, so they fan out
    // over the pool; each returns its counts per threshold (nullopt when
    // it has no history yet). The window total is an integer sum, the
    // same at any thread count.
    long long scored = 0;
    std::vector<WindowObservation> totals = ParallelMapReduce(
        0, static_cast<size_t>(corpus.num_companies()), /*grain=*/0,
        std::vector<WindowObservation>(thresholds.size()),
        [&](size_t i) -> std::optional<std::vector<WindowObservation>> {
          const corpus::InstallBase& base = corpus.record(i).install_base;
          corpus::InstallBase history = base.Before(window.start);
          if (history.empty()) return std::nullopt;  // nothing to condition on

          std::vector<int> truth = base.AppearedIn(window.start, window.end);
          std::vector<WindowObservation> counts(
              thresholds.size(), {0, 0, static_cast<long long>(truth.size())});
          std::vector<double> dist = score_company(static_cast<int>(i),
                                                   history);
          for (int c = 0; c < corpus.num_categories(); ++c) {
            if (history.Contains(c)) continue;  // never re-recommend owned
            const bool in_truth =
                std::find(truth.begin(), truth.end(), c) != truth.end();
            for (size_t t = 0; t < thresholds.size(); ++t) {
              if (dist[c] > thresholds[t]) {
                ++counts[t].retrieved;
                if (in_truth) ++counts[t].correct;
              }
            }
          }
          return counts;
        },
        [&scored](std::vector<WindowObservation> sum,
                  const std::optional<std::vector<WindowObservation>>& counts) {
          if (!counts) return sum;
          ++scored;
          for (size_t t = 0; t < sum.size(); ++t) {
            sum[t].retrieved += (*counts)[t].retrieved;
            sum[t].correct += (*counts)[t].correct;
            sum[t].relevant += (*counts)[t].relevant;
          }
          return sum;
        });
    companies_scored->Increment(scored);
    for (size_t t = 0; t < thresholds.size(); ++t) {
      // Retrieval arithmetic invariants behind Fig. 3's precision/recall:
      // correct hits are a subset of both the retrieved and the relevant
      // sets.
      HLM_DCHECK_LE(totals[t].correct, totals[t].retrieved);
      HLM_DCHECK_LE(totals[t].correct, totals[t].relevant);
      evaluations[t].windows.push_back(totals[t]);
    }
  }
  HLM_LOG(Debug) << "recsys scored " << windows.size()
                 << " sliding windows over " << corpus.num_companies()
                 << " companies";
  return evaluations;
}

}  // namespace

std::vector<double> DefaultThresholds() {
  std::vector<double> thresholds;
  for (int i = 0; i <= 8; ++i) thresholds.push_back(0.05 * i);
  return thresholds;
}

std::vector<ThresholdEvaluation> EvaluateRecommender(
    const models::ConditionalScorer& scorer, const corpus::Corpus& corpus,
    const RecommendationEvalConfig& config) {
  HLM_CHECK_EQ(scorer.vocab_size(), corpus.num_categories());
  auto counted = CountAllWindows(
      corpus, config,
      [&scorer](int /*company*/, const corpus::InstallBase& history) {
        return scorer.NextProductDistribution(history.Sequence());
      });
  return SweepThresholds(std::move(counted), config);
}

std::vector<ThresholdEvaluation> EvaluateScoreMatrix(
    const Matrix& scores, const corpus::Corpus& corpus,
    const RecommendationEvalConfig& config) {
  HLM_CHECK_EQ(static_cast<int>(scores.rows()), corpus.num_companies());
  HLM_CHECK_EQ(static_cast<int>(scores.cols()), corpus.num_categories());
  auto counted = CountAllWindows(
      corpus, config,
      [&scores, &corpus](int company, const corpus::InstallBase&) {
        std::vector<double> dist(corpus.num_categories());
        for (int c = 0; c < corpus.num_categories(); ++c) {
          dist[c] = scores(company, c);
        }
        return dist;
      });
  return SweepThresholds(std::move(counted), config);
}

std::vector<ThresholdEvaluation> EvaluateRandomBaseline(
    const corpus::Corpus& corpus, const RecommendationEvalConfig& config) {
  const double uniform = 1.0 / static_cast<double>(corpus.num_categories());
  auto counted = CountAllWindows(
      corpus, config,
      [&corpus, uniform](int, const corpus::InstallBase&) {
        return std::vector<double>(corpus.num_categories(), uniform);
      });
  return SweepThresholds(std::move(counted), config);
}

}  // namespace hlm::recsys
