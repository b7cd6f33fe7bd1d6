#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "corpus/generator.h"
#include "corpus/month.h"
#include "corpus/product_taxonomy.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "math/vector_ops.h"
#include "models/chh.h"
#include "models/lda.h"
#include "obs/metrics.h"
#include "recsys/evaluation.h"
#include "recsys/similarity_search.h"
#include "recsys/sliding_window.h"

namespace hlm::recsys {
namespace {

using corpus::MakeMonth;

// --------------------------------------------------------- SlidingWindow

TEST(SlidingWindowTest, PaperDefaultsProduceThirteenWindows) {
  SlidingWindowProtocol protocol;
  auto windows = protocol.Windows();
  ASSERT_EQ(windows.size(), 13u);
  EXPECT_EQ(windows.front().start, MakeMonth(2013, 1));
  EXPECT_EQ(windows.front().end, MakeMonth(2014, 1));
  EXPECT_EQ(windows.back().start, MakeMonth(2015, 1));
  EXPECT_EQ(windows.back().end, MakeMonth(2016, 1));
}

TEST(SlidingWindowTest, StrideIsTwoMonths) {
  SlidingWindowProtocol protocol;
  auto windows = protocol.Windows();
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start - windows[i - 1].start, 2);
  }
}

TEST(SlidingWindowTest, CustomSpan) {
  SlidingWindowProtocol protocol;
  protocol.window_months = 6;
  protocol.num_windows = 4;
  protocol.stride_months = 3;
  auto windows = protocol.Windows();
  ASSERT_EQ(windows.size(), 4u);
  for (const auto& window : windows) {
    EXPECT_EQ(window.end - window.start, 6);
  }
}

// ------------------------------------------------------------ Evaluation

// Hand-built corpus where the ground truth is fully known:
// company 0: owns {0} since 2000, acquires {1} in 2013-06.
// company 1: owns {2} since 2000, acquires nothing.
// company 2: owns nothing before 2013 (excluded: empty history).
corpus::Corpus HandCorpus() {
  corpus::Corpus c(corpus::ProductTaxonomy::Default());
  {
    corpus::Company company;
    company.name = "A";
    company.sites.resize(1);
    company.sites[0].events.push_back({0, MakeMonth(2000, 1), 0, 1.0});
    company.sites[0].events.push_back({1, MakeMonth(2013, 6), 0, 1.0});
    c.Add(std::move(company));
  }
  {
    corpus::Company company;
    company.name = "B";
    company.sites.resize(1);
    company.sites[0].events.push_back({2, MakeMonth(2000, 1), 0, 1.0});
    c.Add(std::move(company));
  }
  {
    corpus::Company company;
    company.name = "C";
    company.sites.resize(1);
    company.sites[0].events.push_back({3, MakeMonth(2014, 6), 0, 1.0});
    c.Add(std::move(company));
  }
  return c;
}

// Scorer that always gives probability `p` to product 1 and 0 elsewhere.
class FixedScorer final : public models::ConditionalScorer {
 public:
  explicit FixedScorer(double p) : p_(p) {}
  std::vector<double> NextProductDistribution(
      const models::TokenSequence&) const override {
    std::vector<double> dist(38, 0.0);
    dist[1] = p_;
    return dist;
  }
  int vocab_size() const override { return 38; }
  std::string name() const override { return "fixed"; }

 private:
  double p_;
};

TEST(EvaluationTest, SingleWindowCountsExact) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.first_start = MakeMonth(2013, 1);
  config.protocol.num_windows = 1;
  config.thresholds = {0.1, 0.5};

  FixedScorer scorer(0.3);
  auto evals = EvaluateRecommender(scorer, c, config);
  ASSERT_EQ(evals.size(), 2u);

  // Threshold 0.1 < 0.3: product 1 recommended to both companies with
  // history (A and B); correct only for A; relevant = 1 (A acquires 1).
  const auto& low = evals[0];
  ASSERT_EQ(low.windows.size(), 1u);
  EXPECT_EQ(low.windows[0].retrieved, 2);
  EXPECT_EQ(low.windows[0].correct, 1);
  EXPECT_EQ(low.windows[0].relevant, 1);
  EXPECT_DOUBLE_EQ(low.windows[0].precision(), 0.5);
  EXPECT_DOUBLE_EQ(low.windows[0].recall(), 1.0);

  // Threshold 0.5 > 0.3: nothing recommended.
  const auto& high = evals[1];
  EXPECT_EQ(high.windows[0].retrieved, 0);
  EXPECT_EQ(high.windows[0].correct, 0);
  EXPECT_FALSE(high.any_retrieved);
  EXPECT_DOUBLE_EQ(high.mean_recall, 0.0);
}

TEST(EvaluationTest, OwnedProductsNeverRecommended) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.num_windows = 1;
  config.thresholds = {0.0};

  // Scorer that puts mass on product 0 (owned by company A).
  class OwnedScorer final : public models::ConditionalScorer {
   public:
    std::vector<double> NextProductDistribution(
        const models::TokenSequence&) const override {
      std::vector<double> dist(38, 0.0);
      dist[0] = 0.9;
      return dist;
    }
    int vocab_size() const override { return 38; }
    std::string name() const override { return "owned"; }
  } scorer;

  auto evals = EvaluateRecommender(scorer, c, config);
  // Company A owns 0 -> not recommended to A; B doesn't own it -> the one
  // retrieval comes from B.
  EXPECT_EQ(evals[0].windows[0].retrieved, 1);
}

TEST(EvaluationTest, RandomBaselineMatchesPaperBehaviour) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.num_windows = 1;
  config.thresholds = {0.01, 1.0 / 38.0, 0.5};
  auto evals = EvaluateRandomBaseline(c, config);
  // Below 1/38 the random recommender retrieves *everything* unowned:
  // companies A and B each have 37 unowned products.
  EXPECT_EQ(evals[0].windows[0].retrieved, 74);
  EXPECT_DOUBLE_EQ(evals[0].mean_recall, 1.0);
  // At threshold exactly 1/38 (score > phi fails) and above: nothing.
  EXPECT_EQ(evals[1].windows[0].retrieved, 0);
  EXPECT_EQ(evals[2].windows[0].retrieved, 0);
}

TEST(EvaluationTest, ScoreMatrixPathAgreesWithScorerPath) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.num_windows = 2;
  config.thresholds = DefaultThresholds();

  FixedScorer scorer(0.3);
  auto by_scorer = EvaluateRecommender(scorer, c, config);

  Matrix scores(c.num_companies(), c.num_categories(), 0.0);
  for (int i = 0; i < c.num_companies(); ++i) scores(i, 1) = 0.3;
  auto by_matrix = EvaluateScoreMatrix(scores, c, config);

  ASSERT_EQ(by_scorer.size(), by_matrix.size());
  for (size_t t = 0; t < by_scorer.size(); ++t) {
    ASSERT_EQ(by_scorer[t].windows.size(), by_matrix[t].windows.size());
    for (size_t w = 0; w < by_scorer[t].windows.size(); ++w) {
      EXPECT_EQ(by_scorer[t].windows[w].retrieved,
                by_matrix[t].windows[w].retrieved);
      EXPECT_EQ(by_scorer[t].windows[w].correct,
                by_matrix[t].windows[w].correct);
    }
  }
}

TEST(EvaluationTest, DefaultThresholdsMatchFig3Grid) {
  auto thresholds = DefaultThresholds();
  ASSERT_EQ(thresholds.size(), 9u);
  EXPECT_DOUBLE_EQ(thresholds.front(), 0.0);
  EXPECT_DOUBLE_EQ(thresholds.back(), 0.4);
}

// One threshold's full expected ThresholdEvaluation.
struct GoldenThreshold {
  double threshold;
  std::vector<WindowObservation> windows;
  // precision, recall, f1, retrieved, correct, relevant
  std::array<double, 6> means;
  // lo, hi of the precision, recall, f1, retrieved and correct CIs
  std::array<double, 10> cis;
  bool any_retrieved;
};

void ExpectGolden(const std::vector<ThresholdEvaluation>& evals,
                  const std::vector<GoldenThreshold>& golden) {
  ASSERT_EQ(evals.size(), golden.size());
  for (size_t t = 0; t < golden.size(); ++t) {
    SCOPED_TRACE("threshold index " + std::to_string(t));
    const ThresholdEvaluation& eval = evals[t];
    EXPECT_EQ(eval.threshold, golden[t].threshold);
    ASSERT_EQ(eval.windows.size(), golden[t].windows.size());
    for (size_t w = 0; w < eval.windows.size(); ++w) {
      EXPECT_EQ(eval.windows[w].retrieved, golden[t].windows[w].retrieved);
      EXPECT_EQ(eval.windows[w].correct, golden[t].windows[w].correct);
      EXPECT_EQ(eval.windows[w].relevant, golden[t].windows[w].relevant);
    }
    const std::array<double, 6> means = {
        eval.mean_precision, eval.mean_recall,  eval.mean_f1,
        eval.mean_retrieved, eval.mean_correct, eval.mean_relevant};
    const std::array<double, 10> cis = {
        eval.precision_ci.lo, eval.precision_ci.hi, eval.recall_ci.lo,
        eval.recall_ci.hi,    eval.f1_ci.lo,        eval.f1_ci.hi,
        eval.retrieved_ci.lo, eval.retrieved_ci.hi, eval.correct_ci.lo,
        eval.correct_ci.hi};
    for (size_t i = 0; i < means.size(); ++i) {
      EXPECT_EQ(means[i], golden[t].means[i]) << "mean " << i;
    }
    for (size_t i = 0; i < cis.size(); ++i) {
      EXPECT_EQ(cis[i], golden[t].cis[i]) << "ci bound " << i;
    }
    EXPECT_EQ(eval.any_retrieved, golden[t].any_retrieved);
  }
}

TEST(EvaluationTest, ResultsIdenticalAcrossThreadCounts) {
  // The per-window company scoring fans out over the pool; every field
  // of every entry point's evaluation must equal the pinned values at
  // any thread count. Corpus generation itself is also parallel, so each
  // thread count evaluates the corpus it generated itself, which doubles
  // as a determinism check for the generator.
  SetNumThreads(1);
  auto world = corpus::GenerateDefaultCorpus(300, 11);
  const corpus::Corpus& c = world.corpus;
  models::LdaConfig lda_config;
  lda_config.num_topics = 4;
  lda_config.burn_in_iterations = 30;
  lda_config.post_burn_in_samples = 4;
  models::LdaModel lda(c.num_categories(), lda_config);
  ASSERT_TRUE(lda.Train(c.Sequences()).ok());
  models::ConditionalHeavyHitters chh(c.num_categories(),
                                      models::ChhConfig{});
  chh.Train(c.Sequences());
  // Multiples of 0.01, so some scores sit exactly on a threshold.
  Matrix scores(c.num_companies(), c.num_categories());
  for (int i = 0; i < c.num_companies(); ++i) {
    for (int j = 0; j < c.num_categories(); ++j) {
      scores(i, j) = static_cast<double>((i * 7 + j * 13) % 20) / 100.0;
    }
  }

  RecommendationEvalConfig config;
  config.protocol.num_windows = 3;
  config.protocol.stride_months = 6;
  // Unsorted and with a duplicate: each threshold is counted on its own.
  config.thresholds = {0.15, 0.0, 0.05, 0.05};

  const std::vector<GoldenThreshold> kLdaGolden = {
    {0.15,
     {{417, 30, 93}, {428, 33, 95}, {433, 35, 86}},
     {0.076625552852488246, 0.35897527013332281, 0.12623894888547785,
      426, 32.666666666666664, 91.333333333333329},
     {0.071574541364338135, 0.081676564340638358,
      0.30988851316673349, 0.40806202709991213,
      0.11649154388896113, 0.13598635388199456,
      416.73757156750082, 435.26242843249918,
      29.818905017174302, 35.514428316159027},
     true},
    {0.0,
     {{9623, 93, 93}, {9726, 95, 95}, {9824, 86, 86}},
     {0.0093953502158654664, 1, 0.018615395042407203,
      9724.3333333333339, 91.333333333333329, 91.333333333333329},
     {0.0087641974757132757, 0.010026502956017657,
      1, 1,
      0.017376098589116741, 0.019854691495697664,
      9610.5972388638711, 9838.0694278027968,
      85.985667784480299, 96.680998882186358},
     true},
    {0.05,
     {{1774, 74, 93}, {1794, 81, 95}, {1811, 76, 86}},
     {0.042943302643749327, 0.84401714463703648, 0.081719245132503671,
      1793, 77, 91.333333333333329},
     {0.040775588618176158, 0.045111016669322497,
      0.79350448672851526, 0.8945298025455577,
      0.077730271506173912, 0.085708218758833429,
      1772.042738906506, 1813.957261093494,
      72.920009609915482, 81.079990390084518},
     true},
    {0.05,
     {{1774, 74, 93}, {1794, 81, 95}, {1811, 76, 86}},
     {0.042943302643749327, 0.84401714463703648, 0.081719245132503671,
      1793, 77, 91.333333333333329},
     {0.040775588618176158, 0.045111016669322497,
      0.79350448672851526, 0.8945298025455577,
      0.077730271506173912, 0.085708218758833429,
      1772.042738906506, 1813.957261093494,
      72.920009609915482, 81.079990390084518},
     true}};

  const std::vector<GoldenThreshold> kChhGolden = {
    {0.15,
     {{500, 39, 93}, {522, 41, 95}, {546, 41, 86}},
     {0.077211878798085692, 0.44255932404153675, 0.13139417998268485,
      522.66666666666663, 40.333333333333336, 91.333333333333329},
     {0.075111341544866442, 0.079312416051304943,
      0.40835227522101175, 0.47676637286206175,
      0.12960420495889036, 0.13318415500647934,
      496.63199615662387, 548.70133717670944,
      39.026690675919873, 41.639975990746798},
     true},
    {0.0,
     {{9623, 93, 93}, {9726, 95, 95}, {9824, 86, 86}},
     {0.0093953502158654664, 1, 0.018615395042407203,
      9724.3333333333339, 91.333333333333329, 91.333333333333329},
     {0.0087641974757132757, 0.010026502956017657,
      1, 1,
      0.017376098589116741, 0.019854691495697664,
      9610.5972388638711, 9838.0694278027968,
      85.985667784480299, 96.680998882186358},
     true},
    {0.05,
     {{1652, 79, 93}, {1677, 78, 95}, {1681, 70, 86}},
     {0.045324776994987097, 0.82815616184747942, 0.085936954629401333,
      1670, 75.666666666666671, 91.333333333333329},
     {0.041640375419026231, 0.049009178570947963,
      0.80689363285335369, 0.84941869084160515,
      0.07921311090373917, 0.092660798355063495,
      1652.2157341990044, 1687.7842658009956,
      70.084686787300527, 81.248646546032816},
     true},
    {0.05,
     {{1652, 79, 93}, {1677, 78, 95}, {1681, 70, 86}},
     {0.045324776994987097, 0.82815616184747942, 0.085936954629401333,
      1670, 75.666666666666671, 91.333333333333329},
     {0.041640375419026231, 0.049009178570947963,
      0.80689363285335369, 0.84941869084160515,
      0.07921311090373917, 0.092660798355063495,
      1652.2157341990044, 1687.7842658009956,
      70.084686787300527, 81.248646546032816},
     true}};

  const std::vector<GoldenThreshold> kScoreMatrixGolden = {
    {0.15,
     {{1916, 20, 93}, {1936, 18, 95}, {1954, 17, 86}},
     {0.0094786787921571566, 0.20073395541867922, 0.018100776115228069,
      1935.3333333333333, 18.333333333333332, 91.333333333333329},
     {0.0084792605089324073, 0.010478097075381906,
      0.18595362249342168, 0.21551428834393677,
      0.01622896201815751, 0.019972590212298628,
      1913.8232804682018, 1956.8433861984647,
      16.604807571361036, 20.061859095305628},
     true},
    {0.0,
     {{9147, 86, 93}, {9247, 89, 95}, {9341, 81, 86}},
     {0.0092327271121355886, 0.93447791772504529, 0.018284378908998103,
      9245, 85.333333333333329, 91.333333333333329},
     {0.0086684298316283652, 0.009797024392642812,
      0.92451320720199059, 0.94444262824809999,
      0.017178440677615439, 0.019390317140380767,
      9135.2186863522584, 9354.7813136477416,
      80.760084032386203, 89.906582634280454},
     true},
    {0.05,
     {{6734, 70, 93}, {6805, 74, 95}, {6869, 66, 86}},
     {0.01029258432848597, 0.76635913364305985, 0.02031174608087024,
      6802.666666666667, 70, 91.333333333333329},
     {0.0095693077427669929, 0.011015860914204947,
      0.75146402751668961, 0.78125423976943009,
      0.018901154885838968, 0.021722337275901511,
      6726.2504102441717, 6879.0829230891623,
      65.473657060046136, 74.526342939953864},
     true},
    {0.05,
     {{6734, 70, 93}, {6805, 74, 95}, {6869, 66, 86}},
     {0.01029258432848597, 0.76635913364305985, 0.02031174608087024,
      6802.666666666667, 70, 91.333333333333329},
     {0.0095693077427669929, 0.011015860914204947,
      0.75146402751668961, 0.78125423976943009,
      0.018901154885838968, 0.021722337275901511,
      6726.2504102441717, 6879.0829230891623,
      65.473657060046136, 74.526342939953864},
     true}};

  const std::vector<GoldenThreshold> kRandomGolden = {
    {0.15,
     {{0, 0, 93}, {0, 0, 95}, {0, 0, 86}},
     {0, 0, 0,
      0, 0, 91.333333333333329},
     {0, 0,
      0, 0,
      0, 0,
      0, 0,
      0, 0},
     false},
    {0.0,
     {{9623, 93, 93}, {9726, 95, 95}, {9824, 86, 86}},
     {0.0093953502158654664, 1, 0.018615395042407203,
      9724.3333333333339, 91.333333333333329, 91.333333333333329},
     {0.0087641974757132757, 0.010026502956017657,
      1, 1,
      0.017376098589116741, 0.019854691495697664,
      9610.5972388638711, 9838.0694278027968,
      85.985667784480299, 96.680998882186358},
     true},
    {0.05,
     {{0, 0, 93}, {0, 0, 95}, {0, 0, 86}},
     {0, 0, 0,
      0, 0, 91.333333333333329},
     {0, 0,
      0, 0,
      0, 0,
      0, 0,
      0, 0},
     false},
    {0.05,
     {{0, 0, 93}, {0, 0, 95}, {0, 0, 86}},
     {0, 0, 0,
      0, 0, 91.333333333333329},
     {0, 0,
      0, 0,
      0, 0,
      0, 0,
      0, 0},
     false}};

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetNumThreads(threads);
    auto world_t = corpus::GenerateDefaultCorpus(300, 11);
    const corpus::Corpus& c_t = world_t.corpus;
    ASSERT_EQ(c_t.num_companies(), c.num_companies());
    for (int i = 0; i < c.num_companies(); ++i) {
      ASSERT_EQ(c_t.record(i).company.name, c.record(i).company.name);
      ASSERT_EQ(c_t.record(i).install_base.timeline(),
                c.record(i).install_base.timeline())
          << "company " << i;
    }
    {
      SCOPED_TRACE("lda");
      ExpectGolden(EvaluateRecommender(lda, c_t, config), kLdaGolden);
    }
    {
      SCOPED_TRACE("chh");
      ExpectGolden(EvaluateRecommender(chh, c_t, config), kChhGolden);
    }
    {
      SCOPED_TRACE("score matrix");
      ExpectGolden(EvaluateScoreMatrix(scores, c_t, config),
                   kScoreMatrixGolden);
    }
    {
      SCOPED_TRACE("random baseline");
      ExpectGolden(EvaluateRandomBaseline(c_t, config), kRandomGolden);
    }
  }
  SetNumThreads(0);
}

// hlm.recsys.companies_scored_total counts each company with history
// once per window, whether or not any threshold is configured.
TEST(EvaluationTest, CompaniesScoredCountsCompaniesWithHistory) {
  obs::Counter* scored = obs::MetricsRegistry::Global().GetCounter(
      "hlm.recsys.companies_scored_total");
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.first_start = MakeMonth(2013, 1);
  config.protocol.num_windows = 1;
  FixedScorer scorer(0.3);
  for (const std::vector<double>& thresholds :
       {std::vector<double>{0.1, 0.5}, std::vector<double>{}}) {
    config.thresholds = thresholds;
    const long long before = scored->value();
    auto evals = EvaluateRecommender(scorer, c, config);
    EXPECT_EQ(evals.size(), thresholds.size());
    // Companies A and B have history before 2013-01; C does not.
    EXPECT_EQ(scored->value(), before + 2)
        << thresholds.size() << " thresholds";
  }
}

TEST(EvaluationTest, ConfidenceIntervalsShrinkWithConsistentWindows) {
  auto generated = corpus::GenerateDefaultCorpus(400, 3);
  RecommendationEvalConfig config;
  config.thresholds = {0.05};
  FixedScorer scorer(0.1);
  auto evals = EvaluateRecommender(scorer, generated.corpus, config);
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_EQ(evals[0].windows.size(), 13u);
  // CI must bracket the mean.
  EXPECT_LE(evals[0].recall_ci.lo, evals[0].mean_recall);
  EXPECT_GE(evals[0].recall_ci.hi, evals[0].mean_recall);
}

// ------------------------------------------------------ SimilaritySearch

TEST(SimilaritySearchTest, FindsNearestByEuclidean) {
  std::vector<std::vector<double>> reps = {
      {0.0, 0.0}, {1.0, 0.0}, {5.0, 5.0}, {0.1, 0.1}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto neighbors = search.TopK(0, 2);
  ASSERT_TRUE(neighbors.ok());
  ASSERT_EQ(neighbors->size(), 2u);
  EXPECT_EQ((*neighbors)[0].company_id, 3);
  EXPECT_EQ((*neighbors)[1].company_id, 1);
}

TEST(SimilaritySearchTest, ExcludesSelfAndHonorsFilter) {
  std::vector<std::vector<double>> reps = {
      {0.0}, {0.1}, {0.2}, {0.3}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto filtered = search.TopK(0, 10, [](int id) { return id % 2 == 0; });
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->size(), 1u);  // only company 2 passes (0 is self)
  EXPECT_EQ((*filtered)[0].company_id, 2);
}

TEST(SimilaritySearchTest, VectorQueryAndErrors) {
  std::vector<std::vector<double>> reps = {{0.0, 0.0}, {3.0, 4.0}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto hits = search.TopKForVector({3.0, 3.9}, 1);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)[0].company_id, 1);

  EXPECT_FALSE(search.TopK(-1, 3).ok());
  EXPECT_FALSE(search.TopK(5, 3).ok());
  EXPECT_FALSE(search.TopK(0, 0).ok());
  EXPECT_FALSE(search.TopKForVector({1.0}, 1).ok());  // dim mismatch
}

TEST(SimilaritySearchTest, KLargerThanCorpusReturnsAll) {
  std::vector<std::vector<double>> reps = {{0.0}, {1.0}, {2.0}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto hits = search.TopK(1, 100);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
}

// Regression: an empty index used to skip the dimensionality check
// entirely, so a mismatched query silently returned an empty hit list.
TEST(SimilaritySearchTest, EmptyIndexRejectsNonEmptyQueries) {
  SimilaritySearch search({}, cluster::DistanceKind::kEuclidean);
  EXPECT_EQ(search.dim(), 0);
  auto hits = search.TopKForVector({1.0, 2.0}, 3);
  ASSERT_FALSE(hits.ok());
  EXPECT_NE(hits.status().message().find("dimensionality"),
            std::string::npos);
  // The zero-dimensional query matches the empty index: OK, no hits.
  auto empty_query = search.TopKForVector({}, 3);
  ASSERT_TRUE(empty_query.ok());
  EXPECT_TRUE(empty_query->empty());
}

// Regression: ragged matrices were never validated, so queries computed
// distances over rows of different widths.
// The batched cosine block scan (tiled simd::ScoreBlock over the
// flattened matrix with construction-time norm caching) must agree with
// per-row CosineDistance exactly, including across tile boundaries and
// for zero-norm rows (distance 1 by convention).
TEST(SimilaritySearchTest, BatchedCosineMatchesPerRowDistance) {
  Rng rng(77);
  const int n = 300;  // > 2 tiles of 128
  const int d = 9;
  std::vector<std::vector<double>> reps(n, std::vector<double>(d));
  for (auto& row : reps) {
    for (double& v : row) v = 2.0 * rng.NextDouble() - 1.0;
  }
  reps[0].assign(d, 0.0);    // zero-norm row inside the first tile
  reps[200].assign(d, 0.0);  // and one in a later tile
  SimilaritySearch search(reps, cluster::DistanceKind::kCosine);

  std::vector<double> query = reps[7];
  auto hits = search.TopKForVector(query, n);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), static_cast<size_t>(n));
  for (const Neighbor& hit : *hits) {
    EXPECT_EQ(hit.distance, CosineDistance(query, reps[hit.company_id]))
        << "company " << hit.company_id;
  }

  // Zero-norm rows (and a zero-norm query) score distance exactly 1.
  auto zero_hits = search.TopKForVector(std::vector<double>(d, 0.0), n);
  ASSERT_TRUE(zero_hits.ok());
  for (const Neighbor& hit : *zero_hits) {
    EXPECT_EQ(hit.distance, 1.0);
  }
}

TEST(SimilaritySearchTest, RaggedMatrixPoisonsAllQueries) {
  std::vector<std::vector<double>> ragged = {{0.0, 0.0}, {1.0}, {2.0, 2.0}};
  SimilaritySearch search(ragged, cluster::DistanceKind::kEuclidean);
  auto by_vector = search.TopKForVector({0.0, 0.0}, 2);
  ASSERT_FALSE(by_vector.ok());
  EXPECT_NE(by_vector.status().message().find("ragged"), std::string::npos);
  // TopK routes through the same check even though row 0 itself is fine.
  EXPECT_FALSE(search.TopK(0, 2).ok());
}

// Every Status error a query returns also increments the per-code
// hlm.recsys error counters, so bad queries are visible on /statusz
// even when the caller swallows the Status.
TEST(SimilaritySearchTest, ErrorsIncrementRecsysErrorCounters) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  long long total_before =
      metrics.GetCounter("hlm.recsys.errors_total")->value();
  long long oor_before =
      metrics.GetCounter("hlm.recsys.errors.out_of_range_total")->value();
  long long invalid_before =
      metrics.GetCounter("hlm.recsys.errors.invalid_argument_total")
          ->value();

  std::vector<std::vector<double>> reps = {{0.0, 0.0}, {1.0, 1.0}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  EXPECT_FALSE(search.TopK(99, 2).ok());            // out_of_range
  EXPECT_FALSE(search.TopKForVector({1.0}, 2).ok());  // invalid_argument
  EXPECT_FALSE(search.TopKForVector({1.0, 2.0}, 0).ok());  // k <= 0

  EXPECT_EQ(metrics.GetCounter("hlm.recsys.errors_total")->value(),
            total_before + 3);
  EXPECT_EQ(
      metrics.GetCounter("hlm.recsys.errors.out_of_range_total")->value(),
      oor_before + 1);
  EXPECT_EQ(metrics.GetCounter("hlm.recsys.errors.invalid_argument_total")
                ->value(),
            invalid_before + 2);
  // A well-formed query leaves the error counters alone.
  ASSERT_TRUE(search.TopK(0, 1).ok());
  EXPECT_EQ(metrics.GetCounter("hlm.recsys.errors_total")->value(),
            total_before + 3);
}

}  // namespace
}  // namespace hlm::recsys
