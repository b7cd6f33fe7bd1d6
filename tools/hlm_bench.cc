// hlm_bench: the repository's measurement runner (besides the paper's
// figure and table harnesses) and its regression checker. Each suite in
// the Suites() table runs a fixed set of bench phases under the standard
// observability stack — bench::ScopedPhase wall times, percentile
// exports, and the resource profiler — and writes one schema-versioned
// BENCH_<suite>.json per run (bench::Snapshot() with a
// `schema`/`suite`/`run_id` meta header).
//
//   hlm_bench --list                                     # suites + phases
//   hlm_bench --suite smoke --out BENCH_smoke.json       # measure
//   hlm_bench --suite smoke --check                      # vs baseline
//   hlm_bench --suite smoke --update_baseline            # refresh it
//
// --check compares the fresh run against a committed baseline
// (bench/baselines/<suite>.json by default) and exits non-zero on
// regression. Deterministic values (counters, gauges, histogram counts)
// must match the baseline exactly — the determinism contract makes them
// machine-independent — while `walltime.<phase>_seconds` meta entries
// pass when `current <= baseline * tolerance + slack`, absorbing
// machine noise without letting real slowdowns through.
// `--inject_slowdown F` stretches every phase by sleeping (F-1)x its
// measured time (bench::SetPhaseSlowdown), which is how scripts/tier1.sh
// self-tests that the checker actually fails on a 2x regression.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/distance.h"
#include "cluster/kmeans.h"
#include "cluster/silhouette.h"
#include "cluster/tsne.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/status.h"
#include "corpus/company.h"
#include "corpus/generator.h"
#include "corpus/integration.h"
#include "corpus/month.h"
#include "corpus/tfidf.h"
#include "math/rng.h"
#include "math/simd/kernels.h"
#include "models/bpmf.h"
#include "models/chh.h"
#include "models/lda.h"
#include "models/lstm_lm.h"
#include "obs/metrics.h"
#include "recsys/evaluation.h"
#include "recsys/similarity_search.h"
#include "repr/representation.h"
#include "serve/http_client.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace hlm {
namespace {

namespace fs = std::filesystem;

constexpr char kSchema[] = "hlm-bench/1";

/// The serve-path phase: persist the trained LDA model and its company
/// representation, round-trip them through a registry manifest, Verify
/// (checksum walk) and lazily load both — the startup path a serving
/// process takes, instrumented by hlm.serve.* metrics.
void RunServeRegistry(const models::LdaModel& lda,
                      const std::vector<std::vector<double>>& rows) {
  bench::ScopedPhase phase("serve_registry");
  fs::path dir = fs::temp_directory_path() / ("hlm_bench_" + bench::RunId());
  fs::create_directories(dir);
  HLM_CHECK_OK(lda.SaveToFile((dir / "lda.snap").string()));
  HLM_CHECK_OK(repr::SaveRepresentation(rows, (dir / "repr.snap").string()));
  serve::ModelRegistry registry;
  HLM_CHECK_OK(registry.Register("lda", serve::ModelKind::kLda, "lda.snap"));
  HLM_CHECK_OK(registry.Register("repr", serve::ModelKind::kRepresentation,
                                 "repr.snap"));
  HLM_CHECK_OK(registry.SaveManifest((dir / "MANIFEST").string()));

  Result<serve::ModelRegistry> loaded =
      serve::ModelRegistry::FromManifest((dir / "MANIFEST").string());
  HLM_CHECK_OK(loaded.status());
  HLM_CHECK_OK(loaded->Verify("lda"));
  HLM_CHECK_OK(loaded->Verify("repr"));
  Result<const models::LdaModel*> lda_loaded = loaded->Lda("lda");
  HLM_CHECK_OK(lda_loaded.status());
  Result<const std::vector<std::vector<double>>*> rows_loaded =
      loaded->Representation("repr");
  HLM_CHECK_OK(rows_loaded.status());
  HLM_CHECK_EQ(static_cast<long long>((*rows_loaded)->size()),
               static_cast<long long>(rows.size()))
      << "representation round-trip changed the row count";
  fs::remove_all(dir);
}

/// serve suite: the online serving path end to end — snapshot a trained
/// model set, boot hlm::serve::Server on it, drive a fixed request mix
/// over one keep-alive connection, hot-swap a republished generation,
/// and drive the new generation. Request counts and the reload counter
/// are deterministic (exact-compare); per-request latencies land in the
/// per-route hlm.serve.http.<route>.request_seconds histograms, whose
/// percentiles export with the standard `_seconds` summary and whose
/// wall time is gated through the serve_requests phase walltime.
void RunServeSuite(const bench::BenchEnv& env) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int vocab = env.world.corpus.num_categories();
  const fs::path dir =
      fs::temp_directory_path() / ("hlm_bench_serve_" + bench::RunId());
  const std::string manifest = (dir / "manifest.txt").string();

  {
    bench::ScopedPhase phase("serve_snapshot");
    fs::create_directories(dir);
    models::LdaConfig config;
    config.num_topics = 4;
    models::LdaModel lda(vocab, config);
    HLM_CHECK_OK(lda.Train(env.train_seqs_pre2013));
    HLM_CHECK_OK(lda.SaveToFile((dir / "lda.snap").string()));
    HLM_CHECK_OK(repr::SaveRepresentation(
        repr::LdaRepresentation(lda, env.world.corpus),
        (dir / "lda_repr.snap").string()));
    serve::ModelRegistry registry;
    HLM_CHECK_OK(
        registry.Register("lda", serve::ModelKind::kLda, "lda.snap"));
    HLM_CHECK_OK(registry.Register(
        "lda-repr", serve::ModelKind::kRepresentation, "lda_repr.snap"));
    HLM_CHECK_OK(registry.SaveManifest(manifest));
  }

  std::unique_ptr<serve::Server> server = [&manifest] {
    bench::ScopedPhase phase("serve_start");
    serve::ServerConfig config;
    config.manifest_path = manifest;  // watcher off: reloads are explicit
    Result<std::unique_ptr<serve::Server>> started =
        serve::Server::Start(config);
    HLM_CHECK_OK(started.status());
    return std::move(started.value());
  }();

  constexpr const char* kPaths[] = {
      "/v1/recommend?tokens=0,1&k=5",
      "/v1/similar?company=0&k=5",
      "/v1/topics?tokens=0,1",
  };
  auto drive = [&kPaths](serve::HttpClient& client, int requests) {
    long long ok = 0;
    for (int i = 0; i < requests; ++i) {
      Result<serve::HttpResponse> response = client.Get(kPaths[i % 3]);
      HLM_CHECK_OK(response.status());
      if (response->status_code == 200) ++ok;
    }
    return ok;
  };

  constexpr int kRequests = 1200;
  {
    bench::ScopedPhase phase("serve_requests");
    Result<serve::HttpClient> client =
        serve::HttpClient::Connect("127.0.0.1", server->port());
    HLM_CHECK_OK(client.status());
    metrics.GetGauge("hlm.bench.serve_ok_responses")
        ->Set(static_cast<double>(drive(*client, kRequests)));
  }

  constexpr int kPostReloadRequests = 300;
  {
    bench::ScopedPhase phase("serve_reload");
    // Republish the manifest byte-identically: the mtime component of
    // the stamp changes, which is exactly what a snapshot refresh into
    // the same directory looks like to the watcher.
    std::string bytes;
    {
      std::ifstream in(manifest, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    {
      std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    Result<bool> swapped = server->ReloadIfChanged();
    HLM_CHECK_OK(swapped.status());
    HLM_CHECK(swapped.value()) << "republished manifest did not swap";
    Result<serve::HttpClient> client =
        serve::HttpClient::Connect("127.0.0.1", server->port());
    HLM_CHECK_OK(client.status());
    metrics.GetGauge("hlm.bench.serve_post_reload_ok_responses")
        ->Set(static_cast<double>(drive(*client, kPostReloadRequests)));
  }

  server->Stop();
  fs::remove_all(dir);
}

/// smoke suite (and, with `full`, the LSTM + BPMF training phases on
/// top): corpus, LDA + CHH training, the recommendation threshold sweep,
/// similarity search and the registry round trip.
void RunModelSuite(const bench::BenchEnv& env, bool full) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int vocab = env.world.corpus.num_categories();

  models::LdaModel lda = [&] {
    bench::ScopedPhase phase("train_lda");
    models::LdaConfig config;
    config.num_topics = 4;
    models::LdaModel model(vocab, config);
    HLM_CHECK_OK(model.Train(env.train_seqs_pre2013));
    return model;
  }();

  {
    bench::ScopedPhase phase("lda_perplexity");
    metrics.GetGauge("hlm.bench.lda_test_perplexity")
        ->Set(lda.Perplexity(env.test_seqs));
  }

  models::ConditionalHeavyHitters chh = [&] {
    bench::ScopedPhase phase("train_chh");
    models::ChhConfig config;
    config.context_depth = 2;
    models::ConditionalHeavyHitters model(vocab, config);
    model.Train(env.train_seqs_pre2013);
    return model;
  }();

  {
    bench::ScopedPhase phase("recsys_eval");
    recsys::RecommendationEvalConfig eval_config;
    eval_config.thresholds = {0.05, 0.10, 0.15};
    double best_f1 = 0.0;
    for (const recsys::ThresholdEvaluation& eval :
         recsys::EvaluateRecommender(lda, env.world.corpus, eval_config)) {
      best_f1 = std::max(best_f1, eval.mean_f1);
    }
    metrics.GetGauge("hlm.bench.recsys_best_f1")->Set(best_f1);
    best_f1 = 0.0;
    for (const recsys::ThresholdEvaluation& eval :
         recsys::EvaluateRecommender(chh, env.world.corpus, eval_config)) {
      best_f1 = std::max(best_f1, eval.mean_f1);
    }
    metrics.GetGauge("hlm.bench.chh_best_f1")->Set(best_f1);
  }

  std::vector<std::vector<double>> rows;
  {
    bench::ScopedPhase phase("similarity_search");
    rows = repr::LdaRepresentation(lda, env.world.corpus);
    recsys::SimilaritySearch search(rows, cluster::DistanceKind::kCosine);
    double checksum = 0.0;
    for (int i = 0; i < search.size(); ++i) {
      Result<std::vector<recsys::Neighbor>> neighbors = search.TopK(i, 10);
      HLM_CHECK_OK(neighbors.status());
      for (const recsys::Neighbor& n : *neighbors) {
        checksum += n.distance + static_cast<double>(n.company_id);
      }
    }
    metrics.GetGauge("hlm.bench.similarity_checksum")->Set(checksum);
  }

  RunServeRegistry(lda, rows);

  if (full) {
    {
      bench::ScopedPhase phase("train_lstm");
      models::LstmConfig config;
      config.hidden_size = 16;
      config.num_layers = 1;
      config.epochs = 2;
      models::LstmLanguageModel lstm(vocab, config);
      lstm.Train(env.train_seqs_pre2013, env.valid_seqs);
      metrics.GetGauge("hlm.bench.lstm_test_perplexity")
          ->Set(lstm.Perplexity(env.test_seqs));
    }
    {
      bench::ScopedPhase phase("train_bpmf");
      const auto cutoff = corpus::MakeMonth(2013, 1);
      std::vector<models::RatingTriplet> observed;
      int used_rows = 0;
      for (int i = 0; i < env.world.corpus.num_companies(); ++i) {
        auto before = env.world.corpus.record(i).install_base.Before(cutoff);
        if (before.empty()) continue;
        for (int c : before.Set()) observed.push_back({used_rows, c, 1.0});
        ++used_rows;
      }
      models::BpmfConfig config;
      config.burn_in = 5;
      config.samples = 10;
      models::BpmfModel bpmf(config);
      HLM_CHECK_OK(bpmf.TrainSparse(observed, used_rows, vocab));
      std::vector<double> scores = bpmf.AllScores();
      double sum = 0.0;
      for (double s : scores) sum += s;
      metrics.GetGauge("hlm.bench.bpmf_mean_score")
          ->Set(scores.empty() ? 0.0 : sum / static_cast<double>(scores.size()));
    }
  }
}

// ---------------------------------------------------------------------
// kernels suite: micro-benchmarks of the dispatched SIMD kernels against
// plain sequential scalar references (deliberately NOT the lane-blocked
// portable kernels — the speedup column measures the dispatched path
// against pre-SIMD code). Checksum gauges accumulate dispatched kernel
// outputs and are compared exactly against the baseline: the lane-blocked
// summation contract makes them identical on every machine, whichever
// path is active. Speedups are machine-dependent and go to meta only.

double ScalarDot(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double ScalarSquaredDistance(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void ScalarMatVec(const double* a, size_t rows, size_t cols, const double* x,
                  double* y) {
  for (size_t r = 0; r < rows; ++r) {
    y[r] += ScalarDot(a + r * cols, x, cols);
  }
}

void ScalarScoreBlock(const double* queries, size_t num_queries,
                      const double* items, size_t num_items, size_t d,
                      double* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t j = 0; j < num_items; ++j) {
      out[q * num_items + j] = ScalarDot(queries + q * d, items + j * d, d);
    }
  }
}

template <typename F>
double TimeSeconds(int reps, F&& body) {
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) body();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = 2.0 * rng->NextDouble() - 1.0;
  return v;
}

/// One timed comparison; `sink` defeats dead-code elimination and feeds
/// the checksum gauges.
struct KernelTiming {
  std::string name;
  size_t d = 0;
  double scalar_seconds = 0.0;
  double kernel_seconds = 0.0;
  double speedup() const {
    return kernel_seconds > 0.0 ? scalar_seconds / kernel_seconds : 0.0;
  }
};

/// Runs the kernels suite. Returns false when --min_speedup is set,
/// the AVX2 path is active, and any timed kernel at d >= 64 comes in
/// under the bar.
bool RunKernelsSuite(double min_speedup) {
  bench::ScopedPhase suite_phase("kernels");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const std::vector<size_t> dims = {64, 256, 1024};
  constexpr size_t kMatRows = 128;
  constexpr size_t kBlockQueries = 8;
  constexpr size_t kBlockItems = 128;
  Rng rng(12345);
  volatile double sink = 0.0;

  std::vector<KernelTiming> timings;
  double dot_checksum = 0.0;
  double distance_checksum = 0.0;
  double matvec_checksum = 0.0;
  double score_block_checksum = 0.0;

  for (size_t d : dims) {
    std::vector<double> x = RandomVector(d, &rng);
    std::vector<double> y = RandomVector(d, &rng);
    std::vector<double> mat = RandomVector(kMatRows * d, &rng);
    std::vector<double> queries = RandomVector(kBlockQueries * d, &rng);
    std::vector<double> items = RandomVector(kBlockItems * d, &rng);
    std::vector<double> out(kMatRows, 0.0);
    std::vector<double> block(kBlockQueries * kBlockItems, 0.0);

    // Rep counts keep total work roughly constant across dims so every
    // measurement is milliseconds, not microseconds.
    const int vec_reps = static_cast<int>(4'000'000 / d);
    const int mat_reps = std::max(1, static_cast<int>(4'000'000 / (kMatRows * d)));
    const int block_reps = std::max(
        1, static_cast<int>(8'000'000 / (kBlockQueries * kBlockItems * d)));

    KernelTiming dot{"dot", d, 0.0, 0.0};
    dot.scalar_seconds = TimeSeconds(
        vec_reps, [&] { sink = sink + ScalarDot(x.data(), y.data(), d); });
    dot.kernel_seconds = TimeSeconds(
        vec_reps, [&] { sink = sink + simd::Dot(x.data(), y.data(), d); });
    dot_checksum += simd::Dot(x.data(), y.data(), d);
    timings.push_back(dot);

    KernelTiming dist{"distance", d, 0.0, 0.0};
    dist.scalar_seconds = TimeSeconds(vec_reps, [&] {
      sink = sink + ScalarSquaredDistance(x.data(), y.data(), d);
    });
    dist.kernel_seconds = TimeSeconds(vec_reps, [&] {
      sink = sink + simd::SquaredDistance(x.data(), y.data(), d);
    });
    distance_checksum += simd::SquaredDistance(x.data(), y.data(), d);
    timings.push_back(dist);

    KernelTiming matvec{"matvec", d, 0.0, 0.0};
    matvec.scalar_seconds = TimeSeconds(mat_reps, [&] {
      std::fill(out.begin(), out.end(), 0.0);
      ScalarMatVec(mat.data(), kMatRows, d, x.data(), out.data());
      sink = sink + out[0];
    });
    matvec.kernel_seconds = TimeSeconds(mat_reps, [&] {
      std::fill(out.begin(), out.end(), 0.0);
      simd::MatVec(mat.data(), kMatRows, d, x.data(), out.data());
      sink = sink + out[0];
    });
    std::fill(out.begin(), out.end(), 0.0);
    simd::MatVec(mat.data(), kMatRows, d, x.data(), out.data());
    matvec_checksum += simd::Sum(out.data(), out.size());
    timings.push_back(matvec);

    KernelTiming block_timing{"score_block", d, 0.0, 0.0};
    block_timing.scalar_seconds = TimeSeconds(block_reps, [&] {
      ScalarScoreBlock(queries.data(), kBlockQueries, items.data(),
                       kBlockItems, d, block.data());
      sink = sink + block[0];
    });
    block_timing.kernel_seconds = TimeSeconds(block_reps, [&] {
      simd::ScoreBlock(queries.data(), kBlockQueries, items.data(),
                       kBlockItems, d, block.data());
      sink = sink + block[0];
    });
    simd::ScoreBlock(queries.data(), kBlockQueries, items.data(), kBlockItems,
                     d, block.data());
    score_block_checksum += simd::Sum(block.data(), block.size());
    timings.push_back(block_timing);
  }

  // Untimed checksums for the remaining kernels, at an odd length so the
  // tail lanes are exercised too.
  {
    const size_t n = 257;
    std::vector<double> a = RandomVector(n, &rng);
    std::vector<double> b = RandomVector(n, &rng);
    std::vector<double> c = RandomVector(n, &rng);
    std::vector<double> buffer(n, 0.0);
    metrics.GetGauge("hlm.bench.kernels_norm_checksum")
        ->Set(simd::SquaredNorm(a.data(), n));
    metrics.GetGauge("hlm.bench.kernels_sum_checksum")
        ->Set(simd::Sum(a.data(), n));
    simd::Axpy(0.5, a.data(), buffer.data(), n);
    metrics.GetGauge("hlm.bench.kernels_axpy_checksum")
        ->Set(simd::Sum(buffer.data(), n));
    simd::ShiftedProduct(a.data(), 0.25, b.data(), buffer.data(), n);
    metrics.GetGauge("hlm.bench.kernels_shifted_product_checksum")
        ->Set(simd::Sum(buffer.data(), n));
    // GibbsScore divides by topic totals; keep them strictly positive.
    std::vector<double> totals(n);
    for (size_t i = 0; i < n; ++i) totals[i] = 1.0 + c[i] * c[i];
    simd::GibbsScore(a.data(), 0.1, b.data(), 0.01, totals.data(), 2.0,
                     buffer.data(), n);
    metrics.GetGauge("hlm.bench.kernels_gibbs_score_checksum")
        ->Set(simd::Sum(buffer.data(), n));
  }
  metrics.GetGauge("hlm.bench.kernels_dot_checksum")->Set(dot_checksum);
  metrics.GetGauge("hlm.bench.kernels_distance_checksum")
      ->Set(distance_checksum);
  metrics.GetGauge("hlm.bench.kernels_matvec_checksum")->Set(matvec_checksum);
  metrics.GetGauge("hlm.bench.kernels_score_block_checksum")
      ->Set(score_block_checksum);
  (void)sink;

  std::printf("%-12s | %6s | %10s | %10s | %8s\n", "kernel", "d",
              "scalar(s)", "simd(s)", "speedup");
  bool gate_ok = true;
  const bool avx2_active = simd::ActivePathName() == "avx2";
  for (const KernelTiming& t : timings) {
    std::printf("%-12s | %6zu | %10.6f | %10.6f | %7.2fx\n", t.name.c_str(),
                t.d, t.scalar_seconds, t.kernel_seconds, t.speedup());
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", t.speedup());
    metrics.SetMeta(
        "kernels.speedup." + t.name + "_d" + std::to_string(t.d), buffer);
    if (min_speedup > 0.0 && avx2_active && t.d >= 64 &&
        t.speedup() < min_speedup) {
      std::fprintf(stderr,
                   "kernel '%s' d=%zu speedup %.2fx below --min_speedup "
                   "%.2fx\n",
                   t.name.c_str(), t.d, t.speedup(), min_speedup);
      gate_ok = false;
    }
  }
  return gate_ok;
}

// ---------------------------------------------------------------------
// ablations suite: the design-choice ablations (DESIGN.md §5: LDA
// held-out estimator cost, CHH context depth, LSTM capacity across the
// Fig. 1 grid) and the corpus and clustering substrates behind them.
// Each case is one phase that runs its workload once over the suite
// corpus (the corpus-size cases generate the size in their name); its
// deterministic output — a perplexity, count or checksum — lands in the
// gauge hlm.bench.<phase>_<output>, which --check compares exactly.
// Setup a case does before opening its phase (training the model a
// query case probes, generating a sized corpus) is not timed.

/// Position-weighted sum: a cheap checksum that sees every entry.
double Checksum(const std::vector<double>& values) {
  double sum = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    sum += values[i] * static_cast<double>(i + 1);
  }
  return sum;
}

/// What the ablation cases share, built once before the first phase.
struct AblationInputs {
  const corpus::Corpus& corpus;
  std::vector<models::TokenSequence> sequences;  ///< every company
  std::vector<models::TokenSequence> slice;      ///< the first 100
  models::LdaModel lda;                 ///< k = 4, default Gibbs schedule
  models::ConditionalHeavyHitters chh;  ///< default config (depth 2)
  std::vector<std::vector<double>> points;  ///< binary representation
  std::vector<int> clusters;                ///< k-means (k = 8) of points
};

AblationInputs MakeAblationInputs(const corpus::Corpus& corpus) {
  const int vocab = corpus.num_categories();
  models::LdaConfig lda_config;
  lda_config.num_topics = 4;
  AblationInputs in{corpus,
                    corpus.Sequences(),
                    {},
                    models::LdaModel(vocab, lda_config),
                    models::ConditionalHeavyHitters(vocab, {}),
                    repr::BinaryRepresentation(corpus),
                    {}};
  in.slice.assign(in.sequences.begin(),
                  in.sequences.begin() +
                      std::min<size_t>(100, in.sequences.size()));
  HLM_CHECK_OK(in.lda.Train(in.sequences));
  in.chh.Train(in.sequences);
  Result<cluster::KMeansResult> clusters =
      cluster::KMeans(in.points, cluster::KMeansConfig{});
  HLM_CHECK_OK(clusters.status());
  in.clusters = clusters->assignments;
  return in;
}

double LdaGibbs(const AblationInputs& in, const std::string& phase,
                int topics) {
  models::LdaConfig config;
  config.num_topics = topics;
  config.burn_in_iterations = 20;
  config.post_burn_in_samples = 2;
  models::LdaModel lda(in.corpus.num_categories(), config);
  {
    bench::ScopedPhase timed(phase);
    HLM_CHECK_OK(lda.Train(in.sequences));
  }
  return lda.Perplexity(in.slice);
}

double ChhDepth(const AblationInputs& in, const std::string& phase,
                int depth) {
  models::ChhConfig config;
  config.context_depth = depth;
  models::ConditionalHeavyHitters chh(in.corpus.num_categories(), config);
  {
    bench::ScopedPhase timed(phase);
    chh.Train(in.sequences);
  }
  return static_cast<double>(chh.ExtractRules(0.2).size());
}

double ChhApproximate(const AblationInputs& in, const std::string& phase,
                      size_t max_contexts) {
  models::ApproximateChh chh(in.corpus.num_categories(), models::ChhConfig{},
                             max_contexts, /*sketch_capacity=*/8);
  bench::ScopedPhase timed(phase);
  chh.Train(in.sequences);
  return static_cast<double>(chh.num_contexts());
}

double GenerateCorpus(const std::string& phase, int companies) {
  corpus::GeneratorConfig config;
  config.num_companies = companies;
  // Skew calibration would dominate; keep it fixed so the phase
  // measures generation alone.
  config.auto_calibrate_skew = false;
  config.popularity_skew = 2.6;
  corpus::SyntheticHgGenerator generator(config);
  bench::ScopedPhase timed(phase);
  corpus::GeneratedCorpus world = generator.Generate();
  double installs = 0.0;
  for (const corpus::CompanyRecord& record : world.corpus.records()) {
    installs += static_cast<double>(record.install_base.size());
  }
  return installs;
}

double LinkRecords(const std::string& phase, int companies) {
  corpus::GeneratedCorpus world =
      corpus::GenerateDefaultCorpus(companies, 42);
  corpus::InternalDbOptions options;
  options.client_fraction = 0.1;
  corpus::InternalDatabase db =
      corpus::SimulateInternalDatabase(world.corpus, options);
  bench::ScopedPhase timed(phase);
  return corpus::LinkInternalDatabase(world.corpus, &db, 0.88);
}

double KMeansCase(const AblationInputs& in, const std::string& phase,
                  int clusters) {
  cluster::KMeansConfig config;
  config.num_clusters = clusters;
  config.max_iterations = 20;
  bench::ScopedPhase timed(phase);
  Result<cluster::KMeansResult> result = cluster::KMeans(in.points, config);
  HLM_CHECK_OK(result.status());
  return result->inertia;
}

/// sample = 0 scores every point.
double Silhouette(const AblationInputs& in, const std::string& phase,
                  int sample) {
  bench::ScopedPhase timed(phase);
  Result<double> score = cluster::SilhouetteScore(
      in.points, in.clusters, cluster::DistanceKind::kEuclidean, sample);
  HLM_CHECK_OK(score.status());
  return *score;
}

double Distances(const AblationInputs& in, const std::string& phase,
                 cluster::DistanceKind kind) {
  std::vector<std::vector<double>> points(
      in.points.begin(),
      in.points.begin() + std::min<size_t>(300, in.points.size()));
  bench::ScopedPhase timed(phase);
  double sum = 0.0;
  for (double d : cluster::PairwiseDistances(kind, points)) sum += d;
  return sum;
}

/// t-SNE of 38 random 4-d points: the Fig. 8/9 product-embedding size.
double TsneCase(const std::string& phase, int iterations) {
  std::vector<std::vector<double>> points(38, std::vector<double>(4));
  Rng rng(3);
  for (std::vector<double>& point : points) {
    for (double& v : point) v = rng.NextDouble();
  }
  cluster::TsneConfig config;
  config.iterations = iterations;
  bench::ScopedPhase timed(phase);
  Result<std::vector<std::vector<double>>> embedding =
      cluster::Tsne(points, config);
  HLM_CHECK_OK(embedding.status());
  double spread = 0.0;  // the embedding is centred, so sum its squares
  for (const std::vector<double>& row : *embedding) {
    for (double v : row) spread += v * v;
  }
  return spread;
}

double LstmEpoch(const AblationInputs& in, const std::string& phase,
                 int layers, int hidden) {
  models::LstmConfig config;
  config.num_layers = layers;
  config.hidden_size = hidden;
  config.epochs = 1;
  models::LstmLanguageModel lstm(in.corpus.num_categories(), config);
  bench::ScopedPhase timed(phase);
  return lstm.Train(in.sequences, {}).back().train_perplexity;
}

double LstmEval(const AblationInputs& in, const std::string& phase,
                int hidden) {
  models::LstmConfig config;
  config.hidden_size = hidden;
  models::LstmLanguageModel lstm(in.corpus.num_categories(), config);
  bench::ScopedPhase timed(phase);
  return lstm.Perplexity(in.sequences);
}

/// Next-product distribution of every sequence, summed into one checksum.
double QueryAll(const models::ConditionalScorer& scorer,
                const AblationInputs& in, const std::string& phase) {
  bench::ScopedPhase timed(phase);
  double checksum = 0.0;
  for (const models::TokenSequence& sequence : in.sequences) {
    checksum += Checksum(scorer.NextProductDistribution(sequence));
  }
  return checksum;
}

struct AblationCase {
  std::string phase;
  std::string output;  ///< the gauge is hlm.bench.<phase>_<output>
  /// Runs the case, timing its workload inside bench::ScopedPhase(phase).
  std::function<double(const AblationInputs&, const std::string&)> run;
};

std::vector<AblationCase> AblationCases() {
  using In = const AblationInputs&;
  using Phase = const std::string&;
  std::vector<AblationCase> cases;
  for (int k : {2, 4, 8, 16}) {
    cases.push_back({"lda_gibbs_k" + std::to_string(k), "perplexity",
                     [k](In in, Phase p) { return LdaGibbs(in, p, k); }});
  }
  cases.push_back({"lda_fold_in", "checksum", [](In in, Phase p) {
                     bench::ScopedPhase timed(p);
                     double checksum = 0.0;
                     for (const models::TokenSequence& s : in.sequences) {
                       checksum += Checksum(in.lda.InferTopicMixture(s));
                     }
                     return checksum;
                   }});
  cases.push_back({"lda_perplexity_plugin", "perplexity", [](In in, Phase p) {
                     bench::ScopedPhase timed(p);
                     return in.lda.Perplexity(in.slice);
                   }});
  for (int particles : {5, 20}) {
    cases.push_back(
        {"lda_perplexity_l2r_p" + std::to_string(particles), "perplexity",
         [particles](In in, Phase p) {
           bench::ScopedPhase timed(p);
           return in.lda.PerplexityLeftToRight(in.slice, particles);
         }});
  }
  for (int depth : {1, 2, 3}) {
    cases.push_back({"chh_depth" + std::to_string(depth), "rules",
                     [depth](In in, Phase p) {
                       return ChhDepth(in, p, depth);
                     }});
  }
  for (size_t contexts : {64, 1024}) {
    cases.push_back({"chh_approx_" + std::to_string(contexts), "contexts",
                     [contexts](In in, Phase p) {
                       return ChhApproximate(in, p, contexts);
                     }});
  }
  cases.push_back({"chh_query", "checksum",
                   [](In in, Phase p) { return QueryAll(in.chh, in, p); }});
  cases.push_back({"chh_rules", "count", [](In in, Phase p) {
                     bench::ScopedPhase timed(p);
                     return static_cast<double>(
                         in.chh.ExtractRules(0.2).size());
                   }});
  for (int companies : {500, 2000}) {
    cases.push_back({"corpus_generate_" + std::to_string(companies),
                     "installs", [companies](In, Phase p) {
                       return GenerateCorpus(p, companies);
                     }});
  }
  cases.push_back({"corpus_aggregate_sites", "installs", [](In in, Phase p) {
                     bench::ScopedPhase timed(p);
                     double installs = 0.0;
                     for (const auto& record : in.corpus.records()) {
                       installs += static_cast<double>(
                           corpus::AggregateSites(record.company).size());
                     }
                     return installs;
                   }});
  cases.push_back({"corpus_tfidf", "checksum", [](In in, Phase p) {
                     bench::ScopedPhase timed(p);
                     auto model = corpus::TfidfModel::Fit(in.corpus);
                     double checksum = 0.0;
                     for (const std::vector<double>& row :
                          model.TransformAll(in.corpus)) {
                       checksum += Checksum(row);
                     }
                     return checksum;
                   }});
  for (int companies : {300, 1000}) {
    cases.push_back({"corpus_linkage_" + std::to_string(companies), "linked",
                     [companies](In, Phase p) {
                       return LinkRecords(p, companies);
                     }});
  }
  cases.push_back({"corpus_sliding_window", "best_f1", [](In in, Phase p) {
                     recsys::RecommendationEvalConfig config;
                     config.thresholds = recsys::DefaultThresholds();
                     bench::ScopedPhase timed(p);
                     double best_f1 = 0.0;
                     for (const recsys::ThresholdEvaluation& eval :
                          recsys::EvaluateRandomBaseline(in.corpus, config)) {
                       best_f1 = std::max(best_f1, eval.mean_f1);
                     }
                     return best_f1;
                   }});
  for (int k : {8, 50, 200}) {
    cases.push_back({"cluster_kmeans_k" + std::to_string(k), "inertia",
                     [k](In in, Phase p) { return KMeansCase(in, p, k); }});
  }
  cases.push_back({"cluster_silhouette_full", "score",
                   [](In in, Phase p) { return Silhouette(in, p, 0); }});
  for (int sample : {200, 500}) {
    cases.push_back({"cluster_silhouette_s" + std::to_string(sample), "score",
                     [sample](In in, Phase p) {
                       return Silhouette(in, p, sample);
                     }});
  }
  cases.push_back({"cluster_distances_euclidean", "checksum",
                   [](In in, Phase p) {
                     return Distances(in, p, cluster::DistanceKind::kEuclidean);
                   }});
  cases.push_back({"cluster_distances_cosine", "checksum", [](In in, Phase p) {
                     return Distances(in, p, cluster::DistanceKind::kCosine);
                   }});
  for (int iterations : {200, 800}) {
    cases.push_back({"cluster_tsne_i" + std::to_string(iterations), "spread",
                     [iterations](In, Phase p) {
                       return TsneCase(p, iterations);
                     }});
  }
  for (auto [layers, hidden] : {std::pair{1, 10}, std::pair{1, 100},
                                std::pair{1, 200}, std::pair{2, 100},
                                std::pair{3, 100}}) {
    cases.push_back({"lstm_epoch_l" + std::to_string(layers) + "_h" +
                         std::to_string(hidden),
                     "perplexity", [layers, hidden](In in, Phase p) {
                       return LstmEpoch(in, p, layers, hidden);
                     }});
  }
  for (int hidden : {100, 300}) {
    cases.push_back({"lstm_eval_h" + std::to_string(hidden), "perplexity",
                     [hidden](In in, Phase p) {
                       return LstmEval(in, p, hidden);
                     }});
  }
  cases.push_back({"lstm_query", "checksum", [](In in, Phase p) {
                     models::LstmConfig config;
                     config.hidden_size = 100;
                     models::LstmLanguageModel lstm(
                         in.corpus.num_categories(), config);
                     return QueryAll(lstm, in, p);
                   }});
  return cases;
}

void RunAblationSuite(const bench::BenchEnv& env) {
  const AblationInputs inputs = MakeAblationInputs(env.world.corpus);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (const AblationCase& c : AblationCases()) {
    metrics.GetGauge("hlm.bench." + c.phase + "_" + c.output)
        ->Set(c.run(inputs, c.phase));
  }
}

// ---------------------------------------------------------------------
// parallel suite: the thread-scaling curve of the parallelised hot paths
// (held-out LDA perplexity, sliding-window recommender evaluation). Each
// point is the phase <workload>_t1/_t2/_t4/_tmax (tmax = every hardware
// thread), so the phase set is the same on every machine. The results
// must be bit-identical at every point (the determinism contract); the
// suite aborts when they are not.

const char* const kParallelWorkloads[] = {"lda_perplexity",
                                          "evaluate_recommender"};
const char* const kThreadPoints[] = {"t1", "t2", "t4", "tmax"};

void RunParallelSuite(const bench::BenchEnv& env) {
  models::LdaModel lda = [&] {
    bench::ScopedPhase phase("train_lda");
    models::LdaConfig config;
    config.num_topics = 4;
    models::LdaModel model(env.world.corpus.num_categories(), config);
    HLM_CHECK_OK(model.Train(env.train_seqs_pre2013));
    return model;
  }();
  recsys::RecommendationEvalConfig eval_config;
  eval_config.thresholds = {0.05, 0.10, 0.15};
  // Read-only capacity query, no thread is spawned here.
  // hlm-lint: allow(no-raw-thread)
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const int threads[] = {1, 2, 4, std::max(1, cores)};

  double reference_perplexity = 0.0;
  std::vector<double> reference_evals;
  for (size_t point = 0; point < std::size(kThreadPoints); ++point) {
    SetNumThreads(threads[point]);
    const std::string suffix = std::string("_") + kThreadPoints[point];
    double perplexity = 0.0;
    {
      bench::ScopedPhase phase(kParallelWorkloads[0] + suffix);
      perplexity = lda.Perplexity(env.test_seqs);
    }
    std::vector<double> evals;  // precision, recall, F1 per threshold
    {
      bench::ScopedPhase phase(kParallelWorkloads[1] + suffix);
      for (const recsys::ThresholdEvaluation& eval :
           recsys::EvaluateRecommender(lda, env.world.corpus, eval_config)) {
        evals.insert(evals.end(),
                     {eval.mean_precision, eval.mean_recall, eval.mean_f1});
      }
    }
    if (point == 0) {
      reference_perplexity = perplexity;
      reference_evals = evals;
    }
    HLM_CHECK(perplexity == reference_perplexity)
        << "LDA perplexity differed at " << threads[point] << " threads";
    HLM_CHECK(evals == reference_evals)
        << "recommender evaluation differed at " << threads[point]
        << " threads";
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("hlm.bench.parallel_lda_perplexity")
      ->Set(reference_perplexity);
  metrics.GetGauge("hlm.bench.parallel_eval_checksum")
      ->Set(Checksum(reference_evals));
}

// ---------------------------------------------------------------------
// The suite table: --list, the --suite lookup, and each suite's default
// corpus size all read it.

/// A suite runner's inputs: the corpus environment (null when the suite
/// builds no corpus) and the kernels suite's --min_speedup bar.
struct SuiteArgs {
  const bench::BenchEnv* env = nullptr;
  double min_speedup = 0.0;
};

struct Suite {
  const char* name;
  long long companies;  ///< default --companies; 0 = no corpus is built
  bool (*run)(const SuiteArgs& args);  ///< false = an in-suite gate failed
  const char* description;
  std::vector<std::string> phases;
};

const std::vector<Suite>& Suites() {
  static const std::vector<Suite>* suites = [] {
    const std::vector<std::string> smoke = {
        "make_env",    "train_lda",         "lda_perplexity", "train_chh",
        "recsys_eval", "similarity_search", "serve_registry"};
    std::vector<std::string> full = smoke;
    full.insert(full.end(), {"train_lstm", "train_bpmf"});
    std::vector<std::string> ablations = {"make_env"};
    for (const AblationCase& c : AblationCases()) ablations.push_back(c.phase);
    std::vector<std::string> parallel = {"make_env", "train_lda"};
    for (const char* workload : kParallelWorkloads) {
      for (const char* point : kThreadPoints) {
        parallel.push_back(std::string(workload) + "_" + point);
      }
    }
    return new std::vector<Suite>{
        {"smoke", 300,
         [](const SuiteArgs& a) {
           RunModelSuite(*a.env, /*full=*/false);
           return true;
         },
         "fast tier-1 suite: corpus, LDA + CHH, threshold sweep, "
         "similarity search, registry round trip",
         smoke},
        {"full", 800,
         [](const SuiteArgs& a) {
           RunModelSuite(*a.env, /*full=*/true);
           return true;
         },
         "smoke plus LSTM and BPMF training", full},
        {"kernels", 0,
         [](const SuiteArgs& a) { return RunKernelsSuite(a.min_speedup); },
         "dispatched SIMD kernels vs scalar references (dot, distance, "
         "matvec, score_block)",
         {"kernels"}},
        {"serve", 150,
         [](const SuiteArgs& a) {
           RunServeSuite(*a.env);
           return true;
         },
         "snapshot -> hlm_serve boot -> request mix -> hot reload",
         {"make_env", "serve_snapshot", "serve_start", "serve_requests",
          "serve_reload"}},
        {"ablations", 600,
         [](const SuiteArgs& a) {
           RunAblationSuite(*a.env);
           return true;
         },
         "design-choice ablations: LDA estimators, CHH depth, LSTM "
         "capacity, corpus and clustering substrates",
         ablations},
        {"parallel", 600,
         [](const SuiteArgs& a) {
           RunParallelSuite(*a.env);
           return true;
         },
         "thread scaling of the parallel hot paths; results must be "
         "bit-identical at every point",
         parallel},
    };
  }();
  return *suites;
}

/// Metrics whose values legitimately vary across machines or thread
/// counts: the parallel subsystem's task/chunk accounting depends on the
/// worker count, hlm.bench.threads records it directly, and the kernel
/// dispatch gauges reflect the host CPU's ISA. Everything else is
/// covered by the determinism contract and compared exactly — including
/// the kernels suite's checksum gauges, which the lane-blocked summation
/// contract makes bit-identical across the portable and AVX2 paths.
bool MachineDependent(const std::string& name) {
  return name.rfind("hlm.parallel.", 0) == 0 ||
         name.rfind("hlm.math.kernel.", 0) == 0 ||
         // Tail-sampling keep decisions hinge on measured request
         // latency (the slow-request threshold), so kept/slow counts
         // vary with host speed.
         name.rfind("hlm.serve.trace.", 0) == 0 ||
         name == "hlm.bench.threads" ||
         // The ephemeral listen port is the OS's pick, not a metric.
         name == "hlm.serve.server.port";
}

std::string MetaOr(const obs::MetricsSnapshot& snapshot,
                   const std::string& key, const std::string& fallback) {
  auto it = snapshot.meta.find(key);
  return it == snapshot.meta.end() ? fallback : it->second;
}

/// Compares a fresh run against a baseline snapshot. Returns regression
/// messages (empty = pass); config mismatches land in `config_errors`
/// instead, because comparing runs of different configurations is an
/// operator error rather than a perf regression.
std::vector<std::string> CompareSnapshots(
    const obs::MetricsSnapshot& baseline, const obs::MetricsSnapshot& current,
    double tolerance, double slack, std::vector<std::string>* config_errors) {
  std::vector<std::string> regressions;
  for (const char* key : {"schema", "suite", "seed", "companies"}) {
    std::string base = MetaOr(baseline, key, "<missing>");
    std::string cur = MetaOr(current, key, "<missing>");
    if (base != cur) {
      config_errors->push_back(std::string("meta '") + key +
                               "' differs: baseline=" + base +
                               " current=" + cur);
    }
  }
  if (!config_errors->empty()) return regressions;

  auto compare_keys = [&regressions](const std::string& section,
                                     const auto& base_map,
                                     const auto& cur_map, const auto& check) {
    std::set<std::string> names;
    for (const auto& [name, value] : base_map) names.insert(name);
    for (const auto& [name, value] : cur_map) names.insert(name);
    for (const std::string& name : names) {
      if (MachineDependent(name)) continue;
      auto base_it = base_map.find(name);
      auto cur_it = cur_map.find(name);
      if (base_it == base_map.end() || cur_it == cur_map.end()) {
        regressions.push_back(
            section + " '" + name + "' " +
            (base_it == base_map.end() ? "missing from baseline"
                                       : "missing from current run") +
            " (regenerate the baseline if the harness changed)");
        continue;
      }
      check(name, base_it->second, cur_it->second);
    }
  };

  compare_keys("counter", baseline.counters, current.counters,
               [&](const std::string& name, long long base, long long cur) {
                 if (base != cur) {
                   regressions.push_back(
                       "counter '" + name + "' changed: baseline=" +
                       std::to_string(base) + " current=" +
                       std::to_string(cur));
                 }
               });
  compare_keys("gauge", baseline.gauges, current.gauges,
               [&](const std::string& name, double base, double cur) {
                 if (base != cur) {
                   char buffer[160];
                   std::snprintf(buffer, sizeof(buffer),
                                 "gauge '%s' changed: baseline=%.17g "
                                 "current=%.17g",
                                 name.c_str(), base, cur);
                   regressions.push_back(buffer);
                 }
               });
  compare_keys(
      "histogram", baseline.histograms, current.histograms,
      [&](const std::string& name, const obs::HistogramSnapshot& base,
          const obs::HistogramSnapshot& cur) {
        // Only the observation count is deterministic; the observed
        // values are wall times and belong to the walltime tolerance
        // check below.
        if (base.count != cur.count) {
          regressions.push_back(
              "histogram '" + name + "' observation count changed: " +
              "baseline=" + std::to_string(base.count) +
              " current=" + std::to_string(cur.count));
        }
      });

  // Walltimes: noisy by nature, so a phase only fails when it exceeds
  // baseline * tolerance + slack (the additive slack keeps microsecond
  // phases from tripping on scheduler jitter).
  std::set<std::string> walltime_keys;
  for (const auto& [key, value] : baseline.meta) {
    if (key.rfind("walltime.", 0) == 0) walltime_keys.insert(key);
  }
  for (const auto& [key, value] : current.meta) {
    if (key.rfind("walltime.", 0) == 0) walltime_keys.insert(key);
  }
  for (const std::string& key : walltime_keys) {
    auto base_it = baseline.meta.find(key);
    auto cur_it = current.meta.find(key);
    if (base_it == baseline.meta.end() || cur_it == current.meta.end()) {
      regressions.push_back(
          "phase '" + key + "' " +
          (base_it == baseline.meta.end() ? "missing from baseline"
                                          : "missing from current run") +
          " (regenerate the baseline if the phase set changed)");
      continue;
    }
    double base = std::strtod(base_it->second.c_str(), nullptr);
    double cur = std::strtod(cur_it->second.c_str(), nullptr);
    double limit = base * tolerance + slack;
    if (cur > limit) {
      char buffer[200];
      std::snprintf(buffer, sizeof(buffer),
                    "%s regressed: baseline=%.6fs current=%.6fs "
                    "limit=%.6fs (tolerance %.2fx + %.3fs slack)",
                    key.c_str(), base, cur, limit, tolerance, slack);
      regressions.push_back(buffer);
    }
  }
  return regressions;
}

Result<obs::MetricsSnapshot> LoadSnapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open baseline: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return obs::MetricsSnapshot::FromJson(buffer.str());
}

int Main(int argc, char** argv) {
  FlagSet flags;
  bench::RunFlags run;
  bench::AddRunFlags(&flags, &run);
  std::string suite_name = "smoke";
  std::string out;
  std::string baseline_path;
  bool check = false;
  bool update_baseline = false;
  bool list = false;
  double walltime_tolerance = 1.6;
  double walltime_slack = 0.05;
  double inject_slowdown = 1.0;
  double min_speedup = 0.0;
  flags.AddString("suite", &suite_name, "bench suite (see --list)");
  flags.AddString("out", &out,
                  "write the run's BENCH JSON here (default "
                  "BENCH_<suite>.json; 'none' skips the write)");
  flags.AddString("baseline", &baseline_path,
                  "baseline JSON for --check/--update_baseline (default "
                  "bench/baselines/<suite>.json)");
  flags.AddBool("check", &check,
                "compare this run against the baseline; exit 1 on "
                "regression");
  flags.AddBool("update_baseline", &update_baseline,
                "write this run's snapshot to the baseline path");
  flags.AddBool("list", &list, "list suites and phases, then exit");
  flags.AddDouble("walltime_tolerance", &walltime_tolerance,
                  "multiplicative walltime budget vs baseline");
  flags.AddDouble("walltime_slack", &walltime_slack,
                  "additive walltime budget in seconds (absorbs jitter on "
                  "sub-millisecond phases)");
  flags.AddDouble("inject_slowdown", &inject_slowdown,
                  "stretch every phase by this factor (self-test hook; "
                  "1 = off)");
  flags.AddDouble("min_speedup", &min_speedup,
                  "kernels suite only: fail when any timed kernel at "
                  "d >= 64 beats the scalar reference by less than this "
                  "factor while the AVX2 path is active (0 = off)");
  Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (list) {
    for (const Suite& candidate : Suites()) {
      std::printf("%-10s %s (default --companies %lld)\n", candidate.name,
                  candidate.description, candidate.companies);
      for (const std::string& phase : candidate.phases) {
        std::printf("             %s\n", phase.c_str());
      }
    }
    return 0;
  }
  const Suite* suite = nullptr;
  std::string names;
  for (const Suite& candidate : Suites()) {
    if (suite_name == candidate.name) suite = &candidate;
    names += names.empty() ? "" : ", ";
    names += candidate.name;
  }
  if (suite == nullptr) {
    std::fprintf(stderr, "unknown --suite: %s (want one of %s)\n",
                 suite_name.c_str(), names.c_str());
    return 2;
  }
  if (inject_slowdown < 1.0) {
    std::fprintf(stderr, "--inject_slowdown must be >= 1\n");
    return 2;
  }
  if (run.companies <= 0) run.companies = suite->companies;
  if (out.empty()) out = "BENCH_" + suite_name + ".json";
  if (baseline_path.empty()) {
    baseline_path = "bench/baselines/" + suite_name + ".json";
  }
  bench::SetPhaseSlowdown(inject_slowdown);
  bench::StartRun(run, "hlm_bench", suite_name);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.SetMeta("schema", kSchema);
  metrics.SetMeta("suite", suite_name);

  std::printf("hlm_bench: suite=%s companies=%lld seed=%lld threads=%d "
              "simd=%s run_id=%s\n",
              suite->name, run.companies, run.seed, NumThreads(),
              simd::ActivePathName().c_str(), bench::RunId().c_str());
  std::optional<bench::BenchEnv> env;
  if (suite->companies > 0) env = bench::BuildEnv(run.companies, run.seed);
  const bool suite_ok = suite->run({env ? &*env : nullptr, min_speedup});

  obs::MetricsSnapshot snapshot = bench::Snapshot();
  for (const auto& [key, seconds] : snapshot.meta) {
    if (key.rfind("walltime.", 0) == 0) {
      std::printf("  %-44s %ss\n", key.c_str(), seconds.c_str());
    }
  }
  if (out != "none") {
    std::ofstream out_stream(out);
    if (!out_stream) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 2;
    }
    out_stream << snapshot.ToJson() << "\n";
    std::printf("bench snapshot written to %s\n", out.c_str());
  }
  if (update_baseline) {
    fs::path parent = fs::path(baseline_path).parent_path();
    if (!parent.empty()) fs::create_directories(parent);
    std::ofstream baseline_stream(baseline_path);
    if (!baseline_stream) {
      std::fprintf(stderr, "cannot write %s\n", baseline_path.c_str());
      return 2;
    }
    baseline_stream << snapshot.ToJson() << "\n";
    std::printf("baseline updated: %s\n", baseline_path.c_str());
  }
  if (!suite_ok) {
    std::fprintf(stderr, "%s suite gate FAILED\n", suite->name);
    return 1;
  }
  if (!check) return 0;

  Result<obs::MetricsSnapshot> baseline = LoadSnapshot(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "check failed: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  std::vector<std::string> config_errors;
  std::vector<std::string> regressions = CompareSnapshots(
      *baseline, snapshot, walltime_tolerance, walltime_slack,
      &config_errors);
  if (!config_errors.empty()) {
    for (const std::string& error : config_errors) {
      std::fprintf(stderr, "config mismatch: %s\n", error.c_str());
    }
    std::fprintf(stderr,
                 "check aborted: run configuration does not match the "
                 "baseline (%s)\n", baseline_path.c_str());
    return 2;
  }
  if (!regressions.empty()) {
    for (const std::string& regression : regressions) {
      std::fprintf(stderr, "REGRESSION: %s\n", regression.c_str());
    }
    std::fprintf(stderr, "check FAILED: %zu regression(s) vs %s\n",
                 regressions.size(), baseline_path.c_str());
    return 1;
  }
  std::printf("check OK: metrics match %s, walltimes within %.2fx + %.3fs\n",
              baseline_path.c_str(), walltime_tolerance, walltime_slack);
  return 0;
}

}  // namespace
}  // namespace hlm

int main(int argc, char** argv) { return hlm::Main(argc, argv); }
