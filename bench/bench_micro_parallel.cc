// Thread-scaling curve for the parallelised hot paths: held-out LDA
// perplexity and the sliding-window recommender evaluation, measured at
// 1, 2, 4 and all-hardware threads. Besides wall time it verifies the
// determinism contract: every workload must produce bit-identical
// results at every thread count. Emits a machine-readable summary
// (default BENCH_parallel.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "models/lda.h"
#include "obs/json.h"
#include "recsys/evaluation.h"

namespace hlm {
namespace {

double TimeBestOf(int reps, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

struct SeriesPoint {
  int threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;
};

struct Workload {
  std::string name;
  std::vector<SeriesPoint> series;
  bool identical = true;  // results bit-identical across thread counts
};

std::vector<int> ThreadCounts() {
  // Read-only capacity query, no thread is spawned here.
  // hlm-lint: allow(no-raw-thread)
  int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> counts = {1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

std::string ToJson(const std::vector<Workload>& workloads) {
  obs::JsonWriter json;
  json.BeginObject().Key("run_id").String(bench::RunId());
  json.Key("host_cores")  // hlm-lint: allow(no-raw-thread)
      .Int(std::thread::hardware_concurrency());
  json.Key("workloads").BeginArray();
  for (const Workload& workload : workloads) {
    json.BeginObject().Key("name").String(workload.name);
    json.Key("identical").Bool(workload.identical);
    json.Key("series").BeginArray();
    for (const SeriesPoint& p : workload.series) {
      json.BeginObject().Key("threads").Int(p.threads);
      json.Key("seconds").Number(p.seconds);
      json.Key("speedup").Number(p.speedup).EndObject();
    }
    json.EndArray().EndObject();
  }
  return json.EndArray().EndObject().Take() + "\n";
}

int Main(int argc, char** argv) {
  FlagSet flags;
  std::string json_out = "BENCH_parallel.json";
  long long reps = 3;
  flags.AddString("json_out", &json_out,
                  "write the scaling summary JSON here (empty = skip)");
  flags.AddInt64("reps", &reps, "repetitions per point (best-of)");
  bench::BenchEnv env = bench::MakeEnv(argc, argv, &flags,
                                       /*default_companies=*/600);
  bench::PrintBanner(
      "micro: thread scaling of parallel hot paths",
      "perf study (determinism-preserving parallelism, not a paper figure)",
      env);

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

  Workload ppl{"lda_perplexity", {}, true};
  Workload rec{"evaluate_recommender", {}, true};
  double ppl_reference = 0.0;
  std::vector<recsys::ThresholdEvaluation> rec_reference;

  const std::vector<int> counts = ThreadCounts();
  for (int threads : counts) {
    SetNumThreads(threads);

    double ppl_value = 0.0;
    SeriesPoint p;
    p.threads = threads;
    {
      bench::ScopedPhase phase("lda_perplexity");
      p.seconds = TimeBestOf(static_cast<int>(reps), [&] {
        ppl_value = lda.Perplexity(env.test_seqs);
      });
    }
    if (ppl.series.empty()) {
      ppl_reference = ppl_value;
    } else if (ppl_value != ppl_reference) {
      ppl.identical = false;
    }
    p.speedup = ppl.series.empty() ? 1.0 : ppl.series[0].seconds / p.seconds;
    ppl.series.push_back(p);

    std::vector<recsys::ThresholdEvaluation> evals;
    SeriesPoint q;
    q.threads = threads;
    {
      bench::ScopedPhase phase("evaluate_recommender");
      q.seconds = TimeBestOf(static_cast<int>(reps), [&] {
        evals = recsys::EvaluateRecommender(lda, env.world.corpus,
                                            eval_config);
      });
    }
    if (rec.series.empty()) {
      rec_reference = evals;
    } else {
      for (size_t i = 0; i < evals.size(); ++i) {
        if (evals[i].mean_precision != rec_reference[i].mean_precision ||
            evals[i].mean_recall != rec_reference[i].mean_recall ||
            evals[i].mean_f1 != rec_reference[i].mean_f1) {
          rec.identical = false;
        }
      }
    }
    q.speedup = rec.series.empty() ? 1.0 : rec.series[0].seconds / q.seconds;
    rec.series.push_back(q);
  }

  std::printf("\n%-24s | %8s | %10s | %8s\n", "workload", "threads",
              "seconds", "speedup");
  for (const Workload* workload : {&ppl, &rec}) {
    for (const SeriesPoint& point : workload->series) {
      std::printf("%-24s | %8d | %10.4f | %7.2fx\n", workload->name.c_str(),
                  point.threads, point.seconds, point.speedup);
    }
    std::printf("%-24s   results bit-identical across thread counts: %s\n",
                "", workload->identical ? "yes" : "NO (BUG)");
  }

  HLM_CHECK(ppl.identical)
      << "LDA perplexity differed across thread counts";
  HLM_CHECK(rec.identical)
      << "recommender evaluation differed across thread counts";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    HLM_CHECK(static_cast<bool>(out)) << "cannot write " << json_out;
    out << ToJson({ppl, rec});
    std::printf("\nscaling summary written to %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace hlm

int main(int argc, char** argv) { return hlm::Main(argc, argv); }
