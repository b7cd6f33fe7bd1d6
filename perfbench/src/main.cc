// hlm_perfbench: the repository benchmark. One invocation runs one
// workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A table of every
// metric (unit, sample count) and, when traced, the span self times and
// the per-layer attribution table go to stderr. perfbench/run.py builds
// this binary and the hlm_serve daemon it drives; see perfbench/README.md.
//
//   hlm_perfbench --workload serve_small --seed 1 --seconds 15 --trace 0
//                 --serve_bin PATH/hlm_serve --work_dir DIR --trace_out FILE
//
// The batch work (snapshot builds, pipeline passes) of untraced runs runs
// in child processes of this binary (--job), so its wall time and peak
// RSS are those of a fresh batch process.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/distance.h"
#include "cluster/silhouette.h"
#include "common/flags.h"
#include "common/status.h"
#include "corpus/generator.h"
#include "daemon.h"
#include "load.h"
#include "math/simd/kernels.h"
#include "models/chh.h"
#include "models/lda.h"
#include "obs/trace.h"
#include "recsys/evaluation.h"
#include "recsys/similarity_search.h"
#include "repr/representation.h"
#include "requests.h"
#include "serve/http_client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using hlm::Result;
using hlm::Status;

// ---------------------------------------------------------------------------
// Settings. Each is one value on purpose; none is a flag.

// Closed-loop qps of each snapshot on nproc connections, with the cores
// kept awake, at the commit that defined the benchmark on a 4-vCPU VM
// (README "Settings"). They size the closed-loop segments and set the
// open-loop rates.
constexpr double kSmallCapacity = 125000.0;   // serve_small, 300 companies
constexpr double kLargeCapacity = 31000.0;    // serve_large / churn, 30k
constexpr double kOfflineCapacity = 65000.0;  // offline traced probe, 10k
// The open loop offers 45 % of capacity: higher, a slower spell of the VM
// pushes it into saturation and p90 jumps to milliseconds; with the cores
// kept awake, lower rates gain nothing.
constexpr double kLoadShare = 0.45;
// 1 in 40 churn requests opens its own connection: enough accepts and
// teardowns to show per-connection costs, few enough to stay a side load.
constexpr int kFreshEvery = 40;
// Churn republishes and scrapes once a second: several reloads per run,
// each finished long before the next.
constexpr double kPublishPeriodS = 1.0;
// hlm_serve's default manifest poll, so the daemon does no extra wake-ups.
constexpr int kPollIntervalMs = 200;
// The corpus is the same for every seed, so the amount of training and
// set-up work is too; the seed picks the request stream.
constexpr uint64_t kCorpusSeed = 2019;
constexpr uint64_t kLdaSeedA = 1234;  // snapshot set a; set b uses +1

struct Workload {
  const char* name;
  int companies;     // companies in the served snapshot or the pipeline
  double zipf_s;     // company-id skew; 0 = uniform
  double capacity;   // closed-loop requests/s; see kSmallCapacity
  bool churn;        // republish + scrape + fresh connections
  bool offline;      // the batch pipeline is the measured work
};

constexpr Workload kWorkloads[] = {
    {"serve_small", 300, 1.1, kSmallCapacity, false, false},
    {"serve_large", 30000, 0.0, kLargeCapacity, false, false},
    {"serve_reload_churn", 30000, 0.0, kLargeCapacity, true, false},
    {"offline_pipeline", 10000, 0.0, kOfflineCapacity, false, true},
};

constexpr int kMinSetups = 3;          // set-ups per run, for a median
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.0;  // more set-ups while they are cheap
constexpr int kOfflineSetups = 9;      // corpus generations per run
constexpr int kMinPasses = 3;          // offline pipeline passes per run
constexpr int kRounds = 10;            // closed + open segments per run
constexpr double kClosedShare = 0.4;   // of each round; the rest is open
// Every phase sends a fixed number of requests (its nominal seconds times
// the workload's rate), so each run serves the same number: the daemon
// keeps 1 in 100 requests in an event buffer that grows to 65,536
// events, and server_rss_mb follows the count served.
constexpr int kWarmupWindows = 8;       // closed-loop warm-up windows ...
constexpr double kWarmupWindowS = 0.5;  // ... of 0.5 s each at capacity
constexpr int kRequestListSize = 1 << 18;
constexpr int kAllPairsK = 10;
constexpr int kLadderCap = 10000;      // traced pipeline rung, companies
constexpr int kRungDivisor = 4;        // small rung = big rung / 4
constexpr int kReplayRequests = 4096;  // traced in-process replay
constexpr int kConnectProbes = 200;    // traced, non-churn
constexpr int kReloadProbes = 5;       // traced, non-churn
constexpr int kScrapeProbes = 5;       // traced, non-churn
constexpr double kOfflineProbeS = 4.0; // traced offline serving probe

// Both loops run on exactly nproc keep-alive connections: one connection
// gave 11k-23k qps where four gave 139k-144k on the same 4-vCPU snapshot.
int Connections() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times `fn` inside a trace span named "call.<name>" and returns seconds.
template <typename Fn>
double TimedCall(const std::string& name, Fn&& fn) {
  hlm::obs::TraceSpan span("call." + name);
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

/// Slope of log(y) over log(x) between two ladder rungs.
double Exponent(double x0, double y0, double x1, double y1) {
  if (x0 <= 0 || x1 <= 0 || y0 <= 0 || y1 <= 0 || x0 == x1) return 0.0;
  return std::log(y1 / y0) / std::log(x1 / x0);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// One reported value with its unit and sample count.
struct Metric {
  double value = 0.0;
  std::string unit;
  long long samples = 1;
};
using Metrics = std::map<std::string, Metric>;

void AddMetric(Metrics& m, const std::string& name, double value,
               const std::string& unit, long long samples = 1) {
  m[name] = Metric{value, unit, samples};
}

/// Median of `values` as a metric with its sample count.
void AddMedian(Metrics& m, const std::string& name,
               const std::vector<double>& values, const std::string& unit) {
  AddMetric(m, name, Median(values), unit,
            static_cast<long long>(values.size()));
}

// ---------------------------------------------------------------------------
// Snapshots. A serving root holds snapshot sets a/ (and, for churn, b/,
// trained with another LDA seed) and manifest.txt pointing at one.

Status PublishManifest(const std::string& root, char set) {
  hlm::serve::ModelRegistry registry;
  const std::string dir(1, set);
  HLM_RETURN_IF_ERROR(registry.Register("lda", hlm::serve::ModelKind::kLda,
                                        dir + "/lda.snap"));
  HLM_RETURN_IF_ERROR(registry.Register(
      "lda-repr", hlm::serve::ModelKind::kRepresentation,
      dir + "/lda_repr.snap"));
  HLM_RETURN_IF_ERROR(registry.Register("chh", hlm::serve::ModelKind::kChh,
                                        dir + "/chh.snap"));
  return registry.SaveManifest(root + "/manifest.txt");
}

hlm::models::LdaModel TrainLda(int vocab, uint64_t seed,
                               const std::vector<std::vector<int>>& docs) {
  hlm::models::LdaConfig config;
  config.num_topics = 4;
  config.seed = seed;
  hlm::models::LdaModel lda(vocab, config);
  Check(lda.Train(docs), "lda train");
  return lda;
}

/// Writes one snapshot set under root/<set>/.
void WriteSet(const std::string& root, char set,
              const hlm::models::LdaModel& lda,
              const std::vector<std::vector<double>>& rows,
              const hlm::models::ConditionalHeavyHitters& chh) {
  const std::string dir = root + "/" + set;
  fs::create_directories(dir);
  Check(lda.SaveToFile(dir + "/lda.snap"), "save lda");
  Check(hlm::repr::SaveRepresentation(rows, dir + "/lda_repr.snap"),
        "save repr");
  Check(chh.SaveToFile(dir + "/chh.snap"), "save chh");
}

/// The serving snapshot build: corpus, LDA(4), its representation, CHH,
/// one set written to root/<set>/; set a is also published. Returns its
/// wall time in seconds.
double BuildServeSet(int companies, char set, const std::string& root) {
  const Clock::time_point start = Clock::now();
  const hlm::corpus::GeneratedCorpus world =
      hlm::corpus::GenerateDefaultCorpus(companies, kCorpusSeed);
  const std::vector<std::vector<int>> sequences = world.corpus.Sequences();
  const int vocab = world.corpus.num_categories();
  const hlm::models::LdaModel lda =
      TrainLda(vocab, kLdaSeedA + (set - 'a'), sequences);
  const std::vector<std::vector<double>> rows =
      hlm::repr::LdaRepresentation(lda, world.corpus);
  hlm::models::ConditionalHeavyHitters chh(vocab, hlm::models::ChhConfig{});
  chh.Train(sequences);
  WriteSet(root, set, lda, rows, chh);
  if (set == 'a') Check(PublishManifest(root, 'a'), "publish manifest");
  return SecondsSince(start);
}

/// A snapshot set loaded back through the registry, as the daemon does.
struct LoadedSet {
  std::unique_ptr<hlm::serve::ModelRegistry> registry;
  const hlm::models::LdaModel* lda = nullptr;
  std::unique_ptr<hlm::recsys::SimilaritySearch> index;
  std::vector<std::vector<double>> rows;
  double load_ms = 0.0;   // FromManifest + Lda + Representation
  double index_ms = 0.0;  // SimilaritySearch over the rows

  ServedSet Served() const { return {lda, index.get()}; }
};

LoadedSet LoadSet(const std::string& root, char set) {
  const std::string manifest = root + "/load_" + set + ".txt";
  {
    hlm::serve::ModelRegistry registry;
    const std::string dir(1, set);
    Check(registry.Register("lda", hlm::serve::ModelKind::kLda,
                            dir + "/lda.snap"), "register");
    Check(registry.Register("lda-repr",
                            hlm::serve::ModelKind::kRepresentation,
                            dir + "/lda_repr.snap"), "register");
    Check(registry.SaveManifest(manifest), "save manifest");
  }
  LoadedSet loaded;
  const std::vector<std::vector<double>>* rows = nullptr;
  loaded.load_ms = 1e3 * TimedCall("serve.registry_load", [&] {
    Result<hlm::serve::ModelRegistry> registry =
        hlm::serve::ModelRegistry::FromManifest(manifest);
    Check(registry.status(), "load manifest");
    loaded.registry = std::make_unique<hlm::serve::ModelRegistry>(
        std::move(registry).value());
    Result<const hlm::models::LdaModel*> lda = loaded.registry->Lda("lda");
    Check(lda.status(), "load lda");
    loaded.lda = lda.value();
    Result<const std::vector<std::vector<double>>*> r =
        loaded.registry->Representation("lda-repr");
    Check(r.status(), "load repr");
    rows = r.value();
  });
  loaded.rows = *rows;
  loaded.index_ms = 1e3 * TimedCall("recsys.index_build", [&] {
    loaded.index = std::make_unique<hlm::recsys::SimilaritySearch>(
        *rows, hlm::cluster::DistanceKind::kCosine);
  });
  return loaded;
}

// ---------------------------------------------------------------------------
// The offline pipeline: the paper's batch path on one corpus size.

struct PipelineTimes {
  double total_s = 0.0;
  double gen_s = 0.0, lda_s = 0.0, chh_s = 0.0, eval_s = 0.0;
  double eval_rss_mb = 0.0, repr_s = 0.0, silhouette_s = 0.0;
  double allpairs_s = 0.0, write_ms = 0.0;
  std::vector<double> query_us;  // all-pairs TopK, one per company
  long long checks = 0, failures = 0;
};

PipelineTimes RunPipeline(int companies, const std::string& root) {
  PipelineTimes t;
  const Clock::time_point start = Clock::now();
  std::optional<hlm::corpus::GeneratedCorpus> world;
  t.gen_s = TimedCall("corpus.generate", [&] {
    world.emplace(hlm::corpus::GenerateDefaultCorpus(companies, kCorpusSeed));
  });
  const hlm::corpus::Corpus& corpus = world->corpus;
  const int vocab = corpus.num_categories();
  // Models are trained on what was known before the evaluation protocol
  // starts, as the sliding-window evaluation requires.
  const hlm::corpus::Month cutoff =
      hlm::recsys::SlidingWindowProtocol{}.first_start;
  std::vector<std::vector<int>> history;
  for (const hlm::corpus::CompanyRecord& record : corpus.records()) {
    std::vector<int> sequence = record.install_base.Before(cutoff).Sequence();
    if (!sequence.empty()) history.push_back(std::move(sequence));
  }
  std::optional<hlm::models::LdaModel> lda;
  t.lda_s = TimedCall("models.lda_train",
                      [&] { lda.emplace(TrainLda(vocab, kLdaSeedA, history)); });
  hlm::models::ConditionalHeavyHitters chh(vocab, hlm::models::ChhConfig{});
  t.chh_s = TimedCall("models.chh_train", [&] { chh.Train(history); });

  hlm::recsys::RecommendationEvalConfig eval_config;
  eval_config.thresholds = hlm::recsys::DefaultThresholds();
  const RssPeak eval_rss;
  double best_f1 = 0.0;
  t.eval_s = TimedCall("recsys.eval", [&] {
    for (const hlm::models::ConditionalScorer* scorer :
         {static_cast<const hlm::models::ConditionalScorer*>(&*lda),
          static_cast<const hlm::models::ConditionalScorer*>(&chh)}) {
      for (const hlm::recsys::ThresholdEvaluation& e :
           hlm::recsys::EvaluateRecommender(*scorer, corpus, eval_config)) {
        best_f1 = std::max(best_f1, e.mean_f1);
      }
    }
  });
  t.eval_rss_mb = eval_rss.GrowthMb();
  ++t.checks;
  if (!(best_f1 > 0.0 && best_f1 <= 1.0)) ++t.failures;

  std::vector<std::vector<double>> rows;
  t.repr_s = TimedCall("repr.build", [&] {
    rows = hlm::repr::LdaRepresentation(*lda, corpus);
  });
  // Companies grouped by their dominant topic, as the paper reads the
  // hidden layer; the silhouette scores that grouping.
  std::vector<int> dominant(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    dominant[i] = static_cast<int>(
        std::max_element(rows[i].begin(), rows[i].end()) - rows[i].begin());
  }
  Result<double> silhouette = 0.0;
  t.silhouette_s = TimedCall("cluster.silhouette", [&] {
    silhouette = hlm::cluster::SilhouetteScore(
        rows, dominant, hlm::cluster::DistanceKind::kCosine);
  });
  ++t.checks;
  if (!silhouette.ok() || !(*silhouette >= -1.0 && *silhouette <= 1.0)) {
    ++t.failures;
  }
  std::optional<hlm::recsys::SimilaritySearch> index;
  TimedCall("recsys.index_build", [&] {
    index.emplace(rows, hlm::cluster::DistanceKind::kCosine);
  });
  t.query_us.reserve(rows.size());
  t.allpairs_s = TimedCall("recsys.allpairs", [&] {
    for (int i = 0; i < index->size(); ++i) {
      const Clock::time_point query_start = Clock::now();
      Result<std::vector<hlm::recsys::Neighbor>> hits =
          index->TopK(i, kAllPairsK);
      t.query_us.push_back(1e6 * SecondsSince(query_start));
      ++t.checks;
      bool ok = hits.ok() && hits->size() == kAllPairsK;
      for (size_t j = 1; ok && j < hits->size(); ++j) {
        ok = (*hits)[j - 1].distance <= (*hits)[j].distance;
      }
      if (!ok) ++t.failures;
    }
  });
  t.write_ms = 1e3 * TimedCall("common.snapshot_write", [&] {
    WriteSet(root, 'a', *lda, rows, chh);
    Check(PublishManifest(root, 'a'), "publish manifest");
  });
  const LoadedSet loaded = LoadSet(root, 'a');
  // The snapshot must round-trip the trained output exactly.
  ++t.checks;
  if (loaded.rows != rows || loaded.lda->topic_word() != lda->topic_word()) {
    ++t.failures;
  }
  t.total_s = SecondsSince(start);
  return t;
}

// ---------------------------------------------------------------------------
// Child jobs: batch work in a fresh process. The child writes "name value"
// lines to its report file.

int JobMain(const std::string& job, int companies, const std::string& set,
            const std::string& root, const std::string& report_path) {
  std::map<std::string, double> report;
  if (job == "snapshot" && (set == "a" || set == "b")) {
    report["batch_s"] = BuildServeSet(companies, set[0], root);
  } else if (job == "pipeline") {
    const PipelineTimes t = RunPipeline(companies, root);
    report = {{"batch_s", t.total_s},
              {"allpairs_s", t.allpairs_s},
              {"query_p50_us", Quantile(t.query_us, 0.5)},
              {"query_p90_us", Quantile(t.query_us, 0.9)},
              {"queries", static_cast<double>(t.query_us.size())},
              {"checks", static_cast<double>(t.checks)},
              {"failures", static_cast<double>(t.failures)}};
  } else {
    std::fprintf(stderr, "perfbench: unknown job %s\n", job.c_str());
    return 2;
  }
  std::ofstream out(report_path);
  out.precision(17);
  for (const auto& [name, value] : report) out << name << " " << value << "\n";
  return out.good() ? 0 : 1;
}

/// Runs a batch job in a child process of this binary.
struct JobRun {
  std::map<std::string, double> report;
  JobResult process;
};

JobRun RunChildJob(const std::string& self, const std::string& job,
                   int companies, char set, const std::string& root) {
  const std::string report_path = root + "/job.report";
  fs::remove(report_path);
  Result<JobResult> done = RunJob(
      {self, "--job", job, "--companies", std::to_string(companies),
       "--set", std::string(1, set), "--work_dir", root, "--report",
       report_path},
      root + "/job.log");
  Check(done.status(), "batch job");
  JobRun run{{}, done.value()};
  std::ifstream in(report_path);
  std::string name;
  double value = 0.0;
  while (in >> name >> value) run.report[name] = value;
  if (!run.report.count("batch_s")) Check(Status::Internal("no report"), job.c_str());
  return run;
}

// ---------------------------------------------------------------------------
// Live-daemon helpers.

/// GETs `path` on a fresh connection; returns the body ("" on error).
std::string Fetch(int port, const std::string& path, double* ms = nullptr) {
  const Clock::time_point start = Clock::now();
  Result<hlm::serve::HttpClient> client =
      hlm::serve::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) return "";
  Result<hlm::serve::HttpResponse> response = client->Get(path);
  if (ms != nullptr) *ms = 1e3 * SecondsSince(start);
  if (!response.ok() || response->status_code != 200) return "";
  return response->body;
}

/// Per-route handler time (sum s, count) from a /metricsz scrape.
std::array<std::pair<double, double>, kNumOps> HandlerTotals(
    const std::string& metricsz) {
  std::array<std::pair<double, double>, kNumOps> totals{};
  for (int op = 0; op < kNumOps; ++op) {
    const std::string base = std::string("hlm_serve_http_") +
                             OpName(static_cast<Op>(op)) + "_request_seconds";
    for (auto [suffix, out] :
         {std::pair{"_sum ", &totals[op].first},
          std::pair{"_count ", &totals[op].second}}) {
      const size_t at = metricsz.find("\n" + base + suffix);
      if (at != std::string::npos) {
        *out = std::atof(metricsz.c_str() + at + base.size() +
                         std::strlen(suffix) + 1);
      }
    }
  }
  return totals;
}

/// One manifest republish and the time until the daemon served it.
struct Reload {
  int generation = 0;
  double published_us = 0.0;
  double seen_us = 0.0;  // first /healthz reporting the new generation
};

/// The write side: republishes the manifest and waits for the new
/// generation on /healthz. A freshly started daemon serves generation 1
/// from set a; with `alternate`, generation g serves set a when odd and
/// set b when even, otherwise always set a.
class Publisher {
 public:
  Publisher(std::string root, int port, bool alternate)
      : root_(std::move(root)), port_(port), alternate_(alternate) {}

  char SetOf(int generation) const {
    return alternate_ && generation % 2 == 0 ? 'b' : 'a';
  }

  bool PublishNext() {
    const int generation = generation_ + 1;
    Reload reload{generation, hlm::obs::NowMicros(), 0.0};
    if (!PublishManifest(root_, SetOf(generation)).ok()) return false;
    generation_ = generation;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      if (!client_.has_value()) {
        Result<hlm::serve::HttpClient> c =
            hlm::serve::HttpClient::Connect("127.0.0.1", port_);
        if (!c.ok()) return false;
        client_.emplace(std::move(c).value());
        ++connections_;
      }
      Result<hlm::serve::HttpResponse> health = client_->Get("/healthz");
      if (!health.ok()) return false;
      const size_t at = health->body.find("\"generation\":");
      if (at != std::string::npos &&
          std::atoi(health->body.c_str() + at + 13) >= generation) {
        reload.seen_us = hlm::obs::NowMicros();
        reloads_.push_back(reload);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  const std::vector<Reload>& reloads() const { return reloads_; }
  int generation() const { return generation_; }
  long long connections() const { return connections_; }

 private:
  std::string root_;
  int port_;
  bool alternate_;
  int generation_ = 1;
  std::optional<hlm::serve::HttpClient> client_;
  std::vector<Reload> reloads_;
  long long connections_ = 0;
};

/// Scrape-endpoint timings; every fetch uses a fresh connection.
struct Scrapes {
  std::vector<double> metricsz_ms, statusz_ms, metricsz_bytes;
  long long fetches = 0;
  long long failures = 0;

  void Scrape(int port) {
    double ms = 0.0;
    const std::string body = Fetch(port, "/metricsz", &ms);
    metricsz_ms.push_back(ms);
    metricsz_bytes.push_back(static_cast<double>(body.size()));
    if (Fetch(port, "/statusz?format=json", &ms).empty()) ++failures;
    statusz_ms.push_back(ms);
    if (body.empty()) ++failures;
    fetches += 2;
  }
};

/// Runs the churn writer beside the traffic: once per kPublishPeriodS a
/// /metricsz + /statusz scrape and a manifest republish.
class Churn {
 public:
  Churn(Publisher* publisher, int port) {
    thread_ = std::thread([this, publisher, port] {
      Clock::time_point next = Clock::now();
      while (!stop_.load()) {
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kPublishPeriodS));
        scrapes_.Scrape(port);
        if (!publisher->PublishNext()) ++publish_failures_;
        while (!stop_.load() && Clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    });
  }
  ~Churn() { Finish(); }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  /// Stops and joins the writer; the results are stable afterwards.
  void Finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const Scrapes& scrapes() const { return scrapes_; }
  long long publish_failures() const { return publish_failures_; }

 private:
  std::atomic<bool> stop_{false};
  Scrapes scrapes_;
  long long publish_failures_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// The run.

struct Run {
  const Workload& w;
  uint64_t seed;
  double seconds;
  bool trace;
  std::string self_bin;
  std::string serve_bin;
  std::string root;

  Metrics e2e;
  Metrics layer;
  long long attempted = 0;
  long long failed = 0;

  void Count(long long attempts, long long failures) {
    attempted += attempts;
    failed += failures;
  }
};

/// Starts hlm_serve on root/manifest.txt in place of `daemon`, which is
/// stopped first.
void StartDaemon(Run& run, const std::string& root,
                 std::unique_ptr<Daemon>& daemon) {
  if (daemon) daemon->Stop();
  Result<std::unique_ptr<Daemon>> started = Daemon::Start(
      run.serve_bin, root + "/manifest.txt", kPollIntervalMs, root);
  Check(started.status(), "daemon start");
  daemon = std::move(started).value();
  run.Count(1, 0);
}

/// What one traffic run against a live daemon measured.
struct Traffic {
  LoadResult warm, closed, open, traced_closed;
  std::vector<double> closed_rates;  // per untraced closed segment
  std::vector<double> round_p50_us, round_p90_us;  // per open segment
  std::array<double, kNumOps> handler_us{};
  std::array<double, kNumOps> handler_n{};
  ProcSample at_ready, at_end;
  Scrapes scrapes;
  std::vector<Reload> reloads;
  std::vector<double> connect_us;
  long long connections = 0;  // opened over the daemon's life, all clients
};

/// Drives `daemon` (serving root) with `requests`: a closed-loop warm-up,
/// then kRounds rounds of a closed loop and an open loop at kLoadShare of
/// `capacity`, all on Connections() keep-alive connections. With
/// churn a writer republishes and scrapes beside the traffic, and 1 in
/// kFreshEvery requests uses a fresh connection. Traced runs also scrape
/// handler totals around the closed loops, record client spans in odd
/// rounds, and probe connects, scrapes and reloads afterwards. Counts
/// every request, checks the kept answers, and stops the daemon.
Traffic DriveDaemon(Run& run, Daemon& daemon, const std::string& root,
                    const std::vector<Request>& requests, double seconds,
                    double capacity, bool churn) {
  const double rate = kLoadShare * capacity;
  const int port = daemon.port();
  Traffic t;
  Result<ProcSample> at_ready = SampleProc(daemon.pid());
  Check(at_ready.status(), "sample daemon");
  t.at_ready = at_ready.value();

  std::vector<Connection> connections(Connections());
  size_t cursor = 0;
  LoadOptions options;
  options.port = port;
  // A closed phase sends capacity * phase_s requests, capped at four times
  // its nominal length; an open phase sends rate * phase_s.
  auto phase = [&](double phase_s, double phase_rate, bool traced) {
    options.seconds = phase_rate > 0 ? phase_s : 4.0 * phase_s;
    options.requests =
        phase_rate > 0 ? 0 : static_cast<size_t>(capacity * phase_s);
    options.rate = phase_rate;
    options.fresh_every = churn ? kFreshEvery : 0;
    options.first_index = cursor;
    options.trace = traced;
    LoadResult r = RunLoad(requests, options, connections);
    cursor = r.next_index;
    return r;
  };

  // Warm-up: caches, connection threads and the VM's clocks settle. The
  // window rates go to stderr, so a run shows whether they had.
  std::fprintf(stderr, "warm-up window rates (1/s):");
  for (int i = 0; i < kWarmupWindows; ++i) {
    LoadResult r = phase(kWarmupWindowS, 0.0, false);
    std::fprintf(stderr, " %.0f", r.Rate());
    Merge(t.warm, std::move(r));
  }
  std::fprintf(stderr, "\n");

  Publisher publisher(root, port, churn);
  std::optional<Churn> writer;
  if (churn) writer.emplace(&publisher, port);
  std::optional<hlm::serve::HttpClient> scraper;
  if (run.trace) {
    Result<hlm::serve::HttpClient> c =
        hlm::serve::HttpClient::Connect("127.0.0.1", port);
    Check(c.status(), "scrape connection");
    scraper.emplace(std::move(c).value());
  }
  auto handler_totals = [&] {
    Result<hlm::serve::HttpResponse> r = scraper->Get("/metricsz");
    run.Count(1, r.ok() && r->status_code == 200 ? 0 : 1);
    return HandlerTotals(r.ok() ? r->body : "");
  };
  const double round_s = seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    // Fresh connections each round: the daemon starts a thread per
    // connection, and where the kernel places those threads sets the
    // speed of the whole round; ten placements per run average it out.
    for (Connection& c : connections) c = Connection{};
    const bool traced = run.trace && round % 2 == 1;
    // Handler totals bracket the untraced closed segments, the same
    // requests the transport split takes its round trips from.
    const bool split = run.trace && !traced;
    std::array<std::pair<double, double>, kNumOps> before{};
    if (split) before = handler_totals();
    LoadResult c = phase(kClosedShare * round_s, 0.0, traced);
    if (split) {
      const auto after = handler_totals();
      for (int op = 0; op < kNumOps; ++op) {
        t.handler_us[op] += 1e6 * (after[op].first - before[op].first);
        t.handler_n[op] += after[op].second - before[op].second;
      }
    }
    if (!traced) t.closed_rates.push_back(c.Rate());
    Merge(traced ? t.traced_closed : t.closed, std::move(c));
    LoadResult o = phase((1.0 - kClosedShare) * round_s, rate, false);
    t.round_p50_us.push_back(Quantile(o.latency_us, 0.5));
    t.round_p90_us.push_back(Quantile(o.latency_us, 0.9));
    Merge(t.open, std::move(o));
  }
  if (writer) {
    writer->Finish();
    t.scrapes = writer->scrapes();
    run.Count(publisher.generation() - 1,
              writer->publish_failures() + t.scrapes.failures);
    run.Count(t.scrapes.fetches, 0);
  }
  t.connect_us = t.open.connect_us;
  if (run.trace && !churn) {
    for (int i = 0; i < kConnectProbes; ++i) {
      const Clock::time_point start = Clock::now();
      Result<hlm::serve::HttpClient> client =
          hlm::serve::HttpClient::Connect("127.0.0.1", port);
      Result<hlm::serve::HttpResponse> response =
          client.ok() ? client->Get(requests[i].url)
                      : Result<hlm::serve::HttpResponse>(client.status());
      run.Count(1, response.ok() && response->status_code == 200 ? 0 : 1);
      t.connect_us.push_back(1e6 * SecondsSince(start));
    }
    for (int i = 0; i < kScrapeProbes; ++i) t.scrapes.Scrape(port);
    run.Count(t.scrapes.fetches, t.scrapes.failures);
    for (int i = 0; i < kReloadProbes; ++i) {
      run.Count(1, publisher.PublishNext() ? 0 : 1);
    }
  }
  t.reloads = publisher.reloads();
  Result<ProcSample> at_end = SampleProc(daemon.pid());
  Check(at_end.status(), "sample daemon");
  t.at_end = at_end.value();
  daemon.Stop();
  t.connections = t.warm.connections_opened + t.closed.connections_opened +
                  t.traced_closed.connections_opened +
                  t.open.connections_opened + publisher.connections() +
                  t.scrapes.fetches +
                  (run.trace ? 1 + (churn ? 0 : kConnectProbes) : 0);

  // Answer check: the kept bodies against the in-process answer of the
  // generation's snapshot set.
  std::map<char, LoadedSet> sets;
  sets.emplace('a', LoadSet(root, 'a'));
  if (churn) sets.emplace('b', LoadSet(root, 'b'));
  std::map<char, ServedSet> served_sets;
  for (const auto& [name, set] : sets) served_sets[name] = set.Served();
  const auto served = [&](int generation) -> const ServedSet* {
    if (generation < 1 || generation > publisher.generation()) return nullptr;
    return &served_sets.at(publisher.SetOf(generation));
  };
  long long checked = 0;
  // The check recomputes answers in process; keep it out of the trace.
  const bool tracing = hlm::obs::TraceRecorder::Global().enabled();
  hlm::obs::TraceRecorder::Global().Disable();
  for (const LoadResult* r : {&t.warm, &t.closed, &t.traced_closed, &t.open}) {
    run.Count(r->attempted, r->failures() +
                                CountMismatches(r->kept, requests, served));
    checked += static_cast<long long>(r->kept.size());
  }
  if (tracing) hlm::obs::TraceRecorder::Global().Enable();
  run.Count(0, checked == 0 ? 1 : 0);
  return t;
}

/// Reload latency: publish to the first response of any client that
/// carried the new generation.
std::vector<double> ReloadMs(const Traffic& t) {
  std::vector<double> reload_ms;
  for (const Reload& reload : t.reloads) {
    double seen = reload.seen_us;
    for (const LoadResult* r : {&t.closed, &t.traced_closed, &t.open}) {
      auto it = r->first_seen_us.find(reload.generation);
      if (it != r->first_seen_us.end()) seen = std::min(seen, it->second);
    }
    reload_ms.push_back((seen - reload.published_us) / 1e3);
  }
  return reload_ms;
}

/// Per-layer metrics of the serving side of a traced run.
void ServeLayerMetrics(Run& run, const Traffic& t, const LoadedSet& set,
                       const std::vector<Request>& requests,
                       const std::string& root) {
  Metrics& m = run.layer;
  // In-process replay of the request stream through models and recsys:
  // replay.<route> spans parent the models.* / recsys.topk spans. It runs
  // on as many threads as the daemon had connections, so the model ops
  // contend for cores and caches as they did in the handlers.
  {
    const int threads = Connections();
    std::vector<std::thread> replayers;
    for (int w = 0; w < threads; ++w) {
      replayers.emplace_back([&, w] {
        hlm::obs::TraceSpan span("call.replay");
        for (int i = w; i < kReplayRequests; i += threads) {
          ReferenceBody(requests[i], *set.lda, *set.index, 1,
                        "req." + std::to_string(i));
        }
      });
    }
    for (std::thread& replayer : replayers) replayer.join();
  }
  const std::map<std::string, SpanStats> spans =
      SummarizeSpans(hlm::obs::TraceRecorder::Global().Events());
  auto span_mean_us = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  auto span_count = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0LL : it->second.count;
  };
  AddMetric(m, "models.next_product_us", span_mean_us("models.next_product"),
            "us", span_count("models.next_product"));
  AddMetric(m, "models.infer_topic_us", span_mean_us("models.infer_topic"),
            "us", span_count("models.infer_topic"));
  AddMetric(m, "recsys.topk_us", span_mean_us("recsys.topk"), "us",
            span_count("recsys.topk"));
  AddMetric(m, "recsys.index_build_ms", set.index_ms, "ms");
  AddMetric(m, "serve.registry_load_ms", set.load_ms, "ms");

  // Handler time from the daemon's own histograms; transport is the
  // client's round trip minus it. Shares are of one request of the mix.
  const char* model_span[] = {"models.next_product", "recsys.topk",
                              "models.infer_topic"};
  double model = 0.0, handler = 0.0, rtt = 0.0;
  for (int op = 0; op < kNumOps; ++op) {
    const std::string route = OpName(static_cast<Op>(op));
    const std::vector<double>& round_trips = t.closed.route_latency_us[op];
    const double handler_us =
        t.handler_n[op] > 0 ? t.handler_us[op] / t.handler_n[op] : 0.0;
    const double rtt_us = Mean(round_trips);
    AddMetric(m, "serve.handler_us." + route, handler_us, "us",
              static_cast<long long>(t.handler_n[op]));
    AddMetric(m, "serve.transport_us." + route, rtt_us - handler_us, "us",
              static_cast<long long>(round_trips.size()));
    const double share = static_cast<double>(round_trips.size());
    model += share * span_mean_us(model_span[op]);
    handler += share * handler_us;
    rtt += share * rtt_us;
  }
  AddMetric(m, "split.model_pct", 100.0 * model / rtt, "%");
  AddMetric(m, "split.handler_other_pct", 100.0 * (handler - model) / rtt, "%");
  AddMetric(m, "split.transport_pct", 100.0 * (rtt - handler) / rtt, "%");
  const double untraced_qps = t.closed.Rate();
  AddMetric(m, "trace.overhead_pct",
            100.0 * (untraced_qps - t.traced_closed.Rate()) / untraced_qps, "%",
            static_cast<long long>(t.traced_closed.latency_us.size()));

  AddMedian(m, "serve.reload_ms", ReloadMs(t), "ms");
  AddMedian(m, "serve.conn.connect_us", t.connect_us, "us");
  AddMetric(m, "serve.conn.threads_end", t.at_end.threads, "count");
  AddMetric(m, "serve.conn.fds_end", t.at_end.fds, "count");
  AddMetric(m, "serve.conn.vmsize_mb_per_1k",
            (t.at_end.vm_size_mb - t.at_ready.vm_size_mb) * 1000.0 /
                static_cast<double>(t.connections),
            "MB", t.connections);
  AddMedian(m, "obs.metricsz_ms", t.scrapes.metricsz_ms, "ms");
  AddMedian(m, "obs.metricsz_bytes", t.scrapes.metricsz_bytes, "bytes");
  AddMedian(m, "obs.statusz_ms", t.scrapes.statusz_ms, "ms");
  AddMetric(m, "load.late_p99_us", Quantile(t.open.late_us, 0.99), "us",
            static_cast<long long>(t.open.late_us.size()));
  AddMetric(m, "load.p99_us", Quantile(t.open.latency_us, 0.99), "us",
            static_cast<long long>(t.open.latency_us.size()));

  // math: the cosine scan's block kernel over the served index rows.
  const size_t d = set.rows.empty() ? 0 : set.rows[0].size();
  std::vector<double> flat;
  for (const std::vector<double>& row : set.rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  constexpr size_t kTile = 128;
  std::vector<double> dots(kTile);
  const size_t n = set.rows.size();
  long long rows_scored = 0;
  double checksum = 0.0;
  const double kernel_s = TimedCall("math.score_block", [&] {
    for (size_t q = 0; q < 64; ++q) {
      const double* query = &flat[(q * 7919 % n) * d];
      for (size_t start = 0; start < n; start += kTile) {
        const size_t count = std::min(kTile, n - start);
        hlm::simd::ScoreBlock(query, 1, &flat[start * d], count, d,
                              dots.data());
        checksum += dots[0];
        rows_scored += static_cast<long long>(count);
      }
    }
  });
  run.Count(1, std::isfinite(checksum) ? 0 : 1);
  AddMetric(m, "math.score_block_ns_per_row",
            1e9 * kernel_s / static_cast<double>(rows_scored), "ns",
            rows_scored);

  // serve: in-process Server start on the same snapshot.
  std::vector<double> start_ms;
  for (int i = 0; i < 3; ++i) {
    Check(PublishManifest(root, 'a'), "publish");
    hlm::serve::ServerConfig config;
    config.manifest_path = root + "/manifest.txt";
    std::unique_ptr<hlm::serve::Server> server;
    start_ms.push_back(1e3 * TimedCall("serve.start", [&] {
      Result<std::unique_ptr<hlm::serve::Server>> s =
          hlm::serve::Server::Start(config);
      Check(s.status(), "in-process server start");
      server = std::move(s).value();
    }));
    server->Stop();
  }
  AddMedian(m, "serve.start_ms", start_ms, "ms");
}

/// Per-layer metrics of the batch path, from two pipeline rungs run in
/// process under spans.
void LadderMetrics(Run& run, int n_big) {
  const int n_small = n_big / kRungDivisor;
  const PipelineTimes small = RunPipeline(n_small, run.root + "/rung_small");
  const PipelineTimes big = RunPipeline(n_big, run.root + "/rung_big");
  run.Count(small.checks + big.checks, small.failures + big.failures);
  Metrics& m = run.layer;
  AddMetric(m, "corpus.generate_s", big.gen_s, "s");
  AddMetric(m, "corpus.generate.exponent",
            Exponent(n_small, small.gen_s, n_big, big.gen_s), "1", 2);
  AddMetric(m, "models.lda_train_s", big.lda_s, "s");
  AddMetric(m, "models.chh_train_s", big.chh_s, "s");
  AddMetric(m, "recsys.eval_s", big.eval_s, "s");
  AddMetric(m, "recsys.eval_rss_mb", big.eval_rss_mb, "MB");
  AddMetric(m, "repr.build_s", big.repr_s, "s");
  AddMetric(m, "cluster.silhouette_s", big.silhouette_s, "s");
  AddMetric(m, "recsys.allpairs_s", big.allpairs_s, "s",
            static_cast<long long>(big.query_us.size()));
  AddMetric(m, "recsys.allpairs.exponent",
            Exponent(n_small, small.allpairs_s, n_big, big.allpairs_s), "1", 2);
  AddMetric(m, "common.snapshot_write_ms", big.write_ms, "ms");
}

/// Requests drawn from the corpus the snapshot of `companies` was built on.
std::vector<Request> RequestsFor(const Run& run, int companies) {
  const hlm::corpus::GeneratedCorpus world =
      hlm::corpus::GenerateDefaultCorpus(companies, kCorpusSeed);
  return GenerateRequests(world.corpus.Sequences(), kRequestListSize,
                          run.w.zipf_s, run.seed * 7919 + 17);
}

void RunServeWorkload(Run& run) {
  const Workload& w = run.w;
  const std::string& root = run.root;
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_s, batch_s, batch_rss_mb;
  const Clock::time_point begin = Clock::now();
  const int min_setups = run.trace ? 1 : kMinSetups;
  while (static_cast<int>(setup_s.size()) < min_setups ||
         (static_cast<int>(setup_s.size()) < kMaxSetups &&
          SecondsSince(begin) < kSetupBudgetS)) {
    // The previous daemon would reload the snapshot being rebuilt.
    if (daemon) daemon->Stop();
    const Clock::time_point start = Clock::now();
    const JobRun job = RunChildJob(run.self_bin, "snapshot", w.companies, 'a', root);
    StartDaemon(run, root, daemon);
    setup_s.push_back(SecondsSince(start));
    batch_s.push_back(job.report.at("batch_s"));
    batch_rss_mb.push_back(job.process.max_rss_mb);
  }
  if (w.churn) RunChildJob(run.self_bin, "snapshot", w.companies, 'b', root);
  const std::vector<Request> requests = RequestsFor(run, w.companies);

  const Traffic t =
      DriveDaemon(run, *daemon, root, requests, run.seconds, w.capacity, w.churn);
  AddMedian(run.e2e, "setup_s", setup_s, "s");
  const long long open_n = static_cast<long long>(t.open.latency_us.size());
  // Churn exists to show its stalls, so its rate is taken over the whole
  // closed phase; elsewhere the median segment keeps one burst of host
  // noise from setting it.
  AddMetric(run.e2e, "qps",
            w.churn ? t.closed.Rate() : Median(t.closed_rates), "1/s",
            static_cast<long long>(t.closed.latency_us.size()));
  // Each open segment's own quantile, the median over segments: a burst
  // of host noise in one segment cannot set them.
  AddMetric(run.e2e, "p50_us", Median(t.round_p50_us), "us", open_n);
  AddMetric(run.e2e, "p90_us", Median(t.round_p90_us), "us", open_n);
  AddMetric(run.e2e, "server_rss_mb", t.at_end.vm_hwm_mb, "MB");
  AddMetric(run.e2e, "server_rss_ready_mb", t.at_ready.vm_hwm_mb, "MB");
  AddMetric(run.e2e, "late_p90_us", Quantile(t.open.late_us, 0.9), "us",
            open_n);
  AddMedian(run.e2e, "offline_s", batch_s, "s");
  AddMedian(run.e2e, "offline_rss_mb", batch_rss_mb, "MB");
  if (run.trace) {
    ServeLayerMetrics(run, t, LoadSet(root, 'a'), requests, root);
    LadderMetrics(run, std::min(w.companies, kLadderCap));
  }
}

void RunOfflineWorkload(Run& run) {
  const Workload& w = run.w;
  std::vector<double> setup_s;
  for (int i = 0; i < kOfflineSetups; ++i) {
    setup_s.push_back(TimedCall("setup", [&] {
      hlm::corpus::GenerateDefaultCorpus(w.companies, kCorpusSeed);
    }));
  }
  AddMedian(run.e2e, "setup_s", setup_s, "s");
  if (run.trace) {
    // Per-layer: the two rungs in process, then a serving probe of the
    // big rung's snapshot.
    LadderMetrics(run, w.companies);
    const std::string root = run.root + "/rung_big";
    std::unique_ptr<Daemon> daemon;
    StartDaemon(run, root, daemon);
    const std::vector<Request> requests = RequestsFor(run, w.companies);
    const Traffic t = DriveDaemon(run, *daemon, root, requests,
                                  std::min(run.seconds, kOfflineProbeS),
                                  w.capacity, false);
    ServeLayerMetrics(run, t, LoadSet(root, 'a'), requests, root);
    return;
  }
  std::vector<double> batch_s, rss_mb, qps, p50_us, p90_us, server_rss_mb;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(batch_s.size()) < kMinPasses ||
         SecondsSince(start) < run.seconds) {
    const JobRun job =
        RunChildJob(run.self_bin, "pipeline", w.companies, 'a', run.root);
    const std::map<std::string, double>& r = job.report;
    run.Count(static_cast<long long>(r.at("checks")),
              static_cast<long long>(r.at("failures")));
    batch_s.push_back(r.at("batch_s"));
    rss_mb.push_back(job.process.max_rss_mb);
    qps.push_back(r.at("queries") / r.at("allpairs_s"));
    p50_us.push_back(r.at("query_p50_us"));
    p90_us.push_back(r.at("query_p90_us"));
    // The pass's snapshot, loaded by the daemon that would serve it.
    std::unique_ptr<Daemon> daemon;
    StartDaemon(run, run.root, daemon);
    Result<ProcSample> sample = SampleProc(daemon->pid());
    Check(sample.status(), "sample daemon");
    server_rss_mb.push_back(sample->vm_hwm_mb);
  }
  AddMedian(run.e2e, "qps", qps, "1/s");
  AddMedian(run.e2e, "p50_us", p50_us, "us");
  AddMedian(run.e2e, "p90_us", p90_us, "us");
  AddMedian(run.e2e, "server_rss_mb", server_rss_mb, "MB");
  AddMedian(run.e2e, "offline_s", batch_s, "s");
  AddMedian(run.e2e, "offline_rss_mb", rss_mb, "MB");
}

// ---------------------------------------------------------------------------
// Reporting.

/// Which span's self time attributes a per-layer metric, and which
/// end-to-end metric (on which workload) it should move.
struct LayerRow {
  const char* metric;
  const char* span;
  const char* feeds;
};

constexpr LayerRow kLayerRows[] = {
    {"math.score_block_ns_per_row", "call.math.score_block", "p90_us, qps (serve_large)"},
    {"models.next_product_us", "models.next_product", "p50_us (serve_small)"},
    {"models.infer_topic_us", "models.infer_topic", "p50_us (serve_small)"},
    {"models.lda_train_s", "call.models.lda_train", "setup_s (all), offline_s"},
    {"models.chh_train_s", "call.models.chh_train", "offline_s"},
    {"recsys.topk_us", "recsys.topk", "p90_us, qps (serve_large, churn); ~0 on serve_small"},
    {"recsys.index_build_ms", "call.recsys.index_build", "setup_s (large, churn), serve.reload_ms"},
    {"recsys.eval_s", "call.recsys.eval", "offline_s"},
    {"recsys.eval_rss_mb", "", "offline_rss_mb"},
    {"recsys.allpairs_s", "call.recsys.allpairs", "offline_s"},
    {"recsys.allpairs.exponent", "", "offline_s (scaling)"},
    {"repr.build_s", "call.repr.build", "setup_s, offline_s"},
    {"cluster.silhouette_s", "call.cluster.silhouette", "offline_s"},
    {"corpus.generate_s", "call.corpus.generate", "setup_s, offline_s"},
    {"corpus.generate.exponent", "", "setup_s, offline_s (scaling)"},
    {"common.snapshot_write_ms", "call.common.snapshot_write", "setup_s"},
    {"serve.registry_load_ms", "call.serve.registry_load", "setup_s"},
    {"serve.start_ms", "call.serve.start", "setup_s"},
    {"serve.reload_ms", "", "p90_us (churn)"},
    {"serve.handler_us.recommend", "", "qps, p50_us (serve_small)"},
    {"serve.handler_us.similar", "", "qps, p50_us (serve_large)"},
    {"serve.handler_us.topics", "", "qps, p50_us (serve_small)"},
    {"serve.transport_us.recommend", "serve.http.recommend", "qps, p50_us (serve_small)"},
    {"serve.transport_us.similar", "serve.http.similar", "qps, p50_us (serve_small)"},
    {"serve.transport_us.topics", "serve.http.topics", "qps, p50_us (serve_small)"},
    {"serve.conn.connect_us", "", "p90_us (churn)"},
    {"serve.conn.threads_end", "", "server_rss_mb (churn)"},
    {"serve.conn.fds_end", "", "server_rss_mb (churn)"},
    {"serve.conn.vmsize_mb_per_1k", "", "server_rss_mb (churn)"},
    {"obs.metricsz_ms", "", "p90_us (churn)"},
    {"obs.metricsz_bytes", "", "p90_us (churn)"},
    {"obs.statusz_ms", "", "p90_us (churn)"},
    {"load.late_p99_us", "", "health: generator lateness"},
    {"load.p99_us", "", "health: open-loop tail, not gated"},
    {"split.model_pct", "", "health: > 50 % on serve_large"},
    {"split.handler_other_pct", "", "health: share of round trip"},
    {"split.transport_pct", "", "health: > 50 % on serve_small"},
    {"trace.overhead_pct", "", "health: traced vs untraced qps"},
};

void PrintTable(const char* title, const Metrics& metrics) {
  std::fprintf(stderr, "\n%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %-6s n=%lld\n", name.c_str(),
                 metric.value, metric.unit.c_str(), metric.samples);
  }
}

void PrintSpans(const std::map<std::string, SpanStats>& spans) {
  std::vector<std::pair<std::string, SpanStats>> rows(spans.begin(),
                                                      spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  std::fprintf(stderr, "\nspan self times\n  %-30s %10s %12s %12s\n", "span",
               "count", "total_ms", "self_ms");
  for (const auto& [name, s] : rows) {
    std::fprintf(stderr, "  %-30s %10lld %12.3f %12.3f\n", name.c_str(),
                 s.count, s.total_us / 1e3, s.self_us / 1e3);
  }
}

void PrintAttribution(const Run& run,
                      const std::map<std::string, SpanStats>& spans) {
  std::fprintf(stderr, "\nper-layer attribution (%s)\n", run.w.name);
  std::fprintf(stderr, "  %-30s %12s %-6s %9s %12s  %s\n", "metric", "value",
               "unit", "n", "self_ms", "feeds");
  for (const LayerRow& row : kLayerRows) {
    const Metric& m = run.layer.at(row.metric);
    auto s = spans.find(row.span);
    std::string self = "-";
    if (s != spans.end()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", s->second.self_us / 1e3);
      self = buf;
    }
    std::fprintf(stderr, "  %-30s %12.6g %-6s %9lld %12s  %s\n", row.metric,
                 m.value, m.unit.c_str(), m.samples, self.c_str(), row.feeds);
  }
}

std::string ResultJson(const Run& run, const Metrics& metrics,
                       const std::vector<std::string>& names) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric& metric = metrics.at(names[i]);
    out << (i > 0 ? ", " : "") << "\"" << names[i] << "\": {\"value\": "
        << metric.value << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, serve_bin, work_dir, trace_out, job, set, report;
  long long seed = 1, trace = 0, companies = 0;
  double seconds = 10.0;
  hlm::FlagSet flags;
  flags.AddString("workload", &workload, "serve_small, serve_large, "
                  "serve_reload_churn or offline_pipeline");
  flags.AddInt64("seed", &seed, "picks the request stream");
  flags.AddDouble("seconds", &seconds, "measured seconds per run");
  flags.AddInt64("trace", &trace, "1: traced run printing per-layer metrics");
  flags.AddString("serve_bin", &serve_bin, "hlm_serve binary");
  flags.AddString("work_dir", &work_dir, "scratch directory (removed at exit)");
  flags.AddString("trace_out", &trace_out, "chrome trace of a traced run");
  flags.AddString("job", &job, "internal: run one batch job (snapshot, pipeline)");
  flags.AddInt64("companies", &companies, "internal: batch job corpus size");
  flags.AddString("set", &set, "internal: snapshot set a or b");
  flags.AddString("report", &report, "internal: batch job report file");
  const hlm::Status parsed = flags.Parse(argc, argv);
  hlm::obs::TraceRecorder::Global().Disable();
  if (parsed.ok() && !job.empty()) {
    return JobMain(job, static_cast<int>(companies), set, work_dir, report);
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (!parsed.ok() || w == nullptr || serve_bin.empty() || work_dir.empty() ||
      seconds <= 0) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (trace != 0) hlm::obs::TraceRecorder::Global().Enable();
  fs::create_directories(work_dir);

  const KeepAwake awake(Connections());
  Run run{*w, static_cast<uint64_t>(seed), seconds, trace != 0,
          fs::canonical("/proc/self/exe").string(), serve_bin, work_dir,
          {}, {}, 0, 0};
  if (w->offline) {
    RunOfflineWorkload(run);
  } else {
    RunServeWorkload(run);
  }

  PrintTable("end-to-end metrics", run.e2e);
  std::vector<std::string> names;
  if (run.trace) {
    const std::map<std::string, SpanStats> spans =
        SummarizeSpans(hlm::obs::TraceRecorder::Global().Events());
    PrintTable("per-layer metrics", run.layer);
    PrintSpans(spans);
    PrintAttribution(run, spans);
    if (!trace_out.empty()) {
      Check(hlm::obs::TraceRecorder::Global().WriteChromeTrace(trace_out),
            "write trace");
    }
    for (const LayerRow& row : kLayerRows) names.push_back(row.metric);
  } else {
    names = {"setup_s", "qps", "p50_us", "p90_us", "server_rss_mb",
             "offline_s", "offline_rss_mb"};
  }
  std::printf("%s\n", ResultJson(run, run.trace ? run.layer : run.e2e, names).c_str());
  std::fflush(stdout);
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  return 0;
}
