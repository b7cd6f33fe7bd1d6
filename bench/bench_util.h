#ifndef HLM_BENCH_BENCH_UTIL_H_
#define HLM_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "corpus/generator.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace hlm::bench {

/// Standard experiment environment shared by every harness and hlm_bench:
/// a synthetic HG-style corpus with the paper's 70/10/20 split, both in
/// full form and truncated to pre-protocol history (before 2013-01) for
/// the recommendation benches.
struct BenchEnv {
  corpus::GeneratedCorpus world;
  corpus::SplitIndices split;
  corpus::Corpus train;
  corpus::Corpus valid;
  corpus::Corpus test;
  std::vector<models::TokenSequence> train_seqs;
  std::vector<models::TokenSequence> valid_seqs;
  std::vector<models::TokenSequence> test_seqs;
  /// Training sequences truncated to events before 2013-01 (the
  /// recommendation protocol trains only on pre-window history).
  std::vector<models::TokenSequence> train_seqs_pre2013;
};

/// The run-identity flags every harness shares: --companies, --seed,
/// --threads (worker threads for parallel regions; 0 = HLM_THREADS env
/// or all hardware cores — results are bit-identical at any setting) and
/// --simd=<auto|off|avx2> (kernel dispatch path; empty defers to the
/// HLM_SIMD env var). Set a field before AddRunFlags to change its
/// default.
struct RunFlags {
  long long companies = 0;
  long long seed = 42;
  long long threads = 0;
  std::string simd;
};

/// Registers the RunFlags fields on `flags`.
void AddRunFlags(FlagSet* flags, RunFlags* run);

/// Applies parsed run flags and stamps the run's identity into the
/// global metrics registry: pins the kernel dispatch path (exits 2 on a
/// bad --simd), sizes the worker pool, names the main thread's trace
/// lane, arms the flight-recorder crash dump (hlm-crash-<run_id>.json
/// on HLM_CHECK failure), derives the deterministic run id (see
/// obs::ComputeRunId) from harness, variant (omitted when empty), seed,
/// companies and thread count, and writes the run meta (run_id,
/// harness, seed, companies, threads, host_cores, simd.requested /
/// simd.active_path / simd.avx2_available) plus the
/// hlm.bench.{companies,seed,threads} gauges.
void StartRun(const RunFlags& run, const std::string& harness,
              const std::string& variant = "");

/// Generates the synthetic corpus and its 70/10/20 split inside the
/// "make_env" phase.
BenchEnv BuildEnv(long long companies, long long seed);

/// The figure/table harness entry point: AddRunFlags plus the
/// observability flags (--metrics_out=<path>: the Snapshot() JSON at
/// process exit; --trace_out=<path>: a chrome://tracing JSON of every
/// TraceSpan; --events_out=<path>: the wide-event log as JSONL;
/// --log_level=<debug|info|warning|error>), then Parse, StartRun under
/// the binary's name, and BuildEnv. Exits 2 with usage on bad flags.
/// Additional flags may be registered on `flags` by the caller before
/// invoking; names colliding with the shared ones fail Parse loudly.
BenchEnv MakeEnv(int argc, char** argv, FlagSet* flags,
                 long long default_companies = 1200);

/// RAII bench phase marker: opens a trace span, records the phase's
/// wall time into the histogram "hlm.bench.<name>_seconds", and
/// attributes the phase's resource cost (CPU seconds, RSS growth,
/// context switches) to the global ResourceProfiler — so each
/// harness's per-phase breakdown lands in the snapshot as both a
/// latency distribution and a "profile.<name>.*" meta block. Under
/// SetPhaseSlowdown(F > 1) the destructor first sleeps (F-1)x the
/// phase's measured time, so the stretch lands in every instrument
/// exactly like a real regression would.
class ScopedPhase {
 public:
  explicit ScopedPhase(const std::string& name);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  // Declaration order matters: resources_ destructs after span_, so the
  // resource delta covers at least the traced interval.
  obs::ScopedResourcePhase resources_;
  obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

/// Stretch factor for every later ScopedPhase (1 = off); the
/// regression checker's self-test hook.
void SetPhaseSlowdown(double factor);

/// The global registry's snapshot with the resource profile attached
/// and each phase's total wall time surfaced as the meta entry
/// "walltime.<phase>_seconds" (from the hlm.bench.<phase>_seconds
/// histograms). --metrics_out writes it; hlm_bench writes and gates it.
obs::MetricsSnapshot Snapshot();

/// The deterministic run id StartRun derived for this process. Threaded
/// into the metrics meta section and the trace export, so the outputs
/// of one run can be joined offline. Empty before StartRun runs.
const std::string& RunId();

/// Sequences of a corpus truncated to history before `cutoff`.
std::vector<models::TokenSequence> TruncatedSequences(
    const corpus::Corpus& corpus, corpus::Month cutoff);

/// Prints a header banner naming the experiment and its parameters.
void PrintBanner(const std::string& experiment,
                 const std::string& paper_reference, const BenchEnv& env);

/// Prints one aligned table row: columns joined by " | ".
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/// The three recommenders of Figs. 3-4 (LDA with few topics, LSTM, CHH),
/// trained on the pre-2013 history of the training companies (the
/// protocol conditions on everything before each sliding window; model
/// parameters are fit once on pre-protocol data, see EXPERIMENTS.md).
/// The paper deploys LDA3; our synthetic ground truth has 4 latent
/// topics, so the matched small-topic-count model is LDA4.
struct TrainedRecommenders {
  std::unique_ptr<models::ConditionalScorer> lda;
  std::unique_ptr<models::ConditionalScorer> lstm;
  std::unique_ptr<models::ConditionalScorer> chh;
};

TrainedRecommenders TrainRecommenders(const BenchEnv& env, int lstm_epochs);

}  // namespace hlm::bench

#endif  // HLM_BENCH_BENCH_UTIL_H_
