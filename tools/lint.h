#ifndef HLM_TOOLS_LINT_H_
#define HLM_TOOLS_LINT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hlm::lint {

/// Finding severity. Every severity fails the run; the split exists so
/// machine-readable output (SARIF `level`) can distinguish contract
/// violations from hygiene findings like stale suppressions.
enum class Severity { kWarning, kError };

/// One rule violation. `line` is 1-based.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  Severity severity = Severity::kError;
};

/// The rules hlm_lint enforces, in the order they are reported.
///
/// Per-file lexical rules (need only the file's own text):
///
///   no-raw-rng       rand()/srand()/drand48()/std::random_device/
///                    std::mt19937 anywhere outside src/math/rng.{h,cc}.
///                    All randomness must flow through hlm::Rng (ForkAt
///                    for parallel streams) so runs replay from a seed.
///   no-wall-clock    time(nullptr)/std::time/std::chrono::system_clock/
///                    high_resolution_clock in src/ (model code).
///                    steady_clock is fine for durations; wall-clock
///                    reads make output depend on when you ran it.
///   no-raw-thread    std::thread/std::jthread/std::async outside
///                    src/common/parallel.cc. Concurrency goes through
///                    the deterministic pool (ParallelFor), never ad hoc
///                    threads.
///   no-stdio-output  printf/puts/std::cout in src/. Library code logs
///                    through HLM_LOG so sinks/levels stay in control;
///                    snprintf-to-buffer formatting is fine.
///   unordered-iter   Iteration over a container declared as
///                    std::unordered_map/std::unordered_set. Hash order
///                    is unspecified, so any iteration feeding output or
///                    aggregation must either be order-insensitive or
///                    sort with a full tie-break; the rule is a
///                    heuristic and always requires an annotation to
///                    pass. Names declared in one file and iterated in
///                    another are found through the project model.
///   header-guard     Every .h must open with the canonical include
///                    guard derived from its repo-relative path
///                    (src/foo/bar.h -> HLM_FOO_BAR_H_).
///   include-order    Within each contiguous #include block, quoted
///                    includes and angle includes must each be sorted.
///   no-raw-persist-write
///                    std::ofstream / fopen() in src/ outside
///                    src/common/atomic_file.{h,cc}. Persistence goes
///                    through AtomicFileWriter (temp file + rename) so
///                    a crash mid-write can never truncate a snapshot;
///                    read-only std::ifstream is fine. Non-snapshot
///                    sinks (trace export, CSV reports) annotate.
///   metric-naming    A single string literal passed to GetCounter /
///                    GetHistogram must follow DESIGN.md "Observability":
///                    start with "hlm." and end in "_total" (counters)
///                    or "_seconds" (timing histograms). Dynamically
///                    built names are out of the heuristic's reach.
///   span-event-naming
///                    Literal TraceSpan / HLM_EVENT names in src/ must
///                    be dot.case with at least two segments.
///   simd-intrinsic-isolation
///                    #include <immintrin.h> (or other x86 intrinsic
///                    headers) outside src/math/simd/. ISA-specific code
///                    lives in the kernel layer only.
///   no-hand-json     A string literal in src/ containing {\" or \":
///                    outside src/obs/json.cc. obs/json.h owns the JSON
///                    format: documents are built with obs::JsonWriter
///                    (commas by construction, JsonQuote'd keys,
///                    non-finite numbers as null) and read back with
///                    obs::JsonValue.
///
/// Whole-program semantic passes (need the project model):
///
///   layering         src/ is a DAG of layers, low to high:
///                      common -> obs -> math ->
///                      {corpus, models, repr, cluster} ->
///                      {recsys, app} -> serve
///                    A file may include only its own layer group or a
///                    lower one; an include of a higher layer is a
///                    back-edge. File-level include cycles (headers
///                    including each other, directly or transitively)
///                    are errors with the full cycle spelled out, and
///                    cycles are never suppressible. The layer-level
///                    dependency graph exports as graphviz (deps.dot);
///                    annotated back-edges render dashed and must be
///                    declared in tools/layers.txt (scripts/analyze.sh
///                    diffs the two).
///   unchecked-status A call to a function the signature index knows
///                    returns Status or Result<T>, as a bare expression
///                    statement whose value is neither assigned,
///                    returned, passed on, nor wrapped (HLM_CHECK /
///                    HLM_RETURN_IF_ERROR / TrackError / test macros all
///                    consume the value and therefore pass). src/ only:
///                    library code must never swallow an error. The
///                    index is name-based (no overload resolution), so
///                    same-named void functions can false-positive;
///                    annotate those.
///   hot-path-alloc   Inside a region bracketed by
///                      // hlm-lint: hot-path begin
///                      // hlm-lint: hot-path end
///                    any allocation is an error: new, make_unique /
///                    make_shared, vector construction, resize /
///                    reserve / push_back / emplace_back. Hot regions
///                    (LDA Gibbs sweep, LSTM/GRU step, ScoreBlock
///                    tiles) take scratch from ScratchArena
///                    (common/arena.h) per the PR 7 zero-alloc
///                    contract. Unbalanced begin/end markers are
///                    themselves errors.
///   lock-discipline  std::mutex / lock_guard / unique_lock /
///                    scoped_lock / condition_variable (and pthread
///                    equivalents) in src/ outside src/common/
///                    parallel.cc and src/obs/. Coordination goes
///                    through the deterministic pool; the few
///                    legitimate sites (logging's line-atomic sink)
///                    are annotated.
///   stale-suppression
///                    An `// hlm-lint: allow(<rule>)` annotation that
///                    suppressed nothing in this run, or that names an
///                    unknown rule. Severity: warning (still fails the
///                    run). Dead suppressions hide future regressions,
///                    so they are deleted, not accumulated.
///
/// A finding on line N is suppressed by `// hlm-lint: allow(<rule>)` on
/// line N or line N-1. Cycle findings are not suppressible.
std::vector<std::string> RuleNames();

/// Severity a rule reports at.
Severity RuleSeverity(const std::string& rule);

/// One file handed to the analyzer. `relpath` is relative to the
/// scanned root with '/' separators; rule applicability (src/-only
/// rules, layer assignment, expected header guard) derives from it.
struct SourceFile {
  std::string relpath;
  std::string content;
};

/// Stage-one per-file record: content hash, quoted includes (with the
/// 1-based line they appear on), lexer output, and the layer rank.
struct FileModel {
  std::string relpath;
  std::string content;
  uint64_t content_hash = 0;
  /// (line, include path) for each #include "..." in the file.
  std::vector<std::pair<int, std::string>> quoted_includes;
  /// Index into LayerGroups(), or -1 when the file is unconstrained
  /// (tools/tests/bench/examples, or directly under src/).
  int layer = -1;
  /// Lexer output, line-aligned with the raw file: code with comments
  /// and string/char literals blanked, and the comment text alone.
  /// Annotations and hot-path markers parse from `comment_lines`, so
  /// an annotation-shaped string literal is data, never a suppression.
  std::vector<std::string> code_lines;
  std::vector<std::string> comment_lines;
  /// The ordinary string literals on each line, as written (escapes
  /// kept), each followed by '\n'; what the no-hand-json rule reads.
  std::vector<std::string> literal_lines;
  /// (line, rule) for each `// hlm-lint: allow(<rule>)` annotation.
  std::vector<std::pair<int, std::string>> allows;
};

/// Stage-one whole-program model: every file plus the cross-file
/// indices the semantic passes consume. Built once per run.
struct ProjectModel {
  std::vector<FileModel> files;              // sorted by relpath
  std::map<std::string, size_t> file_index;  // relpath -> files[] index
  /// Repo-wide unordered_map/unordered_set identifier set (built once;
  /// previously re-derived per file on every lint).
  std::set<std::string> unordered_names;
  /// Names of functions declared in src/ returning Status / Result<T>.
  std::set<std::string> status_functions;
  /// Hash over everything a cached per-file result depends on besides
  /// the file itself: analyzer version, layer table, and the cross-file
  /// indices above. Editing a function body leaves it stable; adding a
  /// Status function or an unordered member invalidates every file.
  uint64_t global_context_hash = 0;
};

/// Builds the stage-one model from file contents (no filesystem access).
ProjectModel BuildProjectModel(std::vector<SourceFile> files);

/// A live `// hlm-lint: allow(<rule>)` annotation.
struct Suppression {
  std::string file;
  int line = 0;
  std::string rule;
};

struct AnalysisOptions {
  /// Path of the persistent result cache; empty disables caching.
  /// Cache entries key on (relpath, content hash, global context hash,
  /// direct includes' content hashes), so a warm run of an unchanged
  /// repo replays every per-file result, and editing one file re-lints
  /// that file plus its direct includers (layering dependents).
  std::string cache_path;
};

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;  // sorted by file, then line
  std::vector<Suppression> suppressions;  // every live annotation
  int files_analyzed = 0;    // linted fresh this run
  int files_from_cache = 0;  // replayed from the warm cache
};

/// Stage two: runs every pass over the model. Graph-level checks
/// (cycles, deps.dot input) always run fresh; per-file results go
/// through the cache when `options.cache_path` is set.
AnalysisResult AnalyzeProject(const ProjectModel& model,
                              const AnalysisOptions& options = {});

/// Lints one file standalone: builds a single-file project model (the
/// signature index and unordered-name set see only this content, plus
/// `extra_unordered_names`) and runs every per-file pass. Kept as the
/// fixture-driven test entry point.
std::vector<Diagnostic> LintContent(
    const std::string& relpath, const std::string& content,
    const std::set<std::string>& extra_unordered_names = {});

/// Scans `content` for identifiers declared as unordered_map /
/// unordered_set (used to build the cross-file name set for the
/// unordered-iter heuristic).
std::set<std::string> CollectUnorderedNames(const std::string& content);

/// The declared layer DAG, low to high; directories in the same group
/// may include each other.
const std::vector<std::vector<std::string>>& LayerGroups();

/// Layer rank for a repo-relative path (index into LayerGroups()), or
/// -1 when unconstrained.
int LayerRankOfPath(const std::string& relpath);

/// Formats one diagnostic as "file:line: rule: message".
std::string FormatDiagnostic(const Diagnostic& diag);

/// Renders the full result as a JSON object ({"findings": [...],
/// "summary": {...}}).
std::string RenderJson(const AnalysisResult& result);

/// Renders the full result as minimal SARIF 2.1.0.
std::string RenderSarif(const AnalysisResult& result);

/// Renders the layer-level dependency graph as graphviz dot. Edges
/// between layer directories aggregate file-level includes; annotated
/// back-edges (suppressed `layering` findings) render dashed with an
/// "annotated" label.
std::string RenderDepsDot(const ProjectModel& model);

/// 64-bit FNV-1a over `bytes` (content hashing for the model + cache).
uint64_t LintHash64(const std::string& bytes);

}  // namespace hlm::lint

#endif  // HLM_TOOLS_LINT_H_
