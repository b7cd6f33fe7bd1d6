// Tests for the hlm_lint rule engine (tools/lint.{h,cc}): every banned
// pattern fires, allowlist annotations suppress, comment/string content
// never matches, and the fixture files under tests/lint_fixtures/
// produce exactly the expected findings.

#include "tools/lint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace hlm::lint {
namespace {

std::vector<std::string> Rules(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> rules;
  rules.reserve(diags.size());
  for (const Diagnostic& d : diags) rules.push_back(d.rule);
  return rules;
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  const std::vector<std::string> rules = Rules(diags);
  return static_cast<int>(std::count(rules.begin(), rules.end(), rule));
}

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(HLM_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(LintRngTest, FlagsRandomDeviceEngineAndRand) {
  auto diags = LintContent("src/models/foo.cc", R"cpp(
#include <random>
int F() {
  std::random_device rd;
  std::mt19937 engine(123);
  return rand() + static_cast<int>(engine());
}
)cpp");
  EXPECT_EQ(CountRule(diags, "no-raw-rng"), 3);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[1].line, 5);
  EXPECT_EQ(diags[2].line, 6);
}

TEST(LintRngTest, RngImplementationIsExempt) {
  const std::string body = "static std::mt19937 reference_engine(42);\n";
  EXPECT_TRUE(LintContent("src/math/rng.cc", body).empty());
  EXPECT_EQ(CountRule(LintContent("src/math/mvn.cc", body), "no-raw-rng"), 1);
}

TEST(LintRngTest, CommentsAndStringsNeverMatch) {
  auto diags = LintContent("src/models/foo.cc", R"cpp(
// std::random_device in a comment is fine
/* so is rand() in a block comment */
const char* kDoc = "std::mt19937 inside a string literal";
)cpp");
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

TEST(LintRngTest, MultiLineRawStringsNeverMatch) {
  // The body of a raw string literal is data, not code, even across
  // lines — and names declared inside one must not enter the
  // unordered-container name set.
  const std::string body =
      "const char* kFixture = R\"cpp(\n"
      "std::random_device rd;\n"
      "std::unordered_map<int, int> counts;\n"
      "for (const auto& [k, v] : counts) total += v;\n"
      ")cpp\";\n";
  auto diags = LintContent("src/models/foo.cc", body);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
  EXPECT_TRUE(CollectUnorderedNames(body).empty());
}

TEST(LintRngTest, SnprintfDoesNotTripRandOrPrintf) {
  auto diags = LintContent("src/corpus/foo.cc", R"cpp(
#include <cstdio>
void F(char* buf, unsigned n) { std::snprintf(buf, n, "%u", n); }
)cpp");
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

TEST(LintAllowTest, SameLineAndPreviousLineAnnotationsSuppress) {
  auto diags = LintContent("src/models/foo.cc", R"cpp(
int F() {
  // hlm-lint: allow(no-raw-rng)
  std::random_device previous_line;
  return rand();  // hlm-lint: allow(no-raw-rng)
}
)cpp");
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

TEST(LintAllowTest, AnnotationForOtherRuleDoesNotSuppress) {
  auto diags = LintContent("src/models/foo.cc",
                           "int F() {\n"
                           "  return rand();  // hlm-lint: allow(no-stdio-output)\n"
                           "}\n");
  EXPECT_EQ(CountRule(diags, "no-raw-rng"), 1);
}

TEST(LintScopeTest, WallClockAndStdioOnlyApplyUnderSrc) {
  const std::string body =
      "#include <chrono>\n"
      "#include <iostream>\n"
      "void F() {\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "  (void)t;\n"
      "  std::cout << 1;\n"
      "}\n";
  EXPECT_EQ(LintContent("src/models/foo.cc", body).size(), 2u);
  EXPECT_TRUE(LintContent("bench/foo.cc", body).empty());
  EXPECT_TRUE(LintContent("tools/foo.cc", body).empty());
}

TEST(LintScopeTest, SteadyClockIsAllowed) {
  auto diags = LintContent(
      "src/obs/foo.cc",
      "#include <chrono>\n"
      "auto Now() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

TEST(LintThreadTest, RawThreadFlaggedEverywhereExceptParallelCc) {
  const std::string body = "#include <thread>\nstd::thread t;\n";
  EXPECT_EQ(CountRule(LintContent("src/models/foo.cc", body),
                      "no-raw-thread"),
            1);
  EXPECT_EQ(CountRule(LintContent("tests/foo_test.cc", body),
                      "no-raw-thread"),
            1);
  EXPECT_TRUE(LintContent("src/common/parallel.cc", body).empty());
}

TEST(LintUnorderedTest, RangeForAndIteratorWalksFlagged) {
  auto diags = LintContent("src/models/foo.cc", R"cpp(
#include <unordered_map>
#include <vector>
int F() {
  std::unordered_map<int, int> counts;
  std::vector<int> ordered;
  int total = 0;
  for (const auto& [k, v] : counts) total += v;
  for (auto it = counts.begin(); it != counts.end(); ++it) total += 1;
  for (int v : ordered) total += v;
  return total;
}
)cpp");
  EXPECT_EQ(CountRule(diags, "unordered-iter"), 2);
}

TEST(LintUnorderedTest, CrossFileNamesComeFromExtraSet) {
  const std::string body =
      "int F(const Ctx& c) {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, v] : c.successors) total += v;\n"
      "  return total;\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/models/foo.cc", body).empty());
  EXPECT_EQ(CountRule(LintContent("src/models/foo.cc", body, {"successors"}),
                      "unordered-iter"),
            1);
}

TEST(LintUnorderedTest, CollectsDeclaredNames) {
  std::set<std::string> names = CollectUnorderedNames(
      "std::unordered_map<uint64_t, Ctx> contexts_;\n"
      "std::unordered_set<int> seen;\n"
      "std::unordered_map<std::string, std::vector<int>> nested_decl;\n");
  EXPECT_TRUE(names.count("contexts_") > 0);
  EXPECT_TRUE(names.count("seen") > 0);
  EXPECT_TRUE(names.count("nested_decl") > 0);
}

TEST(LintHeaderGuardTest, DerivesGuardFromPath) {
  EXPECT_TRUE(LintContent("src/math/rng.h",
                          "#ifndef HLM_MATH_RNG_H_\n"
                          "#define HLM_MATH_RNG_H_\n"
                          "#endif\n")
                  .empty());
  auto diags = LintContent("src/math/rng.h",
                           "#ifndef RNG_H\n#define RNG_H\n#endif\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "header-guard");
  EXPECT_NE(diags[0].message.find("HLM_MATH_RNG_H_"), std::string::npos);
}

TEST(LintHeaderGuardTest, MissingGuardAndMissingDefineFlagged) {
  EXPECT_EQ(CountRule(LintContent("src/a.h", "int x;\n"), "header-guard"), 1);
  EXPECT_EQ(CountRule(LintContent("src/a.h", "#ifndef HLM_A_H_\n#endif\n"),
                      "header-guard"),
            1);
}

TEST(LintIncludeOrderTest, UnsortedWithinBlockFlaggedAcrossBlocksNot) {
  EXPECT_EQ(CountRule(LintContent("src/foo.cc",
                                  "#include <vector>\n#include <cmath>\n"),
                      "include-order"),
            1);
  // A blank line starts a new block, so own-header-first stays legal.
  EXPECT_TRUE(LintContent("src/foo.cc",
                          "#include \"models/lda.h\"\n\n"
                          "#include <cmath>\n#include <vector>\n\n"
                          "#include \"common/check.h\"\n")
                  .empty());
  // Angle and quoted includes sort independently within one block.
  EXPECT_TRUE(LintContent("src/foo.cc",
                          "#include <cmath>\n"
                          "#include \"a.h\"\n"
                          "#include <vector>\n"
                          "#include \"b.h\"\n")
                  .empty());
}

TEST(LintFixtureTest, BadRngFixtureProducesFindings) {
  auto diags = LintContent("src/bad_rng.cc", ReadFixture("bad_rng.cc"));
  EXPECT_EQ(CountRule(diags, "no-raw-rng"), 3);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file, "src/bad_rng.cc");
    EXPECT_GT(d.line, 0);
  }
}

TEST(LintFixtureTest, AllowedRngFixtureIsClean) {
  auto diags =
      LintContent("src/allowed_rng.cc", ReadFixture("allowed_rng.cc"));
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

TEST(LintFixtureTest, BadMiscFixtureFiresEachSrcScopedRule) {
  auto diags =
      LintContent("src/models/bad_misc.cc", ReadFixture("bad_misc.cc"));
  EXPECT_EQ(CountRule(diags, "no-wall-clock"), 2);
  EXPECT_EQ(CountRule(diags, "no-stdio-output"), 2);
  EXPECT_EQ(CountRule(diags, "no-raw-thread"), 2);
  EXPECT_EQ(CountRule(diags, "unordered-iter"), 1);
}

TEST(LintFixtureTest, BadGuardFixtureFlagged) {
  auto diags = LintContent("src/models/bad_guard.h",
                           ReadFixture("bad_guard.h"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "header-guard");
  EXPECT_NE(diags[0].message.find("HLM_MODELS_BAD_GUARD_H_"),
            std::string::npos);
}

TEST(LintFormatTest, DiagnosticFormatsAsFileLineRuleMessage) {
  Diagnostic diag{"src/x.cc", 12, "no-raw-rng", "boom"};
  EXPECT_EQ(FormatDiagnostic(diag), "src/x.cc:12: no-raw-rng: boom");
}

TEST(LintPersistWriteTest, FlagsOfstreamAndFopenInSrc) {
  auto diags = LintContent("src/models/foo.cc", R"cpp(
#include <fstream>
void Save(const char* path) {
  std::ofstream out(path);
  FILE* f = fopen(path, "w");
}
)cpp");
  EXPECT_EQ(CountRule(diags, "no-raw-persist-write"), 2);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[1].line, 5);
}

TEST(LintPersistWriteTest, AtomicFileWriterImplementationIsExempt) {
  const std::string body = "std::ofstream out_(temp_path_);\n";
  EXPECT_TRUE(LintContent("src/common/atomic_file.cc", body).empty());
  EXPECT_EQ(CountRule(LintContent("src/common/atomic_file.h", body),
                      "no-raw-persist-write"),
            0);
  EXPECT_EQ(CountRule(LintContent("src/common/csv.cc", body),
                      "no-raw-persist-write"),
            1);
}

TEST(LintPersistWriteTest, ReadersAndNonSrcFilesAreFine) {
  // std::ifstream never matches; tools/tests may write files directly.
  EXPECT_TRUE(
      LintContent("src/models/foo.cc", "std::ifstream in(path);\n").empty());
  EXPECT_TRUE(
      LintContent("tools/gen.cc", "std::ofstream out(path);\n").empty());
}

TEST(LintPersistWriteTest, AnnotationSuppresses) {
  auto diags = LintContent("src/obs/sink.cc",
                           "// hlm-lint: allow(no-raw-persist-write)\n"
                           "std::ofstream out(path);\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintRuleListTest, AllSeventeenRulesAdvertised) {
  std::vector<std::string> rules = RuleNames();
  EXPECT_EQ(rules.size(), 17u);
  for (const char* semantic :
       {"layering", "unchecked-status", "hot-path-alloc", "lock-discipline",
        "stale-suppression"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), semantic), rules.end())
        << semantic;
  }
  EXPECT_EQ(RuleSeverity("stale-suppression"), Severity::kWarning);
  EXPECT_EQ(RuleSeverity("layering"), Severity::kError);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "no-raw-rng"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "include-order"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "no-raw-persist-write"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "metric-naming"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "span-event-naming"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(),
                      "simd-intrinsic-isolation"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "no-hand-json"),
            rules.end());
}

TEST(LintHandJsonTest, FlagsJsonShapedLiteralsInSrc) {
  auto diags = LintContent("src/serve/foo.cc", R"cpp(
std::string Body(int n) {
  return "{\"generation\":" + std::to_string(n) + "}";
}
std::string Pair(const std::string& key) { return "\"" + key + "\": 1"; }
)cpp");
  EXPECT_EQ(CountRule(diags, "no-hand-json"), 2);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_EQ(diags[1].line, 5);
}

TEST(LintHandJsonTest, WriterCallsCommentsAndOwnerAreFine) {
  // Keys passed to the writer carry no JSON punctuation, a comment may
  // show a document, and obs/json.cc owns the format.
  const std::string writer = R"cpp(
// Emits {"error":"..."}.
void Render(obs::JsonWriter& json) { json.Key("error").String("x"); }
)cpp";
  EXPECT_EQ(CountRule(LintContent("src/serve/foo.cc", writer),
                      "no-hand-json"),
            0);
  const std::string owner = "const char* kOpen = \"{\\\"\";\n";
  EXPECT_EQ(CountRule(LintContent("src/obs/json.cc", owner), "no-hand-json"),
            0);
  EXPECT_EQ(CountRule(LintContent("src/obs/metrics.cc", owner),
                      "no-hand-json"),
            1);
  EXPECT_EQ(CountRule(LintContent("tools/report.cc", owner), "no-hand-json"),
            0);
}

TEST(LintSimdIsolationTest, FlagsIntrinsicHeadersOutsideKernelLayer) {
  const std::string body = "#include <immintrin.h>\n";
  EXPECT_EQ(CountRule(LintContent("src/models/lda.cc", body),
                      "simd-intrinsic-isolation"),
            1);
  EXPECT_EQ(CountRule(LintContent("tools/hlm_bench.cc", body),
                      "simd-intrinsic-isolation"),
            1);
}

TEST(LintSimdIsolationTest, KernelLayerIsExemptAndAnnotationSuppresses) {
  EXPECT_EQ(CountRule(LintContent("src/math/simd/kernels_avx2.cc",
                                  "#include <immintrin.h>\n"),
                      "simd-intrinsic-isolation"),
            0);
  const std::string annotated =
      "// hlm-lint: allow(simd-intrinsic-isolation)\n"
      "#include <immintrin.h>\n";
  EXPECT_EQ(CountRule(LintContent("src/models/lda.cc", annotated),
                      "simd-intrinsic-isolation"),
            0);
}

TEST(LintFixtureTest, BadIntrinsicsFixtureFlagged) {
  auto diags = LintContent("src/models/bad_intrinsics.cc",
                           ReadFixture("bad_intrinsics.cc"));
  EXPECT_EQ(CountRule(diags, "simd-intrinsic-isolation"), 2);
}

TEST(LintMetricNamingTest, FlagsBadCounterAndHistogramSuffixes) {
  auto diags = LintContent("src/models/foo.cc", R"cpp(
auto* a = registry.GetCounter("hlm.foo.events");
auto* b = registry.GetHistogram("hlm.foo.latency");
auto* c = registry.GetCounter("foo.events_total");
)cpp");
  EXPECT_EQ(CountRule(diags, "metric-naming"), 3);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("_total"), std::string::npos);
  EXPECT_NE(diags[1].message.find("_seconds"), std::string::npos);
  EXPECT_NE(diags[2].message.find("hlm."), std::string::npos);
}

TEST(LintMetricNamingTest, WellFormedNamesAndGaugesPass) {
  EXPECT_TRUE(LintContent("src/models/foo.cc", R"cpp(
auto* a = registry.GetCounter("hlm.foo.events_total");
auto* b = registry.GetHistogram("hlm.foo.step_seconds");
auto* c = registry.GetGauge("hlm.foo.log_likelihood");
)cpp").empty());
}

TEST(LintMetricNamingTest, WrappedLiteralOnNextLineIsChecked) {
  auto diags = LintContent("src/models/foo.cc",
                           "auto* h = registry.GetHistogram(\n"
                           "    \"hlm.foo.latency_ms\");\n");
  EXPECT_EQ(CountRule(diags, "metric-naming"), 1);
}

TEST(LintMetricNamingTest, DynamicallyBuiltNamesAreSkipped) {
  // A literal followed by '+' is a prefix of a computed name — out of
  // the heuristic's reach, skipped rather than guessed at.
  EXPECT_TRUE(LintContent("src/models/foo.cc",
                          "auto* h = registry.GetHistogram(\n"
                          "    \"hlm.bench.\" + name + \"_seconds\");\n")
                  .empty());
}

TEST(LintMetricNamingTest, AppliesOutsideSrcAndAnnotationSuppresses) {
  // Bench/tool call sites feed the same registry, so the rule applies
  // repo-wide, and the standard annotation escape hatch works.
  EXPECT_EQ(CountRule(LintContent("bench/bench_foo.cc",
                                  "registry.GetCounter(\"hlm.x.count\");\n"),
                      "metric-naming"),
            1);
  EXPECT_TRUE(LintContent("bench/bench_foo.cc",
                          "// hlm-lint: allow(metric-naming)\n"
                          "registry.GetCounter(\"hlm.x.count\");\n")
                  .empty());
}

TEST(LintFixtureTest, BadMetricNamesFixtureFlagged) {
  auto diags = LintContent("src/obs/bad_metric_names.cc",
                           ReadFixture("bad_metric_names.cc"));
  EXPECT_EQ(CountRule(diags, "metric-naming"), 3);
}

TEST(LintSpanEventNamingTest, FlagsNonDotCaseSpanAndEventNames) {
  auto diags = LintContent("src/models/foo.cc", R"cpp(
obs::TraceSpan span("TrainLda");
HLM_EVENT("registryloaded", {{"n", 1}});
HLM_EVENT_AT(::hlm::obs::EventLevel::kError, "Bad.Case", {{"c", 2}});
)cpp");
  EXPECT_EQ(CountRule(diags, "span-event-naming"), 3);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("dot.case"), std::string::npos);
}

TEST(LintSpanEventNamingTest, WellFormedNamesPass) {
  EXPECT_TRUE(LintContent("src/models/foo.cc", R"cpp(
obs::TraceSpan train_span("lda.train", histogram);
HLM_EVENT("serve.model.loaded", {{"kind", kind}});
HLM_EVENT_AT(::hlm::obs::EventLevel::kWarn, "snapshot.verify.failed",
             {{"path", path}});
)cpp").empty());
}

TEST(LintSpanEventNamingTest, WrappedLiteralOnNextLineIsChecked) {
  auto diags = LintContent("src/models/foo.cc",
                           "obs::TraceSpan train_span(\n"
                           "    \"TrainSweep\", histogram);\n");
  EXPECT_EQ(CountRule(diags, "span-event-naming"), 1);
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintSpanEventNamingTest, DynamicNamesAndNonSrcAreSkipped) {
  // A name built by concatenation starts with a wrapper expression, not
  // a literal — out of the heuristic's reach.
  EXPECT_TRUE(LintContent(
                  "src/serve/foo.cc",
                  "obs::TraceSpan span(std::string(\"serve.load.\") + "
                  "kind);\n")
                  .empty());
  // Tests name spans freely; the convention binds library code only.
  EXPECT_TRUE(
      LintContent("tests/foo_test.cc", "obs::TraceSpan span(\"outer\");\n")
          .empty());
}

TEST(LintSpanEventNamingTest, AnnotationSuppresses) {
  EXPECT_TRUE(LintContent("src/models/foo.cc",
                          "// hlm-lint: allow(span-event-naming)\n"
                          "obs::TraceSpan span(\"LegacyName\");\n")
                  .empty());
}

TEST(LintFixtureTest, BadSpanNamesFixtureFlagged) {
  auto diags = LintContent("src/obs/bad_span_names.cc",
                           ReadFixture("bad_span_names.cc"));
  EXPECT_EQ(CountRule(diags, "span-event-naming"), 5);
}

// ---------------------------------------------------------------------
// Whole-program passes (layering, unchecked-status, hot-path-alloc,
// lock-discipline, stale-suppression) and the analysis cache.

TEST(LintLayeringTest, BackEdgeFixtureFiresAndAnnotationSuppresses) {
  auto diags = LintContent("src/math/layering_backedge.cc",
                           ReadFixture("layering_backedge.cc"));
  ASSERT_EQ(CountRule(diags, "layering"), 1);
  // The serve/ include fires; the annotated recsys/ include does not,
  // and the used annotation is not stale.
  for (const Diagnostic& d : diags) {
    if (d.rule != "layering") continue;
    EXPECT_EQ(d.line, 7);
    EXPECT_NE(d.message.find("serve/registry.h"), std::string::npos);
  }
  EXPECT_EQ(CountRule(diags, "stale-suppression"), 0);
}

TEST(LintLayeringTest, SameAndLowerLayerIncludesPass) {
  EXPECT_TRUE(LintContent("src/serve/top.cc",
                          "#include \"common/status.h\"\n"
                          "#include \"recsys/scorer.h\"\n")
                  .empty());
  // tools/ and tests/ are unconstrained.
  EXPECT_TRUE(LintContent("tools/some_tool.cc",
                          "#include \"serve/registry.h\"\n")
                  .empty());
}

TEST(LintLayeringTest, RanksMatchDeclaredDag) {
  EXPECT_EQ(LayerRankOfPath("src/common/status.h"), 0);
  EXPECT_EQ(LayerRankOfPath("src/obs/metrics.h"), 1);
  EXPECT_EQ(LayerRankOfPath("src/math/matrix.h"), 2);
  // corpus/models/repr/cluster share a rank, as do recsys/app.
  EXPECT_EQ(LayerRankOfPath("src/models/lda.h"),
            LayerRankOfPath("src/corpus/corpus.h"));
  EXPECT_EQ(LayerRankOfPath("src/recsys/scorer.h"),
            LayerRankOfPath("src/app/sales_tool.h"));
  EXPECT_GT(LayerRankOfPath("src/serve/registry.h"),
            LayerRankOfPath("src/recsys/scorer.h"));
  EXPECT_EQ(LayerRankOfPath("tests/foo_test.cc"), -1);
}

TEST(LintUncheckedStatusTest, FixtureFiresOnBareCallsOnly) {
  auto diags = LintContent("src/app/ignored_status.cc",
                           ReadFixture("ignored_status.cc"));
  EXPECT_EQ(CountRule(diags, "unchecked-status"), 2);
  std::set<int> lines;
  for (const Diagnostic& d : diags) {
    if (d.rule == "unchecked-status") lines.insert(d.line);
  }
  // The two bare statement calls; the assigned, tested, and annotated
  // calls all pass, and the annotation is live (not stale).
  EXPECT_EQ(lines, (std::set<int>{12, 13}));
  EXPECT_EQ(CountRule(diags, "stale-suppression"), 0);
}

TEST(LintUncheckedStatusTest, ConsumedFormsPass) {
  const std::string decls = "Status Save(int v);\n";
  EXPECT_TRUE(LintContent("src/app/a.cc",
                          decls + "Status F() { return Save(1); }\n")
                  .empty());
  EXPECT_TRUE(LintContent("src/app/b.cc",
                          decls + "void F() { HLM_CHECK_OK(Save(1)); }\n")
                  .empty());
  // Library contract binds src/ only; tools may discard.
  EXPECT_TRUE(LintContent("tools/t.cc",
                          "Status Save(int v);\n"
                          "void F() { Save(1); }\n")
                  .empty());
}

TEST(LintUncheckedStatusTest, CrossFileIndexThroughProjectModel) {
  // The Status function is declared in one file and dropped in another;
  // only the whole-program model connects them.
  ProjectModel model = BuildProjectModel(
      {{"src/corpus/io.h",
        "#ifndef HLM_CORPUS_IO_H_\n#define HLM_CORPUS_IO_H_\n"
        "namespace hlm { Status WriteCorpus(int fd); }\n"
        "#endif  // HLM_CORPUS_IO_H_\n"},
       {"src/serve/use.cc",
        "#include \"corpus/io.h\"\n"
        "void F() { hlm::WriteCorpus(3); }\n"}});
  AnalysisResult result = AnalyzeProject(model);
  EXPECT_EQ(CountRule(result.diagnostics, "unchecked-status"), 1);
  EXPECT_EQ(result.diagnostics[0].file, "src/serve/use.cc");
}

TEST(LintHotPathTest, FixtureFlagsAllocationsInsideRegionOnly) {
  auto diags = LintContent("src/models/hotpath_alloc.cc",
                           ReadFixture("hotpath_alloc.cc"));
  EXPECT_EQ(CountRule(diags, "hot-path-alloc"), 4);
  std::set<int> lines;
  for (const Diagnostic& d : diags) {
    if (d.rule == "hot-path-alloc") lines.insert(d.line);
  }
  // push_back, vector construction, make_unique, new — all between the
  // markers. reserve/resize outside and the annotated emplace_back pass.
  EXPECT_EQ(lines, (std::set<int>{12, 13, 14, 15}));
  EXPECT_EQ(CountRule(diags, "stale-suppression"), 0);
}

TEST(LintHotPathTest, UnbalancedMarkersAreErrors) {
  auto dangling_end = LintContent("src/models/a.cc",
                                  "// hlm-lint: hot-path end\n");
  EXPECT_EQ(CountRule(dangling_end, "hot-path-alloc"), 1);

  auto unterminated = LintContent("src/models/b.cc",
                                  "// hlm-lint: hot-path begin\n"
                                  "int x = 0;\n");
  ASSERT_EQ(CountRule(unterminated, "hot-path-alloc"), 1);
  EXPECT_EQ(unterminated[0].line, 1);

  auto nested = LintContent("src/models/c.cc",
                            "// hlm-lint: hot-path begin\n"
                            "// hlm-lint: hot-path begin\n"
                            "// hlm-lint: hot-path end\n");
  EXPECT_EQ(CountRule(nested, "hot-path-alloc"), 1);
}

TEST(LintHotPathTest, ProseAndStringsNeverOpenARegion) {
  // "begin/end" prose in a comment is not a marker (no whitespace/EOL
  // boundary after "begin"), and markers inside string literals are
  // data, not annotations.
  EXPECT_TRUE(LintContent("src/models/a.cc",
                          "// regions use hot-path begin/end markers\n"
                          "int x = 0;\n")
                  .empty());
  EXPECT_TRUE(
      LintContent("src/models/b.cc",
                  "const char* kDoc = \"// hlm-lint: hot-path begin\";\n"
                  "void F(std::vector<int>& v) { v.push_back(1); }\n")
          .empty());
}

TEST(LintLockDisciplineTest, FixtureFiresOutsideConcurrencyLayer) {
  auto diags = LintContent("src/models/stray_mutex.cc",
                           ReadFixture("stray_mutex.cc"));
  EXPECT_EQ(CountRule(diags, "lock-discipline"), 2);
  std::set<int> lines;
  for (const Diagnostic& d : diags) {
    if (d.rule == "lock-discipline") lines.insert(d.line);
  }
  EXPECT_EQ(lines, (std::set<int>{8, 11}));
  EXPECT_EQ(CountRule(diags, "stale-suppression"), 0);
}

TEST(LintLockDisciplineTest, ConcurrencyLayerAndObsAreExempt) {
  const std::string mu = "std::mutex g_mu;\n";
  EXPECT_TRUE(LintContent("src/common/parallel.cc", mu).empty());
  EXPECT_TRUE(LintContent("src/obs/metrics.cc", mu).empty());
  EXPECT_TRUE(LintContent("tests/foo_test.cc", mu).empty());
  EXPECT_EQ(CountRule(LintContent("src/common/logging.cc", mu),
                      "lock-discipline"),
            1);
}

TEST(LintStaleSuppressionTest, FixtureFlagsDeadAndUnknownAllows) {
  auto diags = LintContent("src/models/stale_allow.cc",
                           ReadFixture("stale_allow.cc"));
  ASSERT_EQ(CountRule(diags, "stale-suppression"), 2);
  std::set<int> lines;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kWarning);
    lines.insert(d.line);
  }
  EXPECT_EQ(lines, (std::set<int>{8, 11}));
}

TEST(LintStaleSuppressionTest, UsedAnnotationIsNotStale) {
  auto diags = LintContent("src/models/foo.cc",
                           "// hlm-lint: allow(no-raw-rng)\n"
                           "std::mt19937 gen;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintCycleTest, MutualIncludesAreAnUnsuppressibleCycle) {
  const std::string x =
      "#ifndef HLM_COMMON_X_H_\n#define HLM_COMMON_X_H_\n"
      "// hlm-lint: allow(layering)\n"
      "#include \"common/y.h\"\n"
      "#endif  // HLM_COMMON_X_H_\n";
  const std::string y =
      "#ifndef HLM_COMMON_Y_H_\n#define HLM_COMMON_Y_H_\n"
      "#include \"common/x.h\"\n"
      "#endif  // HLM_COMMON_Y_H_\n";
  ProjectModel model =
      BuildProjectModel({{"src/common/x.h", x}, {"src/common/y.h", y}});
  AnalysisResult result = AnalyzeProject(model);
  int cycles = 0;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.message.find("include cycle") != std::string::npos) ++cycles;
  }
  EXPECT_EQ(cycles, 1);
}

// Helpers for the cache tests: a three-file project where b.cc includes
// a.h, and c.cc stands alone.
std::vector<SourceFile> CacheProject(const std::string& a_h) {
  return {{"src/common/a.h", a_h},
          {"src/math/b.cc",
           "#include \"common/a.h\"\nint B() { return hlm::A(); }\n"},
          {"src/serve/c.cc", "int C() { return 7; }\n"}};
}

const char kAOriginal[] =
    "#ifndef HLM_COMMON_A_H_\n#define HLM_COMMON_A_H_\n"
    "namespace hlm { int A(); }\n"
    "#endif  // HLM_COMMON_A_H_\n";

TEST(LintCacheTest, WarmRunReplaysEveryFile) {
  const std::string cache =
      ::testing::TempDir() + "/hlm_lint_cache_warm";
  std::remove(cache.c_str());
  AnalysisOptions options;
  options.cache_path = cache;

  ProjectModel model = BuildProjectModel(CacheProject(kAOriginal));
  AnalysisResult cold = AnalyzeProject(model, options);
  EXPECT_EQ(cold.files_analyzed, 3);
  EXPECT_EQ(cold.files_from_cache, 0);
  EXPECT_TRUE(cold.diagnostics.empty());

  ProjectModel again = BuildProjectModel(CacheProject(kAOriginal));
  AnalysisResult warm = AnalyzeProject(again, options);
  EXPECT_EQ(warm.files_analyzed, 0);
  EXPECT_EQ(warm.files_from_cache, 3);
  EXPECT_TRUE(warm.diagnostics.empty());
}

TEST(LintCacheTest, EditInvalidatesFileAndItsDirectIncluders) {
  const std::string cache =
      ::testing::TempDir() + "/hlm_lint_cache_edit";
  std::remove(cache.c_str());
  AnalysisOptions options;
  options.cache_path = cache;

  AnalyzeProject(BuildProjectModel(CacheProject(kAOriginal)), options);

  // A body-level edit to a.h re-lints a.h and b.cc (its direct
  // includer / layering dependent); untouched c.cc replays.
  const std::string edited =
      "#ifndef HLM_COMMON_A_H_\n#define HLM_COMMON_A_H_\n"
      "namespace hlm { int A(); }  // touched\n"
      "#endif  // HLM_COMMON_A_H_\n";
  AnalysisResult after =
      AnalyzeProject(BuildProjectModel(CacheProject(edited)), options);
  EXPECT_EQ(after.files_analyzed, 2);
  EXPECT_EQ(after.files_from_cache, 1);
}

TEST(LintCacheTest, CachedFindingsAndSuppressionsReplay) {
  const std::string cache =
      ::testing::TempDir() + "/hlm_lint_cache_findings";
  std::remove(cache.c_str());
  AnalysisOptions options;
  options.cache_path = cache;

  std::vector<SourceFile> files = {
      {"src/models/bad.cc", "std::mutex g_mu;\n"},
      {"src/models/ok.cc",
       "// hlm-lint: allow(no-raw-rng)\nstd::mt19937 gen;\n"}};
  AnalysisResult cold =
      AnalyzeProject(BuildProjectModel(files), options);
  ASSERT_EQ(CountRule(cold.diagnostics, "lock-discipline"), 1);
  ASSERT_EQ(cold.suppressions.size(), 1u);

  AnalysisResult warm =
      AnalyzeProject(BuildProjectModel(files), options);
  EXPECT_EQ(warm.files_from_cache, 2);
  EXPECT_EQ(CountRule(warm.diagnostics, "lock-discipline"), 1);
  ASSERT_EQ(warm.suppressions.size(), 1u);
  EXPECT_EQ(warm.suppressions[0].file, "src/models/ok.cc");
  EXPECT_EQ(warm.suppressions[0].rule, "no-raw-rng");
}

TEST(LintRenderTest, JsonSarifAndDepsDotSmoke) {
  ProjectModel model = BuildProjectModel(
      {{"src/models/bad.cc", "std::mutex g_mu;\n"},
       {"src/serve/use.cc", "#include \"models/bad.h\"\nint F();\n"}});
  AnalysisResult result = AnalyzeProject(model);
  ASSERT_FALSE(result.diagnostics.empty());

  const std::string json = RenderJson(result);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("lock-discipline"), std::string::npos);

  const std::string sarif = RenderSarif(result);
  EXPECT_NE(sarif.find("sarif-2.1.0"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-discipline\""),
            std::string::npos);
  EXPECT_NE(sarif.find("hlm_lint"), std::string::npos);

  const std::string dot = RenderDepsDot(model);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  // serve -> models include renders as a layer-level edge.
  EXPECT_NE(dot.find("serve"), std::string::npos);
  EXPECT_NE(dot.find("models"), std::string::npos);
}

}  // namespace
}  // namespace hlm::lint
