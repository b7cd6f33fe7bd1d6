#include "tools/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace hlm::lint {

namespace {

/// Bumping this invalidates every cached result (build/lint-cache).
constexpr const char kAnalyzerVersion[] = "hlm-lint 2.1.0";

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Finds `token` in `line` as a whole identifier (no identifier char on
/// either side). Returns true on a match.
bool HasToken(const std::string& line, const std::string& token) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    size_t after = pos + token.size();
    bool right_ok = after >= line.size() || !IsIdentChar(line[after]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// HasToken where the token must additionally be followed (after
/// whitespace) by `next`, e.g. a call's opening paren.
bool HasTokenThen(const std::string& line, const std::string& token,
                  char next) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    size_t after = pos + token.size();
    bool right_ok = after >= line.size() || !IsIdentChar(line[after]);
    if (left_ok && right_ok) {
      size_t i = after;
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])) != 0) {
        ++i;
      }
      if (i < line.size() && line[i] == next) return true;
    }
    pos += 1;
  }
  return false;
}

struct StrippedSource {
  /// Code with comments and string/char literals blanked; line-aligned
  /// with the raw file so diagnostics keep their 1-based line numbers.
  std::vector<std::string> code_lines;
  /// The comment text alone (line and block comments), line-aligned.
  /// This is the only place annotations and hot-path markers are
  /// recognized, so an annotation inside a string literal is data.
  std::vector<std::string> comment_lines;
  /// The ordinary string literals on each line, as written (escapes
  /// kept), each followed by '\n'. Raw strings are not included.
  std::vector<std::string> literal_lines;
};

/// Splits `content` into code and comment streams, preserving line
/// structure. Block comments and raw string literals spanning lines are
/// handled.
StrippedSource StripSource(const std::string& content) {
  StrippedSource out;
  std::string code;
  std::string comment;
  std::string literal;
  enum class State { kCode, kBlockComment, kString, kRawString, kChar };
  State state = State::kCode;
  // Closing sequence of the raw string being skipped: )delim"
  std::string raw_terminator;
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      // Ordinary strings and char literals never span lines in this
      // codebase; raw strings and block comments may.
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      out.code_lines.push_back(code);
      out.comment_lines.push_back(comment);
      out.literal_lines.push_back(literal);
      code.clear();
      comment.clear();
      literal.clear();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          // Capture to end of line as comment text.
          i += 1;
          while (i + 1 < content.size() && content[i + 1] != '\n') {
            comment.push_back(content[i + 1]);
            ++i;
          }
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          if (i > 0 && content[i - 1] == 'R') {
            // Raw string literal R"delim( ... )delim". Capture the
            // delimiter so the scan only ends at the matching close.
            std::string delim;
            size_t j = i + 1;
            while (j < content.size() && content[j] != '(' &&
                   delim.size() < 16) {
              delim.push_back(content[j]);
              ++j;
            }
            raw_terminator = ")" + delim + "\"";
            state = State::kRawString;
            i = j;  // Skip past the opening parenthesis.
          } else {
            state = State::kString;
          }
          code.push_back(' ');
        } else if (c == '\'') {
          state = State::kChar;
          code.push_back(' ');
        } else {
          code.push_back(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          literal.push_back(c);
          literal.push_back(next);
          ++i;
        } else if (c == '"') {
          literal.push_back('\n');
          state = State::kCode;
        } else {
          literal.push_back(c);
        }
        break;
      case State::kRawString:
        if (c == raw_terminator[0] &&
            content.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          i += raw_terminator.size() - 1;
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
    }
  }
  out.code_lines.push_back(code);
  out.comment_lines.push_back(comment);
  out.literal_lines.push_back(literal);
  return out;
}

std::vector<std::string> SplitRawLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

/// Parses every `hlm-lint: allow(<rule>)` annotation out of the comment
/// stream. Returned in line order. The rule must be kebab-case: doc
/// text showing the syntax with a placeholder (`allow(<rule>)`,
/// `allow(...)`) is prose, not an annotation.
std::vector<std::pair<int, std::string>> CollectAllows(
    const std::vector<std::string>& comment_lines) {
  std::vector<std::pair<int, std::string>> allows;
  const std::string needle = "hlm-lint: allow(";
  for (size_t i = 0; i < comment_lines.size(); ++i) {
    const std::string& line = comment_lines[i];
    size_t pos = 0;
    while ((pos = line.find(needle, pos)) != std::string::npos) {
      size_t start = pos + needle.size();
      size_t close = line.find(')', start);
      if (close == std::string::npos) break;
      const std::string rule = line.substr(start, close - start);
      bool kebab = !rule.empty();
      for (char c : rule) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '-')) {
          kebab = false;
          break;
        }
      }
      if (kebab) {
        allows.emplace_back(static_cast<int>(i) + 1, rule);
      }
      pos = close + 1;
    }
  }
  return allows;
}

std::string ExpectedGuard(const std::string& relpath) {
  std::string path = relpath;
  if (StartsWith(path, "src/")) path = path.substr(4);
  std::string guard = "HLM_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

/// Identifier tokens appearing in `text`.
std::vector<std::string> IdentTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (IsIdentChar(c)) {
      current.push_back(c);
    } else if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

struct RuleContext {
  const ProjectModel* model = nullptr;
  const FileModel* file = nullptr;
  const std::vector<std::string>* code_lines = nullptr;
  const std::vector<std::string>* raw_lines = nullptr;
  std::vector<Diagnostic>* diags = nullptr;
  /// Parallel to file->allows: marked when an annotation suppresses a
  /// finding. Unused annotations become stale-suppression findings.
  std::vector<bool>* allow_used = nullptr;
};

/// Rules allowed on 1-based line `line` via `// hlm-lint: allow(<rule>)`
/// on the same or the preceding line. Marks the consumed annotation.
bool IsAllowed(const RuleContext& ctx, int line, const std::string& rule) {
  const auto& allows = ctx.file->allows;
  for (size_t i = 0; i < allows.size(); ++i) {
    if (allows[i].second != rule) continue;
    if (allows[i].first == line || allows[i].first == line - 1) {
      (*ctx.allow_used)[i] = true;
      return true;
    }
  }
  return false;
}

void Report(const RuleContext& ctx, int line, const std::string& rule,
            const std::string& message) {
  if (IsAllowed(ctx, line, rule)) return;
  ctx.diags->push_back(Diagnostic{ctx.file->relpath, line, rule, message,
                                  RuleSeverity(rule)});
}

void CheckRawRng(const RuleContext& ctx) {
  const std::string& path = ctx.file->relpath;
  if (path == "src/math/rng.cc" || path == "src/math/rng.h") return;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    if (HasToken(line, "random_device")) {
      Report(ctx, ln, "no-raw-rng",
             "std::random_device is nondeterministic; seed an hlm::Rng "
             "instead");
    }
    if (HasToken(line, "mt19937") || HasToken(line, "mt19937_64") ||
        HasToken(line, "minstd_rand") ||
        HasToken(line, "default_random_engine")) {
      Report(ctx, ln, "no-raw-rng",
             "raw <random> engine; use hlm::Rng (Rng::ForkAt for "
             "parallel streams)");
    }
    if (HasTokenThen(line, "rand", '(') || HasTokenThen(line, "srand", '(') ||
        HasTokenThen(line, "drand48", '(')) {
      Report(ctx, ln, "no-raw-rng",
             "C library rand(); use hlm::Rng so runs replay from a seed");
    }
  }
}

void CheckWallClock(const RuleContext& ctx) {
  if (!StartsWith(ctx.file->relpath, "src/")) return;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    if (HasToken(line, "system_clock") ||
        HasToken(line, "high_resolution_clock")) {
      Report(ctx, ln, "no-wall-clock",
             "wall-clock read in model code; use steady_clock for "
             "durations and pass timestamps in as data");
    }
    if (line.find("time(nullptr)") != std::string::npos ||
        line.find("time(NULL)") != std::string::npos ||
        HasTokenThen(line, "gettimeofday", '(')) {
      Report(ctx, ln, "no-wall-clock",
             "time() seeds/timestamps make output depend on when you "
             "ran it");
    }
  }
}

void CheckRawThread(const RuleContext& ctx) {
  if (ctx.file->relpath == "src/common/parallel.cc") return;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    if (line.find("std::thread") != std::string::npos ||
        line.find("std::jthread") != std::string::npos ||
        line.find("std::async") != std::string::npos) {
      Report(ctx, ln, "no-raw-thread",
             "raw threading; use ParallelFor/ParallelMapReduce over the "
             "deterministic pool (src/common/parallel.h)");
    }
  }
}

void CheckStdioOutput(const RuleContext& ctx) {
  if (!StartsWith(ctx.file->relpath, "src/")) return;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    if (line.find("std::cout") != std::string::npos ||
        HasTokenThen(line, "printf", '(') || HasTokenThen(line, "puts", '(')) {
      Report(ctx, ln, "no-stdio-output",
             "stdout write in library code; log through HLM_LOG so sinks "
             "and levels stay in control");
    }
  }
}

void CheckUnorderedIteration(const RuleContext& ctx,
                             const std::set<std::string>& unordered_names) {
  if (unordered_names.empty()) return;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;

    // Range-for whose range expression mentions an unordered name.
    size_t for_pos = 0;
    bool flagged = false;
    while (!flagged &&
           (for_pos = line.find("for", for_pos)) != std::string::npos) {
      bool left_ok = for_pos == 0 || !IsIdentChar(line[for_pos - 1]);
      bool right_ok = for_pos + 3 >= line.size() ||
                      !IsIdentChar(line[for_pos + 3]);
      if (!left_ok || !right_ok) {
        for_pos += 3;
        continue;
      }
      size_t open = line.find('(', for_pos);
      if (open == std::string::npos) break;
      // Find the single range-for colon (not ::) inside the parens.
      size_t colon = std::string::npos;
      for (size_t p = open + 1; p < line.size(); ++p) {
        if (line[p] == ':') {
          if ((p + 1 < line.size() && line[p + 1] == ':') ||
              (p > 0 && line[p - 1] == ':')) {
            continue;
          }
          colon = p;
          break;
        }
      }
      if (colon != std::string::npos) {
        for (const std::string& tok : IdentTokens(line.substr(colon + 1))) {
          if (unordered_names.count(tok) > 0) {
            Report(ctx, ln, "unordered-iter",
                   "iterates unordered container '" + tok +
                       "'; hash order is unspecified — sort with a full "
                       "tie-break or annotate why order cannot leak");
            flagged = true;
            break;
          }
        }
      }
      for_pos += 3;
    }
    if (flagged) continue;

    // Explicit iterator walks: name.begin() / name.cbegin().
    for (const std::string& name : unordered_names) {
      if (HasToken(line, name) &&
          (line.find(name + ".begin(") != std::string::npos ||
           line.find(name + ".cbegin(") != std::string::npos)) {
        Report(ctx, ln, "unordered-iter",
               "iterator walk over unordered container '" + name +
                   "'; hash order is unspecified — sort with a full "
                   "tie-break or annotate why order cannot leak");
        break;
      }
    }
  }
}

void CheckRawPersistWrite(const RuleContext& ctx) {
  if (!StartsWith(ctx.file->relpath, "src/")) return;
  // The one place allowed to open a file for writing: the temp-file +
  // rename primitive everything else is supposed to go through.
  if (ctx.file->relpath == "src/common/atomic_file.cc" ||
      ctx.file->relpath == "src/common/atomic_file.h") {
    return;
  }
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    if (line.find("std::ofstream") != std::string::npos ||
        HasTokenThen(line, "fopen", '(')) {
      Report(ctx, ln, "no-raw-persist-write",
             "direct file write in library code; persist through "
             "AtomicFileWriter so a crash mid-write cannot truncate the "
             "file readers depend on");
    }
  }
}

/// The first complete string literal in `raw` at/after `from`. Returns
/// false when no literal opens on this line. `followed_by` receives the
/// first non-space character after the closing quote ('\0' at end of
/// line), so callers can tell a complete argument (')' / ',') from a
/// concatenation ('+').
bool ExtractStringLiteral(const std::string& raw, size_t from,
                          std::string* literal, char* followed_by) {
  size_t open = raw.find('"', from);
  if (open == std::string::npos) return false;
  literal->clear();
  size_t p = open + 1;
  while (p < raw.size() && raw[p] != '"') {
    if (raw[p] == '\\' && p + 1 < raw.size()) ++p;
    literal->push_back(raw[p]);
    ++p;
  }
  if (p >= raw.size()) return false;  // unterminated (spans lines)
  ++p;
  while (p < raw.size() &&
         std::isspace(static_cast<unsigned char>(raw[p])) != 0) {
    ++p;
  }
  *followed_by = p < raw.size() ? raw[p] : '\0';
  return true;
}

void CheckMetricNaming(const RuleContext& ctx) {
  struct Registrar {
    const char* token;
    const char* suffix;
    const char* kind;
  };
  static const Registrar kRegistrars[] = {
      {"GetCounter", "_total", "counter"},
      {"GetHistogram", "_seconds", "timing histogram"},
  };
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    for (const Registrar& reg : kRegistrars) {
      if (!HasTokenThen(line, reg.token, '(')) continue;
      // The literal sits after the call's '(' on this raw line, or —
      // when the call wraps with nothing after the parenthesis — at the
      // start of the next.
      const std::string& raw = (*ctx.raw_lines)[i];
      size_t token_pos = raw.find(reg.token);
      if (token_pos == std::string::npos) continue;
      size_t paren = raw.find('(', token_pos);
      if (paren == std::string::npos) continue;
      std::string name;
      char followed_by = '\0';
      int literal_line = ln;
      bool found = ExtractStringLiteral(raw, paren, &name, &followed_by);
      if (!found) {
        // A non-literal argument on the same line (a variable, a cached
        // pointer) is out of the heuristic's reach — do not scan ahead.
        if (raw.find_first_not_of(" \t", paren + 1) != std::string::npos) {
          continue;
        }
        if (i + 1 >= ctx.raw_lines->size()) continue;
        literal_line = ln + 1;
        found = ExtractStringLiteral((*ctx.raw_lines)[i + 1], 0, &name,
                                     &followed_by);
      }
      // Only a complete single-literal argument is checkable; names
      // built by concatenation ('+') or passed via variables are not.
      if (!found || (followed_by != ')' && followed_by != ',')) continue;
      if (name.rfind("hlm.", 0) != 0) {
        Report(ctx, literal_line, "metric-naming",
               "metric '" + name +
                   "' must be namespaced 'hlm.<subsystem>.<metric>' "
                   "(DESIGN.md Observability)");
      } else if (!EndsWith(name, reg.suffix)) {
        Report(ctx, literal_line, "metric-naming",
               std::string(reg.kind) + " '" + name + "' must end in '" +
                   reg.suffix + "' (DESIGN.md Observability)");
      }
    }
  }
}

/// Skips whitespace from `pos`; true when the next character is a
/// double quote (i.e. a string literal starts right here, not a
/// wrapper expression like std::string("...")).
bool LiteralStartsAt(const std::string& raw, size_t pos, size_t* quote) {
  while (pos < raw.size() &&
         std::isspace(static_cast<unsigned char>(raw[pos])) != 0) {
    ++pos;
  }
  if (pos >= raw.size() || raw[pos] != '"') return false;
  *quote = pos;
  return true;
}

/// dot.case: two or more '.'-separated segments, each starting with a
/// lowercase letter and continuing with [a-z0-9_].
bool IsDotCaseName(const std::string& name) {
  bool at_segment_start = true;
  int segments = 1;
  for (char c : name) {
    if (c == '.') {
      if (at_segment_start) return false;  // empty segment
      at_segment_start = true;
      ++segments;
      continue;
    }
    if (at_segment_start) {
      if (c < 'a' || c > 'z') return false;
      at_segment_start = false;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                 c == '_')) {
      return false;
    }
  }
  return !at_segment_start && segments >= 2;
}

void CheckSimdIntrinsicIsolation(const RuleContext& ctx) {
  // Vector intrinsics are confined to the kernel layer: everything else
  // calls the dispatched wrappers in math/simd/kernels.h, so there is
  // exactly one place where ISA-specific code (and its determinism
  // contract) lives.
  if (StartsWith(ctx.file->relpath, "src/math/simd/")) return;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    if (line.find("#include") == std::string::npos) continue;
    for (const char* header : {"<immintrin.h>", "<x86intrin.h>",
                               "<emmintrin.h>", "<avxintrin.h>"}) {
      if (line.find(header) != std::string::npos) {
        Report(ctx, ln, "simd-intrinsic-isolation",
               std::string("intrinsic header ") + header +
                   " outside src/math/simd/; call the dispatched kernels "
                   "in math/simd/kernels.h instead");
      }
    }
  }
}

void CheckHandJson(const RuleContext& ctx) {
  // obs/json owns the JSON format: everywhere else in src/ emits JSON
  // through obs::JsonWriter, so quoting, commas and non-finite numbers
  // are handled in one place.
  if (!StartsWith(ctx.file->relpath, "src/") ||
      ctx.file->relpath == "src/obs/json.cc") {
    return;
  }
  const std::vector<std::string>& literals = ctx.file->literal_lines;
  for (size_t i = 0; i < literals.size(); ++i) {
    if (literals[i].find("{\\\"") != std::string::npos ||
        literals[i].find("\\\":") != std::string::npos) {
      Report(ctx, static_cast<int>(i) + 1, "no-hand-json",
             "JSON built by hand in a string literal; emit it with "
             "obs::JsonWriter (obs/json.h owns the format)");
    }
  }
}

void CheckSpanEventNaming(const RuleContext& ctx) {
  if (!StartsWith(ctx.file->relpath, "src/")) return;
  // The macro definitions themselves pass `name` through, not a
  // literal; exempt the defining header.
  if (ctx.file->relpath == "src/obs/events.h") return;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    for (const char* token : {"TraceSpan", "HLM_EVENT", "HLM_EVENT_AT"}) {
      size_t token_pos = line.find(token);
      if (token_pos == std::string::npos) continue;
      // Token boundaries: reject HLM_EVENT matching inside HLM_EVENT_AT
      // and identifiers that merely contain the token.
      if (token_pos > 0 && IsIdentChar(line[token_pos - 1])) continue;
      size_t after = token_pos + std::string(token).size();
      if (after < line.size() && IsIdentChar(line[after])) continue;
      const std::string& raw = (*ctx.raw_lines)[i];
      size_t raw_token = raw.find(token);
      if (raw_token == std::string::npos) continue;
      // TraceSpan is a declaration (`obs::TraceSpan span(...)`): skip
      // the variable name before the parenthesis. The macros open
      // their parenthesis directly.
      size_t p = raw_token + std::string(token).size();
      if (std::string(token) == "TraceSpan") {
        while (p < raw.size() &&
               std::isspace(static_cast<unsigned char>(raw[p])) != 0) {
          ++p;
        }
        while (p < raw.size() && IsIdentChar(raw[p])) ++p;
      }
      while (p < raw.size() &&
             std::isspace(static_cast<unsigned char>(raw[p])) != 0) {
        ++p;
      }
      if (p >= raw.size() || raw[p] != '(') continue;
      ++p;
      // HLM_EVENT_AT's first argument is the level; the name is the
      // second. Skip to the first top-level comma.
      if (std::string(token) == "HLM_EVENT_AT") {
        int depth = 0;
        while (p < raw.size() && (depth > 0 || raw[p] != ',')) {
          if (raw[p] == '(') ++depth;
          if (raw[p] == ')') --depth;
          ++p;
        }
        if (p >= raw.size()) continue;  // level arg spans lines: skip
        ++p;
      }
      std::string name;
      char followed_by = '\0';
      int literal_line = ln;
      size_t quote = 0;
      bool found = false;
      if (LiteralStartsAt(raw, p, &quote)) {
        found = ExtractStringLiteral(raw, quote, &name, &followed_by);
      } else if (raw.find_first_not_of(" \t", p) == std::string::npos &&
                 i + 1 < ctx.raw_lines->size()) {
        // Call wraps with nothing after the parenthesis: the name may
        // open the next line.
        const std::string& next = (*ctx.raw_lines)[i + 1];
        if (LiteralStartsAt(next, 0, &quote)) {
          literal_line = ln + 1;
          found = ExtractStringLiteral(next, quote, &name, &followed_by);
        }
      }
      // Only a complete single-literal name is checkable; names built
      // by concatenation ('+') or passed via variables are skipped.
      if (!found || (followed_by != ')' && followed_by != ',')) continue;
      if (!IsDotCaseName(name)) {
        Report(ctx, literal_line, "span-event-naming",
               "span/event name '" + name +
                   "' must be dot.case with at least two segments, e.g. "
                   "'serve.model.loaded' (DESIGN.md Observability)");
      }
    }
  }
}

void CheckHeaderGuard(const RuleContext& ctx) {
  if (!EndsWith(ctx.file->relpath, ".h")) return;
  const std::string expected = ExpectedGuard(ctx.file->relpath);
  int ifndef_line = 0;
  std::string guard;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    size_t pos = line.find("#ifndef");
    if (pos != std::string::npos) {
      std::vector<std::string> tokens = IdentTokens(line.substr(pos + 7));
      if (!tokens.empty()) {
        guard = tokens[0];
        ifndef_line = static_cast<int>(i) + 1;
      }
      break;
    }
    // Only whitespace may precede the guard.
    if (line.find_first_not_of(" \t") != std::string::npos) break;
  }
  if (guard.empty()) {
    Report(ctx, 1, "header-guard",
           "missing include guard; expected #ifndef " + expected);
    return;
  }
  if (guard != expected) {
    Report(ctx, ifndef_line, "header-guard",
           "guard '" + guard + "' does not match path; expected " + expected);
    return;
  }
  bool has_define = false;
  for (const std::string& line : *ctx.code_lines) {
    if (line.find("#define " + expected) != std::string::npos) {
      has_define = true;
      break;
    }
  }
  if (!has_define) {
    Report(ctx, ifndef_line, "header-guard",
           "guard #ifndef " + expected + " lacks a matching #define");
  }
}

void CheckIncludeOrder(const RuleContext& ctx) {
  std::string prev_angle, prev_quoted;
  bool in_block = false;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    size_t pos = line.find("#include");
    if (pos == std::string::npos ||
        line.find_first_not_of(" \t") != pos) {
      in_block = false;
      prev_angle.clear();
      prev_quoted.clear();
      continue;
    }
    // The directive is detected on the stripped line (so commented-out
    // includes never match), but the target must come from the raw line:
    // the lexer blanks quoted includes as string literals.
    const std::string& raw = (*ctx.raw_lines)[i];
    size_t raw_pos = raw.find("#include");
    if (raw_pos == std::string::npos) continue;
    std::string rest = raw.substr(raw_pos + 8);
    size_t start = rest.find_first_of("<\"");
    if (start == std::string::npos) continue;  // e.g. macro include
    char open = rest[start];
    char close = open == '<' ? '>' : '"';
    size_t end = rest.find(close, start + 1);
    if (end == std::string::npos) continue;
    std::string target = rest.substr(start + 1, end - start - 1);
    std::string* prev = open == '<' ? &prev_angle : &prev_quoted;
    if (in_block && !prev->empty() && target < *prev) {
      Report(ctx, ln, "include-order",
             "'" + target + "' sorts before '" + *prev +
                 "' in the same include block");
    }
    *prev = target;
    in_block = true;
  }
}

/// Layer rank of an include target path as written (relative to src/,
/// e.g. "models/lda.h"), or -1 for non-layer targets.
int LayerRankOfInclude(const std::string& include_path) {
  size_t slash = include_path.find('/');
  if (slash == std::string::npos) return -1;
  const std::string dir = include_path.substr(0, slash);
  const auto& groups = LayerGroups();
  for (size_t rank = 0; rank < groups.size(); ++rank) {
    for (const std::string& member : groups[rank]) {
      if (member == dir) return static_cast<int>(rank);
    }
  }
  return -1;
}

std::string LayerChainString() {
  std::string chain;
  for (const auto& group : LayerGroups()) {
    if (!chain.empty()) chain += " -> ";
    if (group.size() == 1) {
      chain += group[0];
    } else {
      chain += "{";
      for (size_t i = 0; i < group.size(); ++i) {
        if (i > 0) chain += ", ";
        chain += group[i];
      }
      chain += "}";
    }
  }
  return chain;
}

/// Back-edge detection: a src/ file may include only its own layer
/// group or a lower one. Cycle detection is the graph pass in
/// AnalyzeProject; this per-file check is cache-friendly and
/// annotatable at the offending include line.
void CheckLayering(const RuleContext& ctx) {
  const int rank = ctx.file->layer;
  if (rank < 0) return;  // tools/tests/bench/examples are unconstrained
  for (const auto& [line, include_path] : ctx.file->quoted_includes) {
    const int target_rank = LayerRankOfInclude(include_path);
    if (target_rank < 0 || target_rank <= rank) continue;
    Report(ctx, line, "layering",
           "layering back-edge: '" + ctx.file->relpath + "' (layer " +
               std::to_string(rank) + ") includes '" + include_path +
               "' from higher layer " + std::to_string(target_rank) +
               "; the declared DAG is " + LayerChainString());
  }
}

/// Expression characters that can precede a call's name token as part of
/// the callee expression: `obj.Method(`, `ptr->Method(`, `ns::Fn(`.
/// Walks `p` back across them; returns the index of the first character
/// before the callee expression, or -1 at start of input.
long WalkBackCalleeExpression(const std::string& flat, long p) {
  while (p >= 0) {
    char c = flat[static_cast<size_t>(p)];
    if (IsIdentChar(c) || c == '.') {
      --p;
    } else if (c == '>' && p > 0 &&
               flat[static_cast<size_t>(p) - 1] == '-') {
      p -= 2;
    } else if (c == ':' && p > 0 &&
               flat[static_cast<size_t>(p) - 1] == ':') {
      p -= 2;
    } else {
      break;
    }
  }
  return p;
}

/// unchecked-status: a call to an indexed Status/Result-returning
/// function as a bare expression statement. Library code (src/) only —
/// tests and benches deliberately exercise error paths.
void CheckUncheckedStatus(const RuleContext& ctx) {
  if (!StartsWith(ctx.file->relpath, "src/")) return;
  const std::set<std::string>& fns = ctx.model->status_functions;
  if (fns.empty()) return;

  // Flatten the stripped lines so statements spanning lines parse; keep
  // a char -> line map for diagnostics.
  std::string flat;
  std::vector<int> line_of;
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    for (char c : (*ctx.code_lines)[i]) {
      flat.push_back(c);
      line_of.push_back(static_cast<int>(i) + 1);
    }
    flat.push_back('\n');
    line_of.push_back(static_cast<int>(i) + 1);
  }

  size_t pos = 0;
  while (pos < flat.size()) {
    if (!IsIdentChar(flat[pos])) {
      ++pos;
      continue;
    }
    size_t start = pos;
    while (pos < flat.size() && IsIdentChar(flat[pos])) ++pos;
    const std::string token = flat.substr(start, pos - start);
    if (fns.count(token) == 0) continue;
    // Must be a call: next non-space char is '('.
    size_t open = pos;
    while (open < flat.size() &&
           std::isspace(static_cast<unsigned char>(flat[open])) != 0) {
      ++open;
    }
    if (open >= flat.size() || flat[open] != '(') continue;

    // The statement must begin with the callee expression: walk back
    // over `obj.` / `ptr->` / `ns::` and whitespace; anything but
    // ';', '{', '}' (or start of file) before it means the value is
    // consumed — assigned, returned, passed as an argument, wrapped in
    // a macro, or part of a larger expression. A preceding identifier
    // (a return type, `return` itself) also ends the scan.
    long before = WalkBackCalleeExpression(flat, static_cast<long>(start) - 1);
    while (before >= 0 &&
           std::isspace(static_cast<unsigned char>(
               flat[static_cast<size_t>(before)])) != 0) {
      --before;
    }
    if (before >= 0) {
      char c = flat[static_cast<size_t>(before)];
      if (c != ';' && c != '{' && c != '}') continue;
    }

    // The full call must be the whole statement: after the matching
    // ')' comes ';' (not '.', '->', an operator, ...).
    size_t p = open;
    int depth = 0;
    while (p < flat.size()) {
      if (flat[p] == '(') ++depth;
      if (flat[p] == ')') {
        --depth;
        if (depth == 0) break;
      }
      ++p;
    }
    if (p >= flat.size()) continue;  // unbalanced (macro soup): skip
    ++p;
    while (p < flat.size() &&
           std::isspace(static_cast<unsigned char>(flat[p])) != 0) {
      ++p;
    }
    if (p < flat.size() && flat[p] == ';') {
      Report(ctx, line_of[start], "unchecked-status",
             "result of '" + token +
                 "' (returns Status/Result) is silently dropped; assign "
                 "it, return it, or wrap it (HLM_RETURN_IF_ERROR / "
                 "HLM_CHECK / TrackError)");
    }
  }
}

/// hot-path-alloc: allocation inside `// hlm-lint: hot-path begin/end`
/// regions. The markers live in comments; allocation detection runs on
/// the stripped code between them.
void CheckHotPathAlloc(const RuleContext& ctx,
                       const std::vector<std::string>& comment_lines) {
  constexpr const char kBegin[] = "hlm-lint: hot-path begin";
  constexpr const char kEnd[] = "hlm-lint: hot-path end";
  // A marker must end at whitespace or end-of-comment, so prose like
  // "hot-path begin/end" never opens a region; trailing text after
  // whitespace ("begin (Gibbs sweep)") is a description and is fine.
  auto has_marker = [](const std::string& comment, const char* marker) {
    size_t pos = comment.find(marker);
    if (pos == std::string::npos) return false;
    size_t after = pos + std::string(marker).size();
    return after >= comment.size() ||
           std::isspace(static_cast<unsigned char>(comment[after])) != 0;
  };
  int region_begin = 0;  // 1-based begin-marker line; 0 = outside
  for (size_t i = 0; i < comment_lines.size(); ++i) {
    const int ln = static_cast<int>(i) + 1;
    const bool begins = has_marker(comment_lines[i], kBegin);
    const bool ends = has_marker(comment_lines[i], kEnd);
    if (begins && region_begin != 0) {
      Report(ctx, ln, "hot-path-alloc",
             "nested 'hot-path begin' (previous region opened on line " +
                 std::to_string(region_begin) + " is still open)");
      continue;
    }
    if (ends && region_begin == 0) {
      Report(ctx, ln, "hot-path-alloc",
             "'hot-path end' without a matching begin");
      continue;
    }
    if (begins) {
      region_begin = ln;
      continue;
    }
    if (ends) {
      region_begin = 0;
      continue;
    }
    if (region_begin == 0) continue;

    const std::string& line = (*ctx.code_lines)[i];
    const std::string where =
        " inside a hot-path region (opened line " +
        std::to_string(region_begin) +
        "); take scratch from ScratchArena (common/arena.h) or hoist it "
        "out — zero-alloc contract";
    for (const char* grower :
         {"push_back", "emplace_back", "resize", "reserve"}) {
      if (HasTokenThen(line, grower, '(')) {
        Report(ctx, ln, "hot-path-alloc",
               std::string("'") + grower + "' may allocate" + where);
      }
    }
    if (HasToken(line, "make_unique") || HasToken(line, "make_shared")) {
      Report(ctx, ln, "hot-path-alloc",
             "make_unique/make_shared allocates" + where);
    }
    if (HasToken(line, "new")) {
      Report(ctx, ln, "hot-path-alloc", "'new' allocates" + where);
    }
    // Vector construction: `std::vector<T> name(...)` or
    // `std::vector<T>(...)`; references and pointers to vectors pass.
    size_t vpos = 0;
    while ((vpos = line.find("vector", vpos)) != std::string::npos) {
      bool left_ok = vpos == 0 || !IsIdentChar(line[vpos - 1]);
      size_t after = vpos + 6;
      vpos = after;
      if (!left_ok || after >= line.size() || line[after] != '<') continue;
      int depth = 0;
      size_t p = after;
      while (p < line.size()) {
        if (line[p] == '<') ++depth;
        if (line[p] == '>') {
          --depth;
          if (depth == 0) {
            ++p;
            break;
          }
        }
        ++p;
      }
      while (p < line.size() &&
             std::isspace(static_cast<unsigned char>(line[p])) != 0) {
        ++p;
      }
      if (p < line.size() &&
          (IsIdentChar(line[p]) || line[p] == '(' || line[p] == '{')) {
        Report(ctx, ln, "hot-path-alloc",
               "vector constructed" + where);
        break;
      }
    }
  }
  if (region_begin != 0) {
    Report(ctx, region_begin, "hot-path-alloc",
           "unterminated hot-path region: 'hot-path begin' with no "
           "matching end");
  }
}

/// lock-discipline: locking primitives belong to the concurrency layer
/// (src/common/parallel.cc) and the observability runtime (src/obs/);
/// anywhere else in src/ they need a documented annotation.
void CheckLockDiscipline(const RuleContext& ctx) {
  const std::string& path = ctx.file->relpath;
  if (!StartsWith(path, "src/")) return;
  if (path == "src/common/parallel.cc" || StartsWith(path, "src/obs/")) {
    return;
  }
  static const char* kPrimitives[] = {
      "std::mutex",        "std::recursive_mutex", "std::timed_mutex",
      "std::shared_mutex", "std::lock_guard",      "std::unique_lock",
      "std::scoped_lock",  "std::shared_lock",     "std::condition_variable",
      "pthread_mutex",
  };
  for (size_t i = 0; i < ctx.code_lines->size(); ++i) {
    const std::string& line = (*ctx.code_lines)[i];
    const int ln = static_cast<int>(i) + 1;
    for (const char* primitive : kPrimitives) {
      if (line.find(primitive) != std::string::npos) {
        Report(ctx, ln, "lock-discipline",
               std::string(primitive) +
                   " outside the concurrency layer; coordinate through "
                   "the deterministic pool (common/parallel.h) or "
                   "annotate a documented locking site");
        break;  // one report per line, not one per primitive token
      }
    }
  }
}

struct FileAnalysis {
  std::vector<Diagnostic> diags;
  std::vector<std::pair<int, std::string>> supps;  // line, rule
};

bool KnownRule(const std::string& rule) {
  for (const std::string& r : RuleNames()) {
    if (r == rule) return true;
  }
  return false;
}

/// Runs every per-file pass (lexical + semantic) over one file of the
/// model. Cycle detection is whole-graph and lives in AnalyzeProject.
FileAnalysis AnalyzeFile(const ProjectModel& model, const FileModel& file) {
  FileAnalysis out;
  std::vector<std::string> raw_lines = SplitRawLines(file.content);
  std::vector<bool> allow_used(file.allows.size(), false);

  RuleContext ctx;
  ctx.model = &model;
  ctx.file = &file;
  ctx.code_lines = &file.code_lines;
  ctx.raw_lines = &raw_lines;
  ctx.diags = &out.diags;
  ctx.allow_used = &allow_used;

  CheckRawRng(ctx);
  CheckWallClock(ctx);
  CheckRawThread(ctx);
  CheckStdioOutput(ctx);
  CheckUnorderedIteration(ctx, model.unordered_names);
  CheckRawPersistWrite(ctx);
  CheckMetricNaming(ctx);
  CheckSpanEventNaming(ctx);
  CheckSimdIntrinsicIsolation(ctx);
  CheckHandJson(ctx);
  CheckHeaderGuard(ctx);
  CheckIncludeOrder(ctx);
  CheckLayering(ctx);
  CheckUncheckedStatus(ctx);
  CheckHotPathAlloc(ctx, file.comment_lines);
  CheckLockDiscipline(ctx);

  // Stale-suppression audit: every annotation must have earned its
  // keep this run. Reported through Report() so a deliberate
  // allow(stale-suppression) can gate it like any other rule.
  for (size_t i = 0; i < file.allows.size(); ++i) {
    if (allow_used[i]) continue;
    const auto& [line, rule] = file.allows[i];
    if (!KnownRule(rule)) {
      Report(ctx, line, "stale-suppression",
             "suppression names unknown rule '" + rule +
                 "' (see hlm_lint --list-rules)");
    } else {
      Report(ctx, line, "stale-suppression",
             "suppression 'allow(" + rule +
                 ")' matches no finding on this or the next line; "
                 "delete it");
    }
  }

  for (const auto& allow : file.allows) out.supps.push_back(allow);

  std::stable_sort(out.diags.begin(), out.diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

/// Resolves an include target to a model file index ("models/lda.h" ->
/// src/models/lda.h; "tools/lint.h" -> tools/lint.h), or npos.
size_t ResolveInclude(const ProjectModel& model,
                      const std::string& include_path) {
  auto it = model.file_index.find("src/" + include_path);
  if (it != model.file_index.end()) return it->second;
  it = model.file_index.find(include_path);
  if (it != model.file_index.end()) return it->second;
  return static_cast<size_t>(-1);
}

/// Whole-graph pass: file-level include cycles (Tarjan SCC). A cycle is
/// always an error and never suppressible — there is no single line
/// that owns it.
void CheckIncludeCycles(const ProjectModel& model,
                        std::vector<Diagnostic>* diags) {
  const size_t n = model.files.size();
  std::vector<std::vector<size_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [line, inc] : model.files[i].quoted_includes) {
      size_t target = ResolveInclude(model, inc);
      if (target != static_cast<size_t>(-1)) adj[i].push_back(target);
    }
  }

  // Iterative Tarjan.
  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  int next_index = 0;
  std::vector<std::vector<size_t>> sccs;
  struct Frame {
    size_t v;
    size_t child = 0;
  };
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames{{root}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.child < adj[frame.v].size()) {
        size_t w = adj[frame.v][frame.child++];
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w});
        } else if (on_stack[w]) {
          lowlink[frame.v] = std::min(lowlink[frame.v], index[w]);
        }
      } else {
        if (lowlink[frame.v] == index[frame.v]) {
          std::vector<size_t> scc;
          while (true) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == frame.v) break;
          }
          if (scc.size() > 1) sccs.push_back(std::move(scc));
        }
        size_t v = frame.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }
  // Self-includes are their own (size-1) cycle.
  for (size_t i = 0; i < n; ++i) {
    for (size_t w : adj[i]) {
      if (w == i) sccs.push_back({i});
    }
  }

  for (std::vector<size_t>& scc : sccs) {
    std::sort(scc.begin(), scc.end(), [&](size_t a, size_t b) {
      return model.files[a].relpath < model.files[b].relpath;
    });
    std::string cycle;
    for (size_t member : scc) {
      cycle += model.files[member].relpath;
      cycle += " -> ";
    }
    cycle += model.files[scc[0]].relpath;
    // Anchor at the first member's include of another member.
    const FileModel& anchor = model.files[scc[0]];
    int line = 1;
    for (const auto& [inc_line, inc] : anchor.quoted_includes) {
      size_t target = ResolveInclude(model, inc);
      if (std::find(scc.begin(), scc.end(), target) != scc.end()) {
        line = inc_line;
        break;
      }
    }
    diags->push_back(Diagnostic{
        anchor.relpath, line, "layering",
        "include cycle: " + cycle + "; cycles are never allowed",
        Severity::kError});
  }
}

uint64_t FileCacheKey(const ProjectModel& model, const FileModel& file) {
  std::ostringstream key;
  key << kAnalyzerVersion << '\n'
      << file.relpath << '\n'
      << std::hex << file.content_hash << '\n'
      << model.global_context_hash << '\n';
  // Direct includes' content hashes: editing a header re-lints every
  // direct includer (the layering dependents).
  for (const auto& [line, inc] : file.quoted_includes) {
    size_t target = ResolveInclude(model, inc);
    key << inc << '=';
    if (target != static_cast<size_t>(-1)) {
      key << std::hex << model.files[target].content_hash;
    } else {
      key << '0';
    }
    key << '\n';
  }
  return LintHash64(key.str());
}

struct CacheEntry {
  uint64_t key = 0;
  std::vector<Diagnostic> diags;
  std::vector<std::pair<int, std::string>> supps;
};

std::map<std::string, CacheEntry> LoadCache(const std::string& path) {
  std::map<std::string, CacheEntry> cache;
  std::ifstream in(path);
  if (!in) return cache;
  std::string line;
  if (!std::getline(in, line) || line != "hlm-lint-cache 1") return cache;
  std::string current_file;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "file") {
      std::string relpath, key_hex;
      fields >> relpath >> key_hex;
      if (relpath.empty() || key_hex.empty()) return {};
      current_file = relpath;
      cache[current_file].key = std::stoull(key_hex, nullptr, 16);
    } else if (tag == "d" && !current_file.empty()) {
      Diagnostic d;
      std::string sev;
      fields >> d.line >> sev >> d.rule;
      std::getline(fields, d.message);
      if (!d.message.empty() && d.message[0] == ' ') d.message.erase(0, 1);
      d.file = current_file;
      d.severity = sev == "W" ? Severity::kWarning : Severity::kError;
      cache[current_file].diags.push_back(std::move(d));
    } else if (tag == "s" && !current_file.empty()) {
      int supp_line = 0;
      std::string rule;
      fields >> supp_line >> rule;
      cache[current_file].supps.emplace_back(supp_line, rule);
    } else if (!tag.empty()) {
      return {};  // unknown record: treat the whole cache as cold
    }
  }
  return cache;
}

void SaveCache(const std::string& path,
               const std::map<std::string, CacheEntry>& cache) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;  // caching is best-effort; the run already succeeded
  out << "hlm-lint-cache 1\n";
  for (const auto& [relpath, entry] : cache) {
    out << "file " << relpath << ' ' << std::hex << entry.key << std::dec
        << ' ' << entry.diags.size() << ' ' << entry.supps.size() << '\n';
    for (const Diagnostic& d : entry.diags) {
      out << "d " << d.line << ' '
          << (d.severity == Severity::kWarning ? 'W' : 'E') << ' ' << d.rule
          << ' ' << d.message << '\n';
    }
    for (const auto& [line, rule] : entry.supps) {
      out << "s " << line << ' ' << rule << '\n';
    }
  }
}

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

const char* SeverityName(Severity severity) {
  return severity == Severity::kWarning ? "warning" : "error";
}

/// Collects Status/Result-returning function names declared in `lines`
/// (the stripped code of one src/ file).
void CollectStatusFunctions(const std::vector<std::string>& lines,
                            std::set<std::string>* out) {
  for (const std::string& line : lines) {
    if (line.find("#define") != std::string::npos) continue;
    for (const char* marker : {"Status", "Result"}) {
      const bool is_result = marker[0] == 'R';
      size_t pos = 0;
      while ((pos = line.find(marker, pos)) != std::string::npos) {
        size_t start = pos;
        pos += std::string(marker).size();
        bool left_ok = start == 0 || (!IsIdentChar(line[start - 1]) &&
                                      line[start - 1] != '<');
        if (!left_ok || (pos < line.size() && IsIdentChar(line[pos]))) {
          continue;
        }
        size_t p = pos;
        if (is_result) {
          // Result must be a template instantiation: Result<...>.
          if (p >= line.size() || line[p] != '<') continue;
          int depth = 0;
          while (p < line.size()) {
            if (line[p] == '<') ++depth;
            if (line[p] == '>') {
              --depth;
              if (depth == 0) {
                ++p;
                break;
              }
            }
            ++p;
          }
          if (depth != 0) continue;  // template args span lines: skip
        }
        while (p < line.size() && (line[p] == ' ' || line[p] == '&')) ++p;
        // Qualified declarator: Name or Class::Name; index the last
        // component.
        std::string name;
        while (p < line.size()) {
          if (IsIdentChar(line[p])) {
            name.push_back(line[p]);
            ++p;
          } else if (line[p] == ':' && p + 1 < line.size() &&
                     line[p + 1] == ':') {
            name.clear();
            p += 2;
          } else {
            break;
          }
        }
        if (name.empty() || name == "operator") continue;
        if (p < line.size() && line[p] == '(') out->insert(name);
      }
    }
  }
}

}  // namespace

std::vector<std::string> RuleNames() {
  return {"no-raw-rng",
          "no-wall-clock",
          "no-raw-thread",
          "no-stdio-output",
          "unordered-iter",
          "header-guard",
          "include-order",
          "no-raw-persist-write",
          "metric-naming",
          "span-event-naming",
          "simd-intrinsic-isolation",
          "no-hand-json",
          "layering",
          "unchecked-status",
          "hot-path-alloc",
          "lock-discipline",
          "stale-suppression"};
}

Severity RuleSeverity(const std::string& rule) {
  return rule == "stale-suppression" ? Severity::kWarning : Severity::kError;
}

const std::vector<std::vector<std::string>>& LayerGroups() {
  static const std::vector<std::vector<std::string>> kGroups = {
      {"common"},
      {"obs"},
      {"math"},
      {"corpus", "models", "repr", "cluster"},
      {"recsys", "app"},
      {"serve"},
  };
  return kGroups;
}

int LayerRankOfPath(const std::string& relpath) {
  if (!StartsWith(relpath, "src/")) return -1;
  return LayerRankOfInclude(relpath.substr(4));
}

uint64_t LintHash64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::set<std::string> CollectUnorderedNames(const std::string& content) {
  std::set<std::string> names;
  // Flatten so declarations spanning lines still parse.
  StrippedSource stripped = StripSource(content);
  std::string flat;
  for (const std::string& line : stripped.code_lines) {
    flat += line;
    flat += '\n';
  }
  for (const char* marker : {"unordered_map", "unordered_set"}) {
    size_t pos = 0;
    while ((pos = flat.find(marker, pos)) != std::string::npos) {
      size_t p = pos + std::string(marker).size();
      pos = p;
      if (p >= flat.size() || flat[p] != '<') continue;
      // Skip the template argument list (depth-counted).
      int depth = 0;
      while (p < flat.size()) {
        if (flat[p] == '<') ++depth;
        if (flat[p] == '>') {
          --depth;
          if (depth == 0) {
            ++p;
            break;
          }
        }
        ++p;
      }
      // A declaration introduces an identifier right after the type
      // (possibly &/* qualified); expressions like casts do not.
      while (p < flat.size() &&
             (std::isspace(static_cast<unsigned char>(flat[p])) != 0 ||
              flat[p] == '&' || flat[p] == '*')) {
        ++p;
      }
      std::string name;
      while (p < flat.size() && IsIdentChar(flat[p])) {
        name.push_back(flat[p]);
        ++p;
      }
      if (!name.empty() && name != "const") names.insert(name);
    }
  }
  return names;
}

ProjectModel BuildProjectModel(std::vector<SourceFile> files) {
  ProjectModel model;
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.relpath < b.relpath;
            });
  model.files.reserve(files.size());
  for (SourceFile& file : files) {
    FileModel fm;
    fm.relpath = std::move(file.relpath);
    fm.content = std::move(file.content);
    fm.content_hash = LintHash64(fm.content);
    fm.layer = LayerRankOfPath(fm.relpath);
    StrippedSource stripped = StripSource(fm.content);
    fm.code_lines = std::move(stripped.code_lines);
    fm.comment_lines = std::move(stripped.comment_lines);
    fm.literal_lines = std::move(stripped.literal_lines);
    fm.allows = CollectAllows(fm.comment_lines);

    // Quoted includes: directive detected on the stripped line (so a
    // commented-out include never counts), target read from the raw
    // line (the lexer blanks the quoted path as a string literal).
    std::vector<std::string> raw_lines = SplitRawLines(fm.content);
    for (size_t i = 0; i < fm.code_lines.size() && i < raw_lines.size();
         ++i) {
      const std::string& code = fm.code_lines[i];
      size_t pos = code.find("#include");
      if (pos == std::string::npos || code.find_first_not_of(" \t") != pos) {
        continue;
      }
      const std::string& raw = raw_lines[i];
      size_t raw_pos = raw.find("#include");
      if (raw_pos == std::string::npos) continue;
      size_t open = raw.find('"', raw_pos + 8);
      size_t angle = raw.find('<', raw_pos + 8);
      if (open == std::string::npos ||
          (angle != std::string::npos && angle < open)) {
        continue;  // angle include: never a repo file
      }
      size_t close = raw.find('"', open + 1);
      if (close == std::string::npos) continue;
      fm.quoted_includes.emplace_back(
          static_cast<int>(i) + 1, raw.substr(open + 1, close - open - 1));
    }

    // Cross-file indices. Unordered names come from every scanned file
    // (tests iterate header-declared members too); the Status/Result
    // signature index comes from src/ only — the unchecked-status rule
    // binds library code, and src-only indexing keeps test helpers
    // from polluting it.
    std::set<std::string> names = CollectUnorderedNames(fm.content);
    model.unordered_names.insert(names.begin(), names.end());
    if (StartsWith(fm.relpath, "src/")) {
      CollectStatusFunctions(fm.code_lines, &model.status_functions);
    }
    model.files.push_back(std::move(fm));
  }
  for (size_t i = 0; i < model.files.size(); ++i) {
    model.file_index[model.files[i].relpath] = i;
  }

  std::ostringstream context;
  context << kAnalyzerVersion << '\n';
  for (const auto& group : LayerGroups()) {
    for (const std::string& member : group) context << member << ' ';
    context << '\n';
  }
  context << "unordered:\n";
  for (const std::string& name : model.unordered_names) {
    context << name << '\n';
  }
  context << "status:\n";
  for (const std::string& name : model.status_functions) {
    context << name << '\n';
  }
  model.global_context_hash = LintHash64(context.str());
  return model;
}

AnalysisResult AnalyzeProject(const ProjectModel& model,
                              const AnalysisOptions& options) {
  AnalysisResult result;
  std::map<std::string, CacheEntry> cache;
  if (!options.cache_path.empty()) cache = LoadCache(options.cache_path);

  std::map<std::string, CacheEntry> next_cache;
  for (const FileModel& file : model.files) {
    const uint64_t key = FileCacheKey(model, file);
    auto it = cache.find(file.relpath);
    if (it != cache.end() && it->second.key == key) {
      ++result.files_from_cache;
      next_cache[file.relpath] = it->second;
    } else {
      ++result.files_analyzed;
      FileAnalysis analysis = AnalyzeFile(model, file);
      CacheEntry entry;
      entry.key = key;
      entry.diags = std::move(analysis.diags);
      entry.supps = std::move(analysis.supps);
      next_cache[file.relpath] = std::move(entry);
    }
    const CacheEntry& entry = next_cache[file.relpath];
    result.diagnostics.insert(result.diagnostics.end(), entry.diags.begin(),
                              entry.diags.end());
    for (const auto& [line, rule] : entry.supps) {
      result.suppressions.push_back(Suppression{file.relpath, line, rule});
    }
  }

  // Graph-level pass runs fresh every time: a cycle has no owning file,
  // so it can never be served from a per-file cache.
  CheckIncludeCycles(model, &result.diagnostics);

  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  if (!options.cache_path.empty()) {
    SaveCache(options.cache_path, next_cache);
  }
  return result;
}

std::vector<Diagnostic> LintContent(
    const std::string& relpath, const std::string& content,
    const std::set<std::string>& extra_unordered_names) {
  ProjectModel model = BuildProjectModel({{relpath, content}});
  model.unordered_names.insert(extra_unordered_names.begin(),
                               extra_unordered_names.end());
  FileAnalysis analysis = AnalyzeFile(model, model.files[0]);
  return std::move(analysis.diags);
}

std::string FormatDiagnostic(const Diagnostic& diag) {
  std::ostringstream out;
  out << diag.file << ":" << diag.line << ": " << diag.rule << ": "
      << diag.message;
  return out.str();
}

std::string RenderJson(const AnalysisResult& result) {
  std::ostringstream out;
  out << "{\n  \"findings\": [";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << EscapeJson(d.file) << "\", \"line\": "
        << d.line << ", \"rule\": \"" << EscapeJson(d.rule)
        << "\", \"severity\": \"" << SeverityName(d.severity)
        << "\", \"message\": \"" << EscapeJson(d.message) << "\"}";
  }
  out << (result.diagnostics.empty() ? "" : "\n  ") << "],\n";
  out << "  \"summary\": {\"files\": "
      << (result.files_analyzed + result.files_from_cache)
      << ", \"analyzed\": " << result.files_analyzed
      << ", \"from_cache\": " << result.files_from_cache
      << ", \"findings\": " << result.diagnostics.size()
      << ", \"suppressions\": " << result.suppressions.size() << "}\n}\n";
  return out.str();
}

std::string RenderSarif(const AnalysisResult& result) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"hlm_lint\",\n"
      << "          \"version\": \"2.1.0\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/hlm/tools/lint\",\n"
      << "          \"rules\": [";
  const std::vector<std::string> rules = RuleNames();
  for (size_t i = 0; i < rules.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "            {\"id\": \"" << rules[i] << "\"}";
  }
  out << "\n          ]\n        }\n      },\n      \"results\": [";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "        {\n"
        << "          \"ruleId\": \"" << EscapeJson(d.rule) << "\",\n"
        << "          \"level\": \"" << SeverityName(d.severity) << "\",\n"
        << "          \"message\": {\"text\": \"" << EscapeJson(d.message)
        << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << EscapeJson(d.file) << "\"}, \"region\": {\"startLine\": "
        << d.line << "}}}]\n        }";
  }
  out << (result.diagnostics.empty() ? "" : "\n      ")
      << "]\n    }\n  ]\n}\n";
  return out.str();
}

std::string RenderDepsDot(const ProjectModel& model) {
  // Aggregate file-level include edges to layer-directory granularity.
  // Annotated back-edges (an allow(layering) at the include site)
  // render dashed: they are declared debt, listed in tools/layers.txt.
  std::set<std::pair<std::string, std::string>> solid;
  std::set<std::pair<std::string, std::string>> dashed;
  for (const FileModel& file : model.files) {
    if (file.layer < 0 || !StartsWith(file.relpath, "src/")) continue;
    const std::string from_dir =
        file.relpath.substr(4, file.relpath.find('/', 4) - 4);
    for (const auto& [line, inc] : file.quoted_includes) {
      const int target_rank = LayerRankOfInclude(inc);
      if (target_rank < 0) continue;
      const std::string to_dir = inc.substr(0, inc.find('/'));
      if (to_dir == from_dir) continue;
      bool annotated = false;
      for (const auto& [allow_line, rule] : file.allows) {
        if (rule == "layering" &&
            (allow_line == line || allow_line == line - 1)) {
          annotated = true;
          break;
        }
      }
      if (annotated && target_rank > file.layer) {
        dashed.insert({from_dir, to_dir});
      } else {
        solid.insert({from_dir, to_dir});
      }
    }
  }
  std::ostringstream out;
  out << "// hlm layer dependency graph (generated by hlm_lint).\n"
      << "// Solid edges must point at the same or a lower layer of\n"
      << "// " << LayerChainString() << ";\n"
      << "// dashed edges are annotated exemptions declared in "
         "tools/layers.txt.\n"
      << "digraph hlm_layers {\n  rankdir=BT;\n";
  for (const auto& group : LayerGroups()) {
    out << "  { rank=same;";
    for (const std::string& member : group) {
      out << " \"" << member << "\";";
    }
    out << " }\n";
  }
  for (const auto& [from, to] : solid) {
    out << "  \"" << from << "\" -> \"" << to << "\";\n";
  }
  for (const auto& [from, to] : dashed) {
    out << "  \"" << from << "\" -> \"" << to
        << "\" [style=dashed, label=\"annotated\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace hlm::lint
