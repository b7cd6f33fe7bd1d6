#ifndef HLM_OBS_JSON_H_
#define HLM_OBS_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hlm::obs {

// This header owns the process's JSON format. Every document it emits
// (metrics, statusz, traces, events, crash dumps, the /v1 bodies, tool
// reports) is built with JsonWriter, and every document it reads back
// is parsed with JsonValue. hlm-lint's no-hand-json rule keeps JSON
// string literals out of the rest of src/.

/// `raw` as a JSON string literal, quotes included. Escapes `"`, `\`,
/// and every control character below 0x20 (named escapes for \b \f \n
/// \r \t, \u00XX otherwise), so arbitrary span/metric names can never
/// corrupt an exported document.
std::string JsonQuote(std::string_view raw);

/// A parsed JSON document node; the one JSON parser in the process.
/// Enforces RFC 8259: numbers follow its grammar and are doubles (a
/// literal that overflows one is an error); strings reject raw control
/// characters, unknown escapes and lone surrogates, and decode \uXXXX
/// (surrogate pairs included) to UTF-8. Object keys keep first-wins
/// semantics on duplicates.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON document (trailing garbage is an error).
  /// Nesting is capped at 128 levels so hostile input cannot blow the
  /// stack.
  static Result<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Type-coercing accessors: the fallback comes back when the node is
  /// absent or of a different kind.
  bool AsBool(bool fallback = false) const;
  double AsNumber(double fallback = 0.0) const;
  std::string AsString(const std::string& fallback = "") const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Array element; nullptr when out of range or not an array.
  const JsonValue* At(size_t index) const;
  size_t size() const;

  const std::map<std::string, JsonValue>& object() const { return object_; }
  const std::vector<JsonValue>& array() const { return array_; }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonValueParser;
};

/// Streaming writer for compact JSON (`{"k":v,...}`, no whitespace).
/// Commas come by construction: every key, value and Begin* call adds
/// the separator its predecessor needs, so callers never track a
/// "first" flag. Keys and strings are quoted through JsonQuote.
/// Numbers have one format, %.17g, which round-trips every double; NaN
/// and infinities, which JSON cannot spell, are written as null. There
/// are no options: no indent, no precision setting.
///
///   JsonWriter json;
///   json.BeginObject().Key("count").Int(3).Key("sum").Number(0.5)
///       .EndObject();
///   std::string doc = json.Take();  // {"count":3,"sum":0.5}
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// Names the next value; only meaningful inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(long long value);
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  /// `value` with exactly `digits` decimals (printf %.*f; non-finite is
  /// null). Only for decimals that are a wire contract: the /v1 scores,
  /// distances and topic weights (9), the /healthz uptime (3), and the
  /// hlm_loadgen report. Everything else uses Number.
  JsonWriter& Fixed(double value, int digits);
  /// A fragment that is already JSON (e.g. a flight-recorder detail),
  /// written verbatim.
  JsonWriter& Raw(std::string_view json);
  /// A parsed document, re-emitted (object members in key order).
  JsonWriter& Value(const JsonValue& value);

  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  std::string out_;
  bool needs_comma_ = false;  ///< an element precedes the next one
};

}  // namespace hlm::obs

#endif  // HLM_OBS_JSON_H_
