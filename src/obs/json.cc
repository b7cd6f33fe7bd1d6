#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace hlm::obs {

namespace {

void AppendQuoted(std::string& out, std::string_view raw) {
  out.push_back('"');
  for (char c : raw) {
    unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (u < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", u);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendUtf8(unsigned code_point, std::string* out) {
  if (code_point < 0x80) {
    out->push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::string JsonQuote(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  AppendQuoted(out, raw);
  return out;
}

/// Recursive-descent parser over the JsonValue tree. Kept as a friend
/// class (not a lambda nest) so the depth guard and error plumbing stay
/// readable.
class JsonValueParser {
 public:
  explicit JsonValueParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    HLM_RETURN_IF_ERROR(ParseValue(&root, 0));
    SkipWhitespace();
    if (at_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json offset " + std::to_string(at_) +
                                   ": " + message);
  }

  void SkipWhitespace() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' ||
            text_[at_] == '\r')) {
      ++at_;
    }
  }

  bool Consume(char c) {
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  Status ParseLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (at_ >= text_.size() || text_[at_] != *p) {
        return Error(std::string("expected '") + literal + "'");
      }
      ++at_;
    }
    return Status::OK();
  }

  /// A string literal, escapes decoded (\uXXXX to UTF-8, a surrogate
  /// pair to one code point). Unknown escapes, lone surrogates and raw
  /// control characters (U+0000..U+001F) are errors.
  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    while (true) {
      if (at_ >= text_.size()) return Error("unterminated string");
      const char c = text_[at_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_ >= text_.size()) return Error("unterminated string");
      const char escape = text_[at_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out->push_back(escape);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned code_point = 0;
          HLM_RETURN_IF_ERROR(ParseHex4(&code_point));
          if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            return Error("lone low surrogate in \\u escape");
          }
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            unsigned low = 0;
            if (!Consume('\\') || !Consume('u')) {
              return Error("lone high surrogate in \\u escape");
            }
            HLM_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("lone high surrogate in \\u escape");
            }
            code_point = 0x10000 + ((code_point - 0xD800) << 10) +
                         (low - 0xDC00);
          }
          AppendUtf8(code_point, out);
          break;
        }
        default:
          return Error(std::string("unknown escape '\\") + escape + "'");
      }
    }
  }

  /// The four hex digits of a \u escape.
  Status ParseHex4(unsigned* out) {
    if (at_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[at_++];
      value <<= 4;
      if (IsDigit(h)) {
        value |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        value |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        value |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    *out = value;
    return Status::OK();
  }

  /// Consumes a run of digits; returns how many.
  size_t SkipDigits() {
    const size_t start = at_;
    while (at_ < text_.size() && IsDigit(text_[at_])) ++at_;
    return at_ - start;
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  Status ParseNumber(double* out) {
    const size_t start = at_;
    Consume('-');
    if (!Consume('0') && SkipDigits() == 0) {
      return Error("number needs an integer part");
    }
    if (Consume('.') && SkipDigits() == 0) {
      return Error("number needs digits after '.'");
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (SkipDigits() == 0) return Error("number needs exponent digits");
    }
    const std::string span = text_.substr(start, at_ - start);
    *out = std::strtod(span.c_str(), nullptr);
    if (std::isinf(*out)) {
      return Error("number overflows a double '" + span + "'");
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (at_ >= text_.size()) return Error("unexpected end of document");
    char c = text_[at_];
    if (c == '{') {
      ++at_;
      out->kind_ = JsonValue::Kind::kObject;
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      while (true) {
        SkipWhitespace();
        std::string key;
        HLM_RETURN_IF_ERROR(ParseString(&key));
        SkipWhitespace();
        if (!Consume(':')) return Error("expected ':' in object");
        JsonValue value;
        HLM_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        out->object_.emplace(std::move(key), std::move(value));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume('}')) return Status::OK();
        return Error("expected ',' or '}' in object");
      }
    }
    if (c == '[') {
      ++at_;
      out->kind_ = JsonValue::Kind::kArray;
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      while (true) {
        JsonValue value;
        HLM_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        out->array_.push_back(std::move(value));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return Error("expected ',' or ']' in array");
      }
    }
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (c == 't') {
      HLM_RETURN_IF_ERROR(ParseLiteral("true"));
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      return Status::OK();
    }
    if (c == 'f') {
      HLM_RETURN_IF_ERROR(ParseLiteral("false"));
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      return Status::OK();
    }
    if (c == 'n') {
      HLM_RETURN_IF_ERROR(ParseLiteral("null"));
      out->kind_ = JsonValue::Kind::kNull;
      return Status::OK();
    }
    if (c != '-' && !IsDigit(c)) return Error("unexpected character");
    out->kind_ = JsonValue::Kind::kNumber;
    return ParseNumber(&out->number_);
  }

  const std::string& text_;
  size_t at_ = 0;
};

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  JsonValueParser parser(text);
  return parser.Parse();
}

bool JsonValue::AsBool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::AsNumber(double fallback) const {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

std::string JsonValue::AsString(const std::string& fallback) const {
  return kind_ == Kind::kString ? string_ : fallback;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::At(size_t index) const {
  if (kind_ != Kind::kArray || index >= array_.size()) return nullptr;
  return &array_[index];
}

size_t JsonValue::size() const {
  switch (kind_) {
    case Kind::kArray:
      return array_.size();
    case Kind::kObject:
      return object_.size();
    default:
      return 0;
  }
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  if (needs_comma_) out_.push_back(',');
  out_.append(json);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Raw(std::string_view(&bracket, 1));
  needs_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_.push_back(bracket);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_.push_back(':');
  needs_comma_ = false;  // the value follows the colon directly
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Raw({});  // places the separator
  AppendQuoted(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  if (!std::isfinite(value)) return Null();
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return Raw(std::string_view(buffer, static_cast<size_t>(n)));
}

JsonWriter& JsonWriter::Int(long long value) {
  char buffer[24];
  const char* end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return Raw(std::string_view(buffer, static_cast<size_t>(end - buffer)));
}

JsonWriter& JsonWriter::Fixed(double value, int digits) {
  HLM_CHECK(digits >= 0 && digits <= 17) << "Fixed digits " << digits;
  if (!std::isfinite(value)) return Null();
  // Wide enough for %.17f of the largest finite double (309 integer
  // digits).
  char buffer[352];
  const int n = std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return Raw(std::string_view(buffer, static_cast<size_t>(n)));
}

JsonWriter& JsonWriter::Value(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      return Null();
    case JsonValue::Kind::kBool:
      return Bool(value.AsBool());
    case JsonValue::Kind::kNumber:
      return Number(value.AsNumber());
    case JsonValue::Kind::kString:
      return String(value.AsString());
    case JsonValue::Kind::kArray:
      BeginArray();
      for (const JsonValue& element : value.array()) Value(element);
      return EndArray();
    case JsonValue::Kind::kObject:
      BeginObject();
      for (const auto& [key, member] : value.object()) Key(key).Value(member);
      return EndObject();
  }
  return *this;
}

}  // namespace hlm::obs
