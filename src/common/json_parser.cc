#include "src/common/json_parser.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "src/common/strings.h"

namespace maya {

JsonValue::JsonValue(JsonArray a)
    : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : type_(Type::kObject), object_(std::make_shared<JsonObject>(std::move(o))) {}

JsonValue JsonValue::Integer(int64_t value) {
  JsonValue json(static_cast<double>(value));
  json.exact_kind_ = Exact::kSigned;
  json.exact_ = static_cast<uint64_t>(value);
  return json;
}

JsonValue JsonValue::Unsigned(uint64_t value) {
  JsonValue json(static_cast<double>(value));
  json.exact_kind_ = Exact::kUnsigned;
  json.exact_ = value;
  return json;
}

bool JsonValue::AsBool() const {
  CHECK(type_ == Type::kBool);
  return bool_;
}

double JsonValue::AsDouble() const {
  CHECK(type_ == Type::kNumber);
  return number_;
}

int64_t JsonValue::AsInt() const {
  const double d = AsDouble();
  return exact_kind_ == Exact::kNone ? static_cast<int64_t>(std::llround(d))
                                     : static_cast<int64_t>(exact_);
}

uint64_t JsonValue::AsUint() const {
  const double d = AsDouble();
  CHECK_GE(d, 0.0);
  return exact_kind_ == Exact::kNone ? static_cast<uint64_t>(std::llround(d)) : exact_;
}

const std::string& JsonValue::AsString() const {
  CHECK(type_ == Type::kString);
  return string_;
}

const JsonArray& JsonValue::AsArray() const {
  CHECK(type_ == Type::kArray);
  return *array_;
}

const JsonObject& JsonValue::AsObject() const {
  CHECK(type_ == Type::kObject);
  return *object_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonObject& obj = AsObject();
  auto it = obj.find(key);
  CHECK(it != obj.end()) << "missing JSON key '" << key << "'";
  return it->second;
}

bool JsonValue::Has(const std::string& key) const { return Find(key) != nullptr; }

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    MAYA_RETURN_IF_ERROR(ParseValue(value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(StrFormat("JSON parse error at offset %zu: %s", pos_,
                                             what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = 0;
    while (literal[len] != '\0') {
      ++len;
    }
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue& out) {
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        MAYA_RETURN_IF_ERROR(ParseString(s));
        out = JsonValue(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          out = JsonValue(true);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          out = JsonValue(false);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          out = JsonValue();
          return Status::Ok();
        }
        return Error("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue& out) {
    CHECK(Consume('{'));
    JsonObject obj;
    SkipWhitespace();
    if (Consume('}')) {
      out = JsonValue(std::move(obj));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      MAYA_RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      SkipWhitespace();
      JsonValue value;
      MAYA_RETURN_IF_ERROR(ParseValue(value));
      obj.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        break;
      }
      return Error("expected ',' or '}'");
    }
    out = JsonValue(std::move(obj));
    return Status::Ok();
  }

  Status ParseArray(JsonValue& out) {
    CHECK(Consume('['));
    JsonArray arr;
    SkipWhitespace();
    if (Consume(']')) {
      out = JsonValue(std::move(arr));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      MAYA_RETURN_IF_ERROR(ParseValue(value));
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        break;
      }
      return Error("expected ',' or ']'");
    }
    out = JsonValue(std::move(arr));
    return Status::Ok();
  }

  Status ParseString(std::string& out) {
    if (!Consume('"')) {
      return Error("expected string");
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Error("bad escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("bad \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit");
            }
          }
          if (code > 0xFF) {
            return Error("\\u escapes above 0xFF unsupported");
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("bad number '" + token + "'");
    }
    out = JsonValue(value);
    // Integral literals also keep their exact 64-bit value; ones beyond the
    // 64-bit range stay plain doubles (and ToInt/ToUint reject them), as
    // does "-0" so that AsDouble() keeps its sign.
    if (token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      const long long exact = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && (exact != 0 || token[0] != '-')) {
        out = JsonValue::Integer(exact);
      } else if (token[0] != '-') {
        errno = 0;
        const unsigned long long exact_unsigned = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0) {
          out = JsonValue::Unsigned(exact_unsigned);
        }
      }
    }
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) { return Parser(text).Parse(); }

Status RequireKeys(const JsonValue& value, std::initializer_list<const char*> keys) {
  if (!value.is_object()) {
    return Status::InvalidArgument("expected JSON object");
  }
  for (const char* key : keys) {
    if (!value.Has(key)) {
      return Status::InvalidArgument(std::string("missing key '") + key + "'");
    }
  }
  return Status::Ok();
}

Result<bool> ToBool(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kBool) {
    return Status::InvalidArgument("expected JSON boolean");
  }
  return value.AsBool();
}

Result<double> ToNumber(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("expected JSON number");
  }
  return value.AsDouble();
}

// Integral literals convert exactly; other numbers only when integral and
// in range.
Result<int64_t> ToInt(const JsonValue& value) {
  MAYA_ASSIGN_OR_RETURN(const double d, ToNumber(value));
  if (value.exact_kind_ == JsonValue::Exact::kSigned) {
    return static_cast<int64_t>(value.exact_);
  }
  if (value.exact_kind_ == JsonValue::Exact::kNone && d == std::trunc(d) && d >= -0x1p63 &&
      d < 0x1p63) {
    return static_cast<int64_t>(d);
  }
  return Status::InvalidArgument(StrFormat("expected a 64-bit integer, got %g", d));
}

Result<uint64_t> ToUint(const JsonValue& value) {
  MAYA_ASSIGN_OR_RETURN(const double d, ToNumber(value));
  if (value.exact_kind_ == JsonValue::Exact::kUnsigned ||
      (value.exact_kind_ == JsonValue::Exact::kSigned && d >= 0.0)) {
    return value.exact_;
  }
  if (value.exact_kind_ == JsonValue::Exact::kNone && d == std::trunc(d) && d >= 0.0 &&
      d < 0x1p64) {
    return static_cast<uint64_t>(d);
  }
  return Status::InvalidArgument(StrFormat("expected a non-negative 64-bit integer, got %g", d));
}

Result<std::string> ToString(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kString) {
    return Status::InvalidArgument("expected JSON string");
  }
  return value.AsString();
}

Result<const JsonArray*> ToArray(const JsonValue& value) {
  if (!value.is_array()) {
    return Status::InvalidArgument("expected JSON array");
  }
  return &value.AsArray();
}

Result<const JsonObject*> ToObject(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("expected JSON object");
  }
  return &value.AsObject();
}

}  // namespace maya
