// Minimal recursive-descent JSON parser (DOM). Complements JsonWriter for
// round-tripping trace files; supports the full JSON grammar except \uXXXX
// surrogate pairs (escapes decode to code points <= 0xFF).
#ifndef SRC_COMMON_JSON_PARSER_H_
#define SRC_COMMON_JSON_PARSER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace maya {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);
  // An integral literal: AsDouble() is its nearest double, as for any number,
  // while AsInt()/AsUint()/ToInt()/ToUint() see the exact 64-bit value.
  static JsonValue Integer(int64_t value);
  static JsonValue Unsigned(uint64_t value);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  // Typed accessors CHECK the type.
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;
  uint64_t AsUint() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  const JsonObject& AsObject() const;

  // Object field lookup; CHECK-fails if absent or wrong container type.
  const JsonValue& at(const std::string& key) const;
  bool Has(const std::string& key) const;
  // Non-aborting lookup: nullptr unless this is an object holding `key`.
  const JsonValue* Find(std::string_view key) const;

 private:
  friend Result<int64_t> ToInt(const JsonValue& value);
  friend Result<uint64_t> ToUint(const JsonValue& value);
  // How an integral literal's exact value is held in exact_.
  enum class Exact : uint8_t { kNone, kSigned, kUnsigned };

  Type type_;
  bool bool_ = false;
  Exact exact_kind_ = Exact::kNone;
  uint64_t exact_ = 0;  // two's complement when kSigned
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;    // shared: JsonValue stays copyable
  std::shared_ptr<JsonObject> object_;
};

Result<JsonValue> ParseJson(const std::string& text);

// Non-aborting typed conversions for untrusted input (wire payloads): the
// member accessors above CHECK-fail on type mismatch, which is correct for
// trusted in-repo data but would let one malformed client request abort a
// multi-tenant server. These return InvalidArgument instead.
Result<bool> ToBool(const JsonValue& value);
Result<double> ToNumber(const JsonValue& value);
// Exact integers: InvalidArgument for a non-integral number or one outside
// the 64-bit range (integral literals are held exactly, not as doubles).
Result<int64_t> ToInt(const JsonValue& value);
Result<uint64_t> ToUint(const JsonValue& value);  // non-negative
Result<std::string> ToString(const JsonValue& value);
// Borrowed view into `value`; valid while `value` lives.
Result<std::string_view> ToStringView(const JsonValue& value);
// Borrowed pointer into `value`; valid while `value` lives.
Result<const JsonArray*> ToArray(const JsonValue& value);
Result<const JsonObject*> ToObject(const JsonValue& value);

}  // namespace maya

#endif  // SRC_COMMON_JSON_PARSER_H_
