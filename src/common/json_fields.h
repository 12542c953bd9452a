// Field visitors for JSON wire structs. A struct lists its keys once, in
//
//   template <class V>
//   void Fields(V& v, CacheStats& stats) {
//     v("hits", stats.hits);                          // required
//     v("label", stats.label, Presence::kOmitEmpty);  // skipped when empty
//   }
//
// and JsonFieldWriter serializes it while JsonFieldReader parses it through
// that same list, so the two directions cannot drift apart. Fields runs top
// to bottom in both directions: it may branch on a field it has already
// visited (the reader has assigned it by then), and it may call another
// struct's Fields to inline that struct's keys into the current object.
// Fields overloads live in the struct's namespace, where ADL finds them.
//
// The per-field encoding decisions are made here, once:
//   - integers are exact 64-bit JSON numbers; the reader rejects a value
//     that is non-integral or does not fit the field's C++ type;
//   - Bits() doubles travel as 16-hex-digit IEEE-754 patterns (bit-exact),
//     optionally followed by a write-only decimal "<key>_approx" twin;
//   - Enum() values travel by name;
//   - Presence says whether a key is required, optional, or omitted when
//     empty;
//   - the reader never aborts: it stops at the first error and fails with
//     InvalidArgument naming the offending key ("model.num_layers: ...").
#ifndef SRC_COMMON_JSON_FIELDS_H_
#define SRC_COMMON_JSON_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace maya {

enum class Presence {
  kRequired,   // always written; the reader fails when the key is absent
  kOptional,   // always written; an absent key keeps the field's default
  kOmitEmpty,  // written only when non-empty (strings) or positive (numbers)
};

// Bits(): also write the decimal "<key>_approx" twin for human readers.
inline constexpr bool kWithApprox = true;

namespace json_fields_internal {

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

template <class T>
inline constexpr bool kIsInteger = std::is_integral_v<T> && !std::is_same_v<T, bool>;

// Visits a struct through its Fields overload: the default element visitor.
struct VisitFields {
  template <class V, class T>
  void operator()(V& v, T& value) const {
    Fields(v, value);
  }
};

}  // namespace json_fields_internal

class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(JsonWriter& out) : out_(out) {}

  template <class T>
  void operator()(std::string_view key, const T& value, Presence presence = Presence::kRequired) {
    if (presence == Presence::kOmitEmpty && IsEmpty(value)) {
      return;
    }
    Key(key);
    Value(value);
  }

  // An array of structs visited by `fields(v, element)` instead of Fields.
  template <class T, class ElementFields>
  void Array(std::string_view key, const std::vector<T>& values, ElementFields fields) {
    Key(key);
    out_.BeginArray();
    for (const T& value : values) {
      Object(value, fields);
    }
    out_.EndArray();
  }

  void Bits(std::string_view key, double value, bool approx = false) {
    Key(key);
    out_.String(DoubleBits(value));
    if (approx) {
      Key(std::string(key) + "_approx");
      out_.Double(value);
    }
  }

  template <class E, size_t N>
  void Enum(std::string_view key, E value, const char* (*name)(E), const E (&)[N],
            Presence = Presence::kRequired) {
    Key(key);
    out_.String(name(value));
  }

  // A value that travels as the JSON of its own codec.
  template <class T>
  void Raw(std::string_view key, const T& value, std::string (*serialize)(const T&),
           Result<std::type_identity_t<T>> (*)(const JsonValue&)) {
    Key(key);
    out_.RawValue(serialize(value));
  }

  // A derived value: written for human readers, never parsed back.
  void WriteOnly(std::string_view key, double value) {
    Key(key);
    out_.Double(value);
  }

  // Inlines `value`'s fields into the current object, each key + `suffix`.
  template <class T>
  void Flatten(std::string_view suffix, const T& value, Presence = Presence::kRequired) {
    const std::string_view outer = suffix_;
    suffix_ = suffix;
    Fields(*this, const_cast<T&>(value));
    suffix_ = outer;
  }

  // Writes `value` as a JSON object in value position.
  template <class T, class ElementFields = json_fields_internal::VisitFields>
  void Object(const T& value, ElementFields fields = {}) {
    out_.BeginObject();
    fields(*this, const_cast<T&>(value));  // Fields takes T&; writing never mutates it
    out_.EndObject();
  }

 private:
  template <class T>
  static bool IsEmpty(const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      return value.empty();
    } else if constexpr (std::is_arithmetic_v<T>) {
      return !(value > 0);
    } else {
      return false;
    }
  }

  void Key(std::string_view key) {
    if (suffix_.empty()) {
      out_.Key(key);
    } else {
      out_.Key(std::string(key).append(suffix_));
    }
  }

  template <class T>
  void Value(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.Bool(value);
    } else if constexpr (json_fields_internal::kIsInteger<T> && std::is_signed_v<T>) {
      out_.Int(value);
    } else if constexpr (json_fields_internal::kIsInteger<T>) {
      out_.Uint(value);
    } else if constexpr (std::is_same_v<T, double>) {
      out_.Double(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out_.String(value);
    } else if constexpr (json_fields_internal::IsVector<T>::value) {
      out_.BeginArray();
      for (const auto& element : value) {
        Value(element);
      }
      out_.EndArray();
    } else {
      Object(value);
    }
  }

  JsonWriter& out_;
  std::string_view suffix_;
};

class JsonFieldReader {
 public:
  // Reads the fields of `object`; error messages prefix keys with `path`.
  explicit JsonFieldReader(const JsonValue& object, std::string path = "")
      : object_(object), path_(std::move(path)) {
    if (!object_.is_object()) {
      status_ = Status::InvalidArgument("expected JSON object");
    }
  }

  const Status& status() const { return status_; }

  template <class T>
  void operator()(std::string_view key, T& value, Presence presence = Presence::kRequired) {
    if (const JsonValue* json = Find(key, presence)) {
      Read(*json, value, key);
    }
  }

  template <class T, class ElementFields>
  void Array(std::string_view key, std::vector<T>& values, ElementFields fields) {
    if (const JsonValue* json = Find(key, Presence::kRequired)) {
      ReadArray(*json, values, key, fields);
    }
  }

  void Bits(std::string_view key, double& value, bool /*approx*/ = false) {
    const JsonValue* json = Find(key, Presence::kRequired);
    if (json == nullptr) {
      return;
    }
    Result<std::string> hex = ToString(*json);
    if (Accept(key, hex.status())) {
      Accept(key, Assign(DoubleFromBits(*hex), value));
    }
  }

  template <class E, size_t N>
  void Enum(std::string_view key, E& value, const char* (*name)(E), const E (&all)[N],
            Presence presence = Presence::kRequired) {
    const JsonValue* json = Find(key, presence);
    if (json == nullptr) {
      return;
    }
    Result<std::string> text = ToString(*json);
    if (!Accept(key, text.status())) {
      return;
    }
    for (E candidate : all) {
      if (*text == name(candidate)) {
        value = candidate;
        return;
      }
    }
    Accept(key, Status::InvalidArgument("unknown value '" + *text + "'"));
  }

  template <class T>
  void Raw(std::string_view key, T& value, std::string (*)(const T&),
           Result<std::type_identity_t<T>> (*parse)(const JsonValue&)) {
    if (const JsonValue* json = Find(key, Presence::kRequired)) {
      Accept(key, Assign(parse(*json), value));
    }
  }

  void WriteOnly(std::string_view, double) {}

  // Reads fields inlined by JsonFieldWriter::Flatten; a non-required group
  // makes every field in it optional.
  template <class T>
  void Flatten(std::string_view suffix, T& value, Presence presence = Presence::kRequired) {
    const std::string_view outer_suffix = suffix_;
    const bool outer_optional = all_optional_;
    suffix_ = suffix;
    all_optional_ = outer_optional || presence != Presence::kRequired;
    Fields(*this, value);
    suffix_ = outer_suffix;
    all_optional_ = outer_optional;
  }

 private:
  std::string Path(std::string_view key) const {
    return path_ + std::string(key) + std::string(suffix_);
  }

  // The value under `key`, or nullptr after an earlier error or when the key
  // is absent (itself an error when the key is required).
  const JsonValue* Find(std::string_view key, Presence presence) {
    if (!status_.ok()) {
      return nullptr;
    }
    const JsonValue* json =
        suffix_.empty() ? object_.Find(key) : object_.Find(std::string(key).append(suffix_));
    if (json == nullptr && presence == Presence::kRequired && !all_optional_) {
      status_ = Status::InvalidArgument("missing key '" + Path(key) + "'");
    }
    return json;
  }

  // Records a failed `status` as this reader's error, naming the key.
  bool Accept(std::string_view key, const Status& status) {
    if (!status.ok() && status_.ok()) {
      status_ = Status::InvalidArgument(Path(key) + ": " + status.message());
    }
    return status.ok();
  }

  template <class T, class U>
  static Status Assign(Result<U> result, T& value) {
    if (result.ok()) {
      value = *std::move(result);
    }
    return result.status();
  }

  template <class T>
  void Read(const JsonValue& json, T& value, std::string_view key) {
    if constexpr (std::is_same_v<T, bool>) {
      Accept(key, Assign(ToBool(json), value));
    } else if constexpr (json_fields_internal::kIsInteger<T>) {
      ReadInteger(json, value, key);
    } else if constexpr (std::is_same_v<T, double>) {
      Accept(key, Assign(ToNumber(json), value));
    } else if constexpr (std::is_same_v<T, std::string>) {
      Accept(key, Assign(ToString(json), value));
    } else if constexpr (json_fields_internal::IsVector<T>::value) {
      ReadArray(json, value, key, json_fields_internal::VisitFields{});
    } else {
      ReadObject(json, value, Path(key), json_fields_internal::VisitFields{});
    }
  }

  template <class T>
  void ReadInteger(const JsonValue& json, T& value, std::string_view key) {
    auto wide = [&json] {
      if constexpr (std::is_signed_v<T>) {
        return ToInt(json);
      } else {
        return ToUint(json);
      }
    }();
    if (!Accept(key, wide.status())) {
      return;
    }
    if (!std::in_range<T>(*wide)) {
      Accept(key, Status::InvalidArgument(std::to_string(*wide) + " out of range"));
      return;
    }
    value = static_cast<T>(*wide);
  }

  template <class T, class ElementFields>
  void ReadArray(const JsonValue& json, std::vector<T>& values, std::string_view key,
                 ElementFields fields) {
    Result<const JsonArray*> array = ToArray(json);
    if (!Accept(key, array.status())) {
      return;
    }
    values.assign((*array)->size(), T{});
    for (size_t i = 0; i < values.size() && status_.ok(); ++i) {
      const std::string element = std::string(key) + "[" + std::to_string(i) + "]";
      if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string>) {
        ReadObject((**array)[i], values[i], Path(element), fields);
      } else {
        Read((**array)[i], values[i], element);
      }
    }
  }

  template <class T, class ElementFields>
  void ReadObject(const JsonValue& json, T& value, const std::string& path,
                  ElementFields fields) {
    if (!json.is_object()) {
      status_ = Status::InvalidArgument(path + ": expected JSON object");
      return;
    }
    JsonFieldReader nested(json, path + ".");
    fields(nested, value);
    status_ = nested.status_;
  }

  const JsonValue& object_;
  std::string path_;
  Status status_;
  std::string_view suffix_;
  bool all_optional_ = false;
};

// Serializes `value` as one JSON object through its Fields overload.
template <class T>
std::string WriteJsonFields(const T& value) {
  JsonWriter out;
  JsonFieldWriter(out).Object(value);
  return out.str();
}

// Writes `value` as a JSON object in value position of `out`.
template <class T>
void WriteJsonFields(JsonWriter& out, const T& value) {
  JsonFieldWriter(out).Object(value);
}

// Parses a JSON object into a default-constructed T through its Fields
// overload.
template <class T>
Result<T> ReadJsonFields(const JsonValue& json) {
  T value{};
  JsonFieldReader reader(json);
  if (reader.status().ok()) {
    Fields(reader, value);
  }
  if (!reader.status().ok()) {
    return reader.status();
  }
  return value;
}

}  // namespace maya

#endif  // SRC_COMMON_JSON_FIELDS_H_
