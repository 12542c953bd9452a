// Field visitors for JSON wire and disk structs. A struct lists its keys
// once, in
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
//     alone, in arrays or in pairs, a lone double optionally followed by a
//     write-only decimal "<key>_approx" twin; Hex() carries a uint64 as 16
//     hex digits;
//   - Enum() values travel by name;
//   - vectors and fixed-size std::arrays travel as JSON arrays, maps as
//     arrays of entry objects (Map()), and anything else through a wire
//     form of its own (Via());
//   - Presence says whether a key is required, optional, or omitted when
//     empty or zero;
//   - the reader never aborts: it stops at the first error and fails with
//     InvalidArgument naming the offending key ("model.num_layers: ...").
//     Validate() adds a struct's own consistency checks to that error path.
#ifndef SRC_COMMON_JSON_FIELDS_H_
#define SRC_COMMON_JSON_FIELDS_H_

#include <algorithm>
#include <array>
#include <charconv>
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
  kOmitEmpty,  // written only when non-empty (strings, containers) or positive (numbers)
  kOmitZero,   // written only when non-zero (numbers)
};

// Bits(): also write the decimal "<key>_approx" twin for human readers.
inline constexpr bool kWithApprox = true;

namespace json_fields_internal {

template <class T>
struct IsFixedArray : std::false_type {};
template <class T, size_t N>
struct IsFixedArray<std::array<T, N>> : std::true_type {};

template <class T>
struct IsSequence : IsFixedArray<T> {};
template <class T>
struct IsSequence<std::vector<T>> : std::true_type {};

template <class T>
inline constexpr bool kIsInteger = std::is_integral_v<T> && !std::is_same_v<T, bool>;

// A struct that travels as a JSON object through its Fields overload.
template <class T>
inline constexpr bool kIsStruct =
    std::is_class_v<T> && !std::is_same_v<T, std::string> && !IsSequence<T>::value;

// Visits a struct through its Fields overload: the default element visitor.
struct VisitFields {
  template <class V, class T>
  void operator()(V& v, T& value) const {
    Fields(v, value);
  }
};

// The reader's position in the document, kept only to name the offending
// key: a chain of keys and array indices living on the reader's stack,
// rendered when an error is reported.
struct PathNode {
  static constexpr size_t kNoIndex = static_cast<size_t>(-1);

  const PathNode* parent = nullptr;
  std::string_view key;
  std::string_view suffix;
  size_t index = kNoIndex;

  std::string Render() const {
    std::string path = parent != nullptr ? parent->Render() : std::string();
    if (index != kNoIndex) {
      path.append("[").append(std::to_string(index)).append("]");
    } else if (!key.empty()) {
      if (!path.empty()) {
        path += '.';
      }
      path.append(key).append(suffix);
    }
    return path;
  }
};

}  // namespace json_fields_internal

class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(JsonWriter& out) : out_(out) {}

  template <class T>
  void operator()(std::string_view key, const T& value, Presence presence = Presence::kRequired) {
    if (Omitted(value, presence)) {
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

  // A struct visited by `fields(v, value)` instead of Fields.
  template <class T, class ObjectFields>
  void Object(std::string_view key, const T& value, ObjectFields fields,
              Presence = Presence::kRequired) {
    Key(key);
    Object(value, fields);
  }

  // A map as an array of entry objects, each visited by
  // `fields(v, key, mapped)`, in ascending key order.
  template <class M, class EntryFields>
  void Map(std::string_view key, const M& map, EntryFields fields) {
    std::vector<const typename M::value_type*> entries;
    entries.reserve(map.size());
    for (const auto& entry : map) {
      entries.push_back(&entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    Key(key);
    out_.BeginArray();
    for (const auto* entry : entries) {
      out_.BeginObject();
      // Entry fields take references; writing never mutates them.
      fields(*this, const_cast<typename M::key_type&>(entry->first),
             const_cast<typename M::mapped_type&>(entry->second));
      out_.EndObject();
    }
    out_.EndArray();
  }

  // A value that travels as `to_wire(value)`; the reader converts back.
  template <class T, class ToWire, class FromWire>
  void Via(std::string_view key, const T& value, ToWire to_wire, FromWire,
           Presence presence = Presence::kRequired) {
    if (Omitted(value, presence)) {
      return;
    }
    Key(key);
    Value(to_wire(value));
  }

  // A double, or a vector or pair nesting of doubles, as hex bit patterns.
  template <class T>
  void Bits(std::string_view key, const T& value, bool approx = false) {
    Key(key);
    BitsValue(value);
    if constexpr (std::is_same_v<T, double>) {
      if (approx) {
        Key(std::string(key) + "_approx");
        out_.Double(value);
      }
    }
  }

  // A uint64 as exactly 16 lowercase hex digits.
  void Hex(std::string_view key, uint64_t value) {
    Key(key);
    out_.String(StrFormat("%016llx", static_cast<unsigned long long>(value)));
  }

  template <class E, class All>
  void Enum(std::string_view key, E value, const char* (*name)(E), const All&,
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
  void WriteOnly(std::string_view key, std::string_view value) {
    Key(key);
    out_.String(value);
  }

  // Inlines `value`'s fields into the current object, each key + `suffix`.
  template <class T>
  void Flatten(std::string_view suffix, const T& value, Presence = Presence::kRequired) {
    const std::string_view outer = suffix_;
    suffix_ = suffix;
    Fields(*this, const_cast<T&>(value));
    suffix_ = outer;
  }

  // Checks that only the reader runs.
  template <class Check>
  void Validate(Check) {}

  // Writes `value` as a JSON object in value position.
  template <class T, class ElementFields = json_fields_internal::VisitFields>
  void Object(const T& value, ElementFields fields = {}) {
    out_.BeginObject();
    fields(*this, const_cast<T&>(value));  // Fields takes T&; writing never mutates it
    out_.EndObject();
  }

  // Writes `value` in value position: a struct as an object, a sequence as
  // an array, a scalar as itself.
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
    } else if constexpr (json_fields_internal::IsSequence<T>::value) {
      out_.BeginArray();
      for (const auto& element : value) {
        Value(element);
      }
      out_.EndArray();
    } else {
      Object(value);
    }
  }

 private:
  template <class T>
  static bool Omitted(const T& value, Presence presence) {
    if constexpr (std::is_arithmetic_v<T>) {
      return (presence == Presence::kOmitEmpty && !(value > 0)) ||
             (presence == Presence::kOmitZero && value == 0);
    } else if constexpr (requires { value.empty(); }) {
      return presence == Presence::kOmitEmpty && value.empty();
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

  void BitsValue(double value) { out_.String(DoubleBits(value)); }

  template <class A, class B>
  void BitsValue(const std::pair<A, B>& pair) {
    out_.BeginArray();
    BitsValue(pair.first);
    BitsValue(pair.second);
    out_.EndArray();
  }

  template <class T>
  void BitsValue(const std::vector<T>& values) {
    out_.BeginArray();
    for (const T& value : values) {
      BitsValue(value);
    }
    out_.EndArray();
  }

  JsonWriter& out_;
  std::string_view suffix_;
};

class JsonFieldReader {
  using PathNode = json_fields_internal::PathNode;

 public:
  // Reads the fields of `object`.
  explicit JsonFieldReader(const JsonValue& object) : object_(object) {
    if (!object_.is_object()) {
      status_ = Status::InvalidArgument("expected JSON object");
    }
  }

  const Status& status() const { return status_; }

  // Reads a whole document into `value`: a struct from an object, a
  // sequence from an array, a scalar from itself.
  template <class T>
  static Status ReadDocument(const JsonValue& json, T& value) {
    JsonFieldReader reader(json, nullptr);
    reader.Read(json, value, PathNode{});
    return reader.status_;
  }

  template <class T>
  void operator()(std::string_view key, T& value, Presence presence = Presence::kRequired) {
    const PathNode node = Node(key);
    if (const JsonValue* json = Find(node, presence)) {
      Read(*json, value, node);
    }
  }

  template <class T, class ElementFields>
  void Array(std::string_view key, std::vector<T>& values, ElementFields fields) {
    const PathNode node = Node(key);
    if (const JsonValue* json = Find(node, Presence::kRequired)) {
      ReadArray(*json, values, node, fields);
    }
  }

  template <class T, class ObjectFields>
  void Object(std::string_view key, T& value, ObjectFields fields,
              Presence presence = Presence::kRequired) {
    const PathNode node = Node(key);
    if (const JsonValue* json = Find(node, presence)) {
      ReadObject(*json, value, node, fields);
    }
  }

  // Duplicate keys are refused.
  template <class M, class EntryFields>
  void Map(std::string_view key, M& map, EntryFields fields) {
    const PathNode node = Node(key);
    const JsonValue* json = Find(node, Presence::kRequired);
    if (json == nullptr) {
      return;
    }
    Result<const JsonArray*> array = ToArray(*json);
    if (!Accept(node, array.status())) {
      return;
    }
    map.clear();
    for (size_t i = 0; i < (*array)->size() && status_.ok(); ++i) {
      const PathNode element{&node, {}, {}, i};
      typename M::key_type entry_key{};
      typename M::mapped_type mapped{};
      ReadObject((**array)[i], mapped, element,
                 [&](JsonFieldReader& entry, auto&) { fields(entry, entry_key, mapped); });
      if (status_.ok() && !map.emplace(std::move(entry_key), std::move(mapped)).second) {
        Accept(element, Status::InvalidArgument("duplicate entry"));
      }
    }
  }

  template <class T, class ToWire, class FromWire>
  void Via(std::string_view key, T& value, ToWire to_wire, FromWire from_wire,
           Presence presence = Presence::kRequired) {
    const PathNode node = Node(key);
    const JsonValue* json = Find(node, presence);
    if (json == nullptr) {
      return;
    }
    std::decay_t<decltype(to_wire(value))> wire{};
    Read(*json, wire, node);
    if (status_.ok()) {
      Accept(node, Assign(from_wire(std::move(wire)), value));
    }
  }

  template <class T>
  void Bits(std::string_view key, T& value, bool /*approx*/ = false) {
    const PathNode node = Node(key);
    if (const JsonValue* json = Find(node, Presence::kRequired)) {
      ReadBits(*json, value, node);
    }
  }

  void Hex(std::string_view key, uint64_t& value) {
    const PathNode node = Node(key);
    const JsonValue* json = Find(node, Presence::kRequired);
    if (json == nullptr) {
      return;
    }
    Result<std::string_view> hex = ToStringView(*json);
    if (!Accept(node, hex.status())) {
      return;
    }
    if (hex->size() != 16 || hex->find_first_not_of("0123456789abcdef") != std::string_view::npos) {
      Accept(node, Status::InvalidArgument("malformed 16-hex-digit value '" + std::string(*hex) +
                                           "'"));
      return;
    }
    std::from_chars(hex->data(), hex->data() + hex->size(), value, 16);
  }

  template <class E, class All>
  void Enum(std::string_view key, E& value, const char* (*name)(E), const All& all,
            Presence presence = Presence::kRequired) {
    const PathNode node = Node(key);
    const JsonValue* json = Find(node, presence);
    if (json == nullptr) {
      return;
    }
    Result<std::string_view> text = ToStringView(*json);
    if (!Accept(node, text.status())) {
      return;
    }
    for (E candidate : all) {
      if (*text == name(candidate)) {
        value = candidate;
        return;
      }
    }
    Accept(node, Status::InvalidArgument("unknown value '" + std::string(*text) + "'"));
  }

  template <class T>
  void Raw(std::string_view key, T& value, std::string (*)(const T&),
           Result<std::type_identity_t<T>> (*parse)(const JsonValue&)) {
    const PathNode node = Node(key);
    if (const JsonValue* json = Find(node, Presence::kRequired)) {
      Accept(node, Assign(parse(*json), value));
    }
  }

  void WriteOnly(std::string_view, double) {}
  void WriteOnly(std::string_view, std::string_view) {}

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

  // Runs `check()` once the fields visited so far have been read; a failed
  // Status becomes this reader's error, under the current object's path.
  template <class Check>
  void Validate(Check check) {
    if (status_.ok()) {
      const Status checked = check();
      if (!checked.ok()) {
        Accept(at_ != nullptr ? *at_ : PathNode{}, checked);
      }
    }
  }

 private:
  JsonFieldReader(const JsonValue& object, const PathNode* at) : object_(object), at_(at) {}

  PathNode Node(std::string_view key) const { return PathNode{at_, key, suffix_}; }

  // The value under `node`'s key, or nullptr after an earlier error or when
  // the key is absent (itself an error when the key is required).
  const JsonValue* Find(const PathNode& node, Presence presence) {
    if (!status_.ok()) {
      return nullptr;
    }
    const JsonValue* json = suffix_.empty()
                                ? object_.Find(node.key)
                                : object_.Find(std::string(node.key).append(suffix_));
    if (json == nullptr && presence == Presence::kRequired && !all_optional_) {
      status_ = Status::InvalidArgument("missing key '" + node.Render() + "'");
    }
    return json;
  }

  // Records a failed `status` as this reader's error, naming `node`.
  bool Accept(const PathNode& node, const Status& status) {
    if (!status.ok() && status_.ok()) {
      const std::string path = node.Render();
      status_ = Status::InvalidArgument(path.empty() ? status.message()
                                                     : path + ": " + status.message());
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
  void Read(const JsonValue& json, T& value, const PathNode& node) {
    if constexpr (std::is_same_v<T, bool>) {
      Accept(node, Assign(ToBool(json), value));
    } else if constexpr (json_fields_internal::kIsInteger<T>) {
      ReadInteger(json, value, node);
    } else if constexpr (std::is_same_v<T, double>) {
      Accept(node, Assign(ToNumber(json), value));
    } else if constexpr (std::is_same_v<T, std::string>) {
      Accept(node, Assign(ToString(json), value));
    } else if constexpr (json_fields_internal::IsSequence<T>::value) {
      ReadArray(json, value, node, json_fields_internal::VisitFields{});
    } else {
      ReadObject(json, value, node, json_fields_internal::VisitFields{});
    }
  }

  template <class T>
  void ReadInteger(const JsonValue& json, T& value, const PathNode& node) {
    auto wide = [&json] {
      if constexpr (std::is_signed_v<T>) {
        return ToInt(json);
      } else {
        return ToUint(json);
      }
    }();
    if (!Accept(node, wide.status())) {
      return;
    }
    if (!std::in_range<T>(*wide)) {
      Accept(node, Status::InvalidArgument(std::to_string(*wide) + " out of range"));
      return;
    }
    value = static_cast<T>(*wide);
  }

  // The elements of a JSON array: all of them into a vector, exactly N into
  // a std::array.
  template <class Sequence, class ElementFields>
  void ReadArray(const JsonValue& json, Sequence& values, const PathNode& node,
                 ElementFields fields) {
    Result<const JsonArray*> array = ToArray(json);
    if (!Accept(node, array.status())) {
      return;
    }
    const JsonArray& elements = **array;
    if constexpr (json_fields_internal::IsFixedArray<Sequence>::value) {
      if (elements.size() != values.size()) {
        Accept(node, Status::InvalidArgument(StrFormat("expected %zu elements, got %zu",
                                                       values.size(), elements.size())));
        return;
      }
    } else {
      values.assign(elements.size(), {});
    }
    for (size_t i = 0; i < elements.size() && status_.ok(); ++i) {
      const PathNode element{&node, {}, {}, i};
      if constexpr (json_fields_internal::kIsStruct<typename Sequence::value_type>) {
        ReadObject(elements[i], values[i], element, fields);
      } else {
        Read(elements[i], values[i], element);
      }
    }
  }

  template <class T, class ObjectFields>
  void ReadObject(const JsonValue& json, T& value, const PathNode& node, ObjectFields fields) {
    if (!json.is_object()) {
      Accept(node, Status::InvalidArgument("expected JSON object"));
      return;
    }
    JsonFieldReader nested(json, &node);
    fields(nested, value);
    if (!nested.status_.ok()) {
      status_ = nested.status_;
    }
  }

  void ReadBits(const JsonValue& json, double& value, const PathNode& node) {
    Result<std::string_view> hex = ToStringView(json);
    if (Accept(node, hex.status())) {
      Accept(node, Assign(DoubleFromBits(*hex), value));
    }
  }

  template <class A, class B>
  void ReadBits(const JsonValue& json, std::pair<A, B>& pair, const PathNode& node) {
    Result<const JsonArray*> array = ToArray(json);
    if (!Accept(node, array.status())) {
      return;
    }
    if ((*array)->size() != 2) {
      Accept(node, Status::InvalidArgument("expected a 2-element array"));
      return;
    }
    ReadBits((**array)[0], pair.first, PathNode{&node, {}, {}, 0});
    ReadBits((**array)[1], pair.second, PathNode{&node, {}, {}, 1});
  }

  template <class T>
  void ReadBits(const JsonValue& json, std::vector<T>& values, const PathNode& node) {
    Result<const JsonArray*> array = ToArray(json);
    if (!Accept(node, array.status())) {
      return;
    }
    values.assign((*array)->size(), T{});
    for (size_t i = 0; i < values.size() && status_.ok(); ++i) {
      ReadBits((**array)[i], values[i], PathNode{&node, {}, {}, i});
    }
  }

  const JsonValue& object_;
  const PathNode* at_ = nullptr;  // this object's position in the document
  Status status_;
  std::string_view suffix_;
  bool all_optional_ = false;
};

// Serializes `value` through its Fields overload: a struct as one JSON
// object, a vector as an array.
template <class T>
std::string WriteJsonFields(const T& value) {
  JsonWriter out;
  JsonFieldWriter(out).Value(value);
  return out.str();
}

// Parses `json` into `value` through its Fields overload.
template <class T>
Status ReadJsonFields(const JsonValue& json, T& value) {
  return JsonFieldReader::ReadDocument(json, value);
}

// Parses `json` into a default-constructed T.
template <class T>
Result<T> ReadJsonFields(const JsonValue& json) {
  T value{};
  MAYA_RETURN_IF_ERROR(ReadJsonFields(json, value));
  return value;
}

}  // namespace maya

#endif  // SRC_COMMON_JSON_FIELDS_H_
