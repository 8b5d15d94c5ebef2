// Minimal JSON value, parser, and deterministic writer.
//
// Used by the telemetry exporters (report writing) and the schema tests
// (report validation) — no third-party JSON dependency. The writer is
// deterministic: object members serialize in insertion order, and doubles
// use the shortest round-trip representation, so two structurally identical
// documents serialize byte-identically. Not a general-purpose JSON library:
// no \uXXXX escape decoding beyond pass-through, no NaN/Inf (rejected at
// write time — encode such values before storing them).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace jpm::util::json {

class Value;
using Array = std::vector<Value>;

// Object preserving insertion order (deterministic serialization that still
// reads naturally: "version" first, payload after).
class Object {
 public:
  Value& operator[](const std::string& key);           // insert or fetch
  const Value* find(const std::string& key) const;     // nullptr if absent
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), number_(d) {}
  Value(int i) : kind_(Kind::kNumber), number_(i) {}
  Value(std::int64_t i)
      : kind_(Kind::kNumber), number_(static_cast<double>(i)) {}
  Value(std::uint64_t u)
      : kind_(Kind::kNumber), number_(static_cast<double>(u)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}
  Value(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }
  Object& as_object() { return object_; }

  static const char* kind_name(Kind k);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Serializes a double exactly the way the writer does (shortest round-trip);
// exposed so CSV export and tests format numbers identically to the report.
std::string format_number(double d);

// Room for any format_number output: sign, 17 significant digits, point and
// exponent.
inline constexpr std::size_t kMaxNumberChars = 32;

// format_number into buf[0, kMaxNumberChars) without allocating; returns one
// past the last character written. For per-event writers.
char* format_number(double d, char* buf);

// Deterministic serialization. indent < 0 emits compact one-line JSON;
// indent >= 0 pretty-prints with that many spaces per level.
std::string dump(const Value& v, int indent = -1);

// Parses `text`; on failure returns nullopt-like null Value and fills
// `error` (when non-null) with a message naming the byte offset.
bool parse(const std::string& text, Value* out, std::string* error = nullptr);

}  // namespace jpm::util::json
