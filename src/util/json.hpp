// The repo's one JSON document model: a recursive-descent parser and a
// serializer over the same Value.
//
// Everything the repo writes as JSON goes through dump(): the rdt-bench-v2
// reports (bench/bench_common.hpp) and the rdt-trace-v1 chrome traces
// (obs/session.cpp). tools/rdt_stats reads both back through parse(), and
// trace_export_test round-trips the writers. It is a DOM, not a streaming
// parser — the documents involved are reports, not bulk data.
//
// Parsing: full JSON (RFC 8259) input, including string escapes and
// \uXXXX (decoded to UTF-8). Numbers without fraction/exponent that fit a
// long long parse as integers, everything else as double; a number whose
// magnitude overflows a double is rejected. Objects preserve member order
// and allow duplicate keys; find() returns the first match. Parse errors
// throw std::invalid_argument with the byte offset, like the pattern parser
// in ccp/pattern_io.
//
// Serializing: compact (no whitespace), members in insertion order so
// reports diff cleanly run to run, doubles at max_digits10 (they read back
// bit-exact), non-finite doubles as null (JSON has no nan/inf), and
// strings escaped minimally: quote, backslash, \n, \t, other control bytes
// as \u00XX; every other byte passes through raw.
#pragma once

#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace rdt::json {

class Value;
using Member = std::pair<std::string, Value>;
using Array = std::vector<Value>;
using Object = std::vector<Member>;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  // Implicit on purpose, so reports read as nested braces:
  //   json::Object{{"seeds", 10}, {"mean", 0.5}, {"ok", true}}.
  // Integers are stored as long long; an unsigned value beyond that range
  // is stored as a double, as parse() does for integer tokens that
  // overflow. nullptr is null (it must not reach the const char* overload).
  Value() = default;  // null
  Value(std::nullptr_t) {}                           // NOLINT(*-explicit-*)
  Value(bool b) : v_(b) {}                           // NOLINT(*-explicit-*)
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Value(T i) : v_(from_integer(i)) {}                // NOLINT(*-explicit-*)
  Value(double d) : v_(d) {}                         // NOLINT(*-explicit-*)
  Value(const char* s) : v_(std::string(s)) {}       // NOLINT(*-explicit-*)
  Value(std::string s) : v_(std::move(s)) {}         // NOLINT(*-explicit-*)
  Value(Array a) : v_(std::move(a)) {}               // NOLINT(*-explicit-*)
  Value(Object o) : v_(std::move(o)) {}              // NOLINT(*-explicit-*)

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  // Checked accessors; throw std::invalid_argument on a kind mismatch.
  // as_double() accepts integers too (JSON has one number type).
  bool as_bool() const;
  long long as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // Object member lookup. find() returns nullptr when this value is not an
  // object or the key is absent; at() throws instead.
  const Value* find(std::string_view key) const;
  const Value& at(std::string_view key) const;

  // Serialize compactly (see the header comment for the exact spelling).
  void dump(std::ostream& os) const;
  std::string dump() const;

  // Structural equality, except that numbers compare by value whatever
  // their spelling (1 == 1.0): JSON has one number type, and dump() spells
  // an integral double without a fraction. So parse(dump(v)) == v.
  friend bool operator==(const Value& a, const Value& b);

 private:
  using Storage = std::variant<std::monostate, bool, long long, double,
                               std::string, Array, Object>;

  template <std::integral T>
  static Storage from_integer(T i) {
    if constexpr (std::is_unsigned_v<T> && sizeof(T) >= sizeof(long long)) {
      if (i > static_cast<T>(std::numeric_limits<long long>::max()))
        return static_cast<double>(i);
    }
    return static_cast<long long>(i);
  }

  Storage v_;
};

// Parse one complete JSON document (trailing whitespace allowed, trailing
// content is an error). Throws std::invalid_argument on malformed input.
Value parse(std::string_view text);

}  // namespace rdt::json
