// Minimal JSON document model: enough to emit the observability exports
// (metrics snapshots, chrome://tracing event streams, run reports)
// deterministically and to parse them back for validation in tests and
// tools.
//
// Not a general JSON library: numbers are doubles (plus an exact-integer
// fast path so uint64 counters survive a round trip), object key order is
// preserved as written, and parse errors throw InvalidArgumentError with a
// byte offset.  Serialization writes the shortest representation that
// parses back to the same double, so parse(dump(v)) is value-exact for
// every number we emit.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace vodrep::obs {

/// One JSON value: a std::variant over the seven JSON shapes (integers are
/// tracked separately from general numbers so counter exports stay exact).
/// The alternatives are in Kind order, so kind() is the variant's index.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue integer(std::int64_t i);
  static JsonValue integer_u64(std::uint64_t u);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object();

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(value_.index()); }
  [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const {
    return kind() == Kind::kNumber || kind() == Kind::kInt;
  }
  [[nodiscard]] bool is_string() const { return kind() == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind() == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind() == Kind::kObject; }

  [[nodiscard]] bool as_bool() const;
  /// Numeric value; exact for kInt within int64 range.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Array append / object insert (no key-uniqueness check; the writers
  /// below never emit duplicates).
  void push_back(JsonValue value);
  void set(std::string key, JsonValue value);
  /// Reserves room for `count` array elements, so a column of known length
  /// is built without regrowing.
  void reserve(std::size_t count);

  /// Object lookup; throws InvalidArgumentError when absent or not an object.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;
  /// Array element count / object member count.
  [[nodiscard]] std::size_t size() const;

  /// Compact single-line serialization (valid JSON), built in one string
  /// and handed to the stream in a single write.
  void write(std::ostream& os) const;
  [[nodiscard]] std::string dump() const;

  /// The variant's equality, except that a kInt and a kNumber compare by
  /// numeric value (kInt 3 == kNumber 3.0).
  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  using Value = std::variant<std::monostate, bool, std::int64_t, double,
                             std::string, std::vector<JsonValue>,
                             std::vector<Member>>;

  void append_to(std::string& out) const;

  Value value_;
};

/// Writes `text` as a JSON string literal (quotes + escapes) to `os`.
void write_json_string(std::ostream& os, std::string_view text);

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected).  Throws InvalidArgumentError on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace vodrep::obs
