#include "src/obs/json_lite.h"

#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>

#include "src/util/error.h"

namespace vodrep::obs {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.value_.emplace<bool>(b);
  return v;
}

JsonValue JsonValue::integer(std::int64_t i) {
  JsonValue v;
  v.value_.emplace<std::int64_t>(i);
  return v;
}

JsonValue JsonValue::integer_u64(std::uint64_t u) {
  // Counters live in uint64; values beyond int64 range (never reached by
  // real runs) degrade to the double representation.
  if (u <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    return integer(static_cast<std::int64_t>(u));
  }
  return number(static_cast<double>(u));
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.value_.emplace<double>(d);
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.value_.emplace<std::string>(std::move(s));
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.value_.emplace<std::vector<JsonValue>>();
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.value_.emplace<std::vector<JsonValue>>(std::move(items));
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.value_.emplace<std::vector<Member>>();
  return v;
}

bool JsonValue::as_bool() const {
  require(is_bool(), "JsonValue: not a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  require(is_number(), "JsonValue: not a number");
  if (kind() == Kind::kInt) {
    return static_cast<double>(std::get<std::int64_t>(value_));
  }
  return std::get<double>(value_);
}

std::int64_t JsonValue::as_int() const {
  require(kind() == Kind::kInt, "JsonValue: not an integer");
  return std::get<std::int64_t>(value_);
}

std::uint64_t JsonValue::as_uint() const {
  require(kind() == Kind::kInt && std::get<std::int64_t>(value_) >= 0,
          "JsonValue: not a non-negative integer");
  return static_cast<std::uint64_t>(std::get<std::int64_t>(value_));
}

const std::string& JsonValue::as_string() const {
  require(is_string(), "JsonValue: not a string");
  return std::get<std::string>(value_);
}

const std::vector<JsonValue>& JsonValue::items() const {
  require(is_array(), "JsonValue: not an array");
  return std::get<std::vector<JsonValue>>(value_);
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  require(is_object(), "JsonValue: not an object");
  return std::get<std::vector<Member>>(value_);
}

void JsonValue::push_back(JsonValue value) {
  auto* items = std::get_if<std::vector<JsonValue>>(&value_);
  require(items != nullptr, "JsonValue: push_back on a non-array");
  items->push_back(std::move(value));
}

void JsonValue::set(std::string key, JsonValue value) {
  auto* members = std::get_if<std::vector<Member>>(&value_);
  require(members != nullptr, "JsonValue: set on a non-object");
  members->emplace_back(std::move(key), std::move(value));
}

void JsonValue::reserve(std::size_t count) {
  auto* items = std::get_if<std::vector<JsonValue>>(&value_);
  require(items != nullptr, "JsonValue: reserve on a non-array");
  items->reserve(count);
}

const JsonValue& JsonValue::at(std::string_view key) const {
  require(is_object(), "JsonValue: at() on a non-object");
  for (const Member& member : std::get<std::vector<Member>>(value_)) {
    if (member.first == key) return member.second;
  }
  detail::throw_invalid("JsonValue: missing key '" + std::string(key) + "'");
}

bool JsonValue::has(std::string_view key) const {
  const auto* members = std::get_if<std::vector<Member>>(&value_);
  if (members == nullptr) return false;
  for (const Member& member : *members) {
    if (member.first == key) return true;
  }
  return false;
}

std::size_t JsonValue::size() const {
  if (is_array()) return std::get<std::vector<JsonValue>>(value_).size();
  if (is_object()) return std::get<std::vector<Member>>(value_).size();
  detail::throw_invalid("JsonValue: size() on a scalar");
}

namespace {

/// Appends `text` as a JSON string literal: runs that need no escape are
/// copied in one append each.
void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (byte) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                               kHex[byte & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out.push_back('"');
}

template <typename Number>
void append_number(std::string& out, Number value) {
  // Room for any int64 and the shortest round-trip form of any double
  // (at most 24 bytes, as in "-2.2250738585072014e-308").
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  require(ec == std::errc(), "JsonValue: number formatting failed");
  out.append(buffer, static_cast<std::size_t>(end - buffer));
}

}  // namespace

void write_json_string(std::ostream& os, std::string_view text) {
  std::string out;
  append_json_string(out, text);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void JsonValue::append_to(std::string& out) const {
  switch (kind()) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += std::get<bool>(value_) ? "true" : "false"; return;
    case Kind::kInt: append_number(out, std::get<std::int64_t>(value_)); return;
    case Kind::kNumber: {
      const double d = std::get<double>(value_);
      require(std::isfinite(d),
              "JsonValue: NaN/Inf is not representable in JSON");
      // Round-trip exact: shortest representation that parses back to the
      // same double.
      append_number(out, d);
      return;
    }
    case Kind::kString:
      append_json_string(out, std::get<std::string>(value_));
      return;
    case Kind::kArray: {
      const auto& items = std::get<std::vector<JsonValue>>(value_);
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out.push_back(',');
        items[i].append_to(out);
      }
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      const auto& members = std::get<std::vector<Member>>(value_);
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out.push_back(',');
        append_json_string(out, members[i].first);
        out.push_back(':');
        members[i].second.append_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

void JsonValue::write(std::ostream& os) const {
  const std::string text = dump();
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string JsonValue::dump() const {
  std::string out;
  append_to(out);
  return out;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind() && a.is_number() && b.is_number()) {
    return a.as_number() == b.as_number();
  }
  return a.value_ == b.value_;
}

namespace {

/// Recursive-descent JSON parser over a string_view.  Depth-capped so a
/// pathological input cannot blow the stack.
class Parser {
 public:
  static constexpr std::size_t kMaxDepth = 64;

  /// Per-depth element buffers of the arrays being parsed; kMaxDepth of
  /// them, empty between parses.
  using Buffers = std::vector<std::vector<JsonValue>>;

  Parser(std::string_view text, Buffers& elements)
      : text_(text), elements_(elements) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    require(pos_ == text_.size(),
            [&] { return error("trailing characters after JSON document"); });
    return value;
  }

 private:
  [[nodiscard]] std::string error(const std::string& what) const {
    return "json parse error at byte " + std::to_string(pos_) + ": " + what;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    require(pos_ < text_.size(),
            [&] { return error("unexpected end of input"); });
    return text_[pos_];
  }

  void expect(char c) {
    require(peek() == c, [&] {
      return error(std::string("expected '") + c + "', found '" + peek() + "'");
    });
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    require(depth < kMaxDepth, [&] { return error("nesting too deep"); });
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::string(parse_string());
      case 't':
        require(consume_literal("true"), [&] { return error("bad literal"); });
        return JsonValue::boolean(true);
      case 'f':
        require(consume_literal("false"), [&] { return error("bad literal"); });
        return JsonValue::boolean(false);
      case 'n':
        require(consume_literal("null"), [&] { return error("bad literal"); });
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return object;
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array();
    }
    // The elements collect in this depth's buffer, reused by every array at
    // the depth (one is open at a time), and move once into an exactly
    // sized vector, so an array's own storage never regrows.
    std::vector<JsonValue>& elements = elements_[depth];
    for (;;) {
      elements.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      JsonValue array = JsonValue::array(
          std::vector<JsonValue>(std::make_move_iterator(elements.begin()),
                                 std::make_move_iterator(elements.end())));
      elements.clear();
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Everything up to the next quote or backslash is copied verbatim.
      const std::size_t stop = text_.find_first_of("\"\\", pos_);
      if (stop == std::string_view::npos) {
        pos_ = text_.size();
        detail::throw_invalid(error("unterminated string"));
      }
      out.append(text_.data() + pos_, stop - pos_);
      pos_ = stop + 1;
      if (text_[stop] == '"') return out;
      require(pos_ < text_.size(), [&] { return error("dangling escape"); });
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default:
          detail::throw_invalid(error("unknown escape sequence"));
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    require(pos_ + 4 <= text_.size(),
            [&] { return error("truncated \\u escape"); });
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        detail::throw_invalid(error("bad \\u escape digit"));
      }
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs are not combined;
    // our own writer never emits them).
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    require(!token.empty() && token != "-",
            [&] { return error("malformed number"); });
    if (integral) {
      std::int64_t value = 0;
      const auto [end, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      // "-0" is how the writer spells the double -0.0 (int64 has no negative
      // zero), so it takes the double path to round-trip bit for bit.
      if (ec == std::errc() && end == token.data() + token.size() &&
          !(value == 0 && token.front() == '-')) {
        return JsonValue::integer(value);
      }
      // Out of int64 range: fall through to the double path.
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    require(ec == std::errc() && end == token.data() + token.size(),
            [&] { return error("malformed number"); });
    return JsonValue::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Buffers& elements_;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  // The buffers outlive the call, so their capacity is paid once per
  // thread rather than regrown on every parse.  A parse that throws leaves
  // elements behind in the open arrays' buffers; they are dropped here.
  thread_local Parser::Buffers elements(Parser::kMaxDepth);
  Parser parser(text, elements);
  try {
    return parser.parse_document();
  } catch (...) {
    for (std::vector<JsonValue>& buffer : elements) buffer.clear();
    throw;
  }
}

}  // namespace vodrep::obs
