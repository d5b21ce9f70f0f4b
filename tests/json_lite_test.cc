// json_lite: the writer and the parser behind every observability export.
// The contract under test: write() and dump() emit the same bytes, every
// byte a JSON string must escape is escaped and parses back, integers at
// the int64 limits stay exact, every finite double round-trips bit for bit,
// equality is by value (an integer equals the double of the same value),
// and a value stays one small variant.
#include "src/obs/json_lite.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "src/util/error.h"
#include "src/util/rng.h"

namespace vodrep::obs {
namespace {

std::string written(const JsonValue& value) {
  std::ostringstream os;
  value.write(os);
  return os.str();
}

JsonValue sample_document() {
  JsonValue inner = JsonValue::array();
  inner.push_back(JsonValue::null());
  inner.push_back(JsonValue::boolean(false));
  inner.push_back(JsonValue::integer(-7));
  inner.push_back(JsonValue::number(0.1));
  inner.push_back(JsonValue::string("tab\there \"quoted\""));
  JsonValue doc = JsonValue::object();
  doc.set("inner", std::move(inner));
  doc.set("empty_object", JsonValue::object());
  doc.set("empty_array", JsonValue::array());
  doc.set("big",
          JsonValue::integer_u64(std::numeric_limits<std::uint64_t>::max()));
  return doc;
}

TEST(JsonLite, WriteAndDumpEmitTheSameBytes) {
  const JsonValue doc = sample_document();
  EXPECT_EQ(written(doc), doc.dump());
  EXPECT_EQ(doc.dump(),
            "{\"inner\":[null,false,-7,0.1,\"tab\\there \\\"quoted\\\"\"],"
            "\"empty_object\":{},\"empty_array\":[],"
            "\"big\":18446744073709551616}");
  std::ostringstream os;
  write_json_string(os, "a\"b");
  EXPECT_EQ(os.str(), "\"a\\\"b\"");
}

TEST(JsonLite, EscapesEveryControlByteQuoteAndBackslash) {
  const std::string long_run(300, 'x');
  for (int byte = 0; byte < 0x20; ++byte) {
    const char c = static_cast<char>(byte);
    for (const std::string& text :
         {std::string(1, c), c + long_run, long_run + c, c + long_run + c}) {
      const std::string json = JsonValue::string(text).dump();
      // No raw control byte survives into the output.
      for (char out : json) {
        EXPECT_GE(static_cast<unsigned char>(out), 0x20) << "byte " << byte;
      }
      EXPECT_EQ(parse_json(json).as_string(), text) << "byte " << byte;
    }
  }
  EXPECT_EQ(JsonValue::string(std::string(1, '\0')).dump(), "\"\\u0000\"");
  EXPECT_EQ(JsonValue::string("\x1f").dump(), "\"\\u001f\"");
  EXPECT_EQ(JsonValue::string("\b\f\n\r\t").dump(), "\"\\b\\f\\n\\r\\t\"");
  for (const char c : {'"', '\\'}) {
    for (const std::string& text :
         {std::string(1, c), c + long_run, long_run + c, c + long_run + c}) {
      const std::string json = JsonValue::string(text).dump();
      EXPECT_EQ(json.front(), '"');
      EXPECT_EQ(json.back(), '"');
      EXPECT_EQ(parse_json(json).as_string(), text) << c;
    }
  }
  EXPECT_EQ(JsonValue::string("\"\\").dump(), "\"\\\"\\\\\"");
}

TEST(JsonLite, IntegersAtTheInt64LimitsStayExact) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t value : {kMin, kMin + 1, std::int64_t{-1},
                                   std::int64_t{0}, kMax - 1, kMax}) {
    const JsonValue parsed = parse_json(JsonValue::integer(value).dump());
    ASSERT_EQ(parsed.kind(), JsonValue::Kind::kInt) << value;
    EXPECT_EQ(parsed.as_int(), value);
  }
  EXPECT_EQ(JsonValue::integer(kMin).dump(), "-9223372036854775808");
  EXPECT_EQ(JsonValue::integer(kMax).dump(), "9223372036854775807");
  // A uint64 above the int64 range degrades to its double, and that double
  // round-trips.
  const std::uint64_t above = static_cast<std::uint64_t>(kMax) + 2;
  const JsonValue u = JsonValue::integer_u64(above);
  EXPECT_EQ(u.kind(), JsonValue::Kind::kNumber);
  EXPECT_EQ(parse_json(u.dump()).as_number(), static_cast<double>(above));
  EXPECT_EQ(JsonValue::integer_u64(static_cast<std::uint64_t>(kMax)).as_int(),
            kMax);
}

TEST(JsonLite, RandomFiniteDoublesRoundTripBitForBit) {
  Rng rng(0x15011);
  int checked = 0;
  while (checked < 100'000) {
    // Raw bit patterns reach every exponent, subnormals and both signs.
    const double value = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(value)) continue;
    const double back = parse_json(JsonValue::number(value).dump()).as_number();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << JsonValue::number(value).dump();
    ++checked;
  }
  for (const double value :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(), -std::numeric_limits<double>::min(),
        0x1p62, 1e21}) {
    const double back = parse_json(JsonValue::number(value).dump()).as_number();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << JsonValue::number(value).dump();
  }
  EXPECT_THROW((void)JsonValue::number(std::nan("")).dump(),
               InvalidArgumentError);
}

TEST(JsonLite, IntegerEqualsTheDoubleOfTheSameValue) {
  EXPECT_EQ(JsonValue::integer(3), JsonValue::number(3.0));
  EXPECT_EQ(JsonValue::number(3.0), JsonValue::integer(3));
  EXPECT_FALSE(JsonValue::integer(3) == JsonValue::number(3.5));
  EXPECT_FALSE(JsonValue::integer(3) == JsonValue::string("3"));
  EXPECT_FALSE(JsonValue::null() == JsonValue::boolean(false));
  // Two integers compare exactly, even where their doubles coincide.
  EXPECT_FALSE(JsonValue::integer((std::int64_t{1} << 60) + 1) ==
               JsonValue::integer(std::int64_t{1} << 60));
}

TEST(JsonLite, NestedArraysAndObjectsCompareByValue) {
  const JsonValue a = sample_document();
  const JsonValue b = parse_json(a.dump());
  EXPECT_EQ(a, b);
  // An integer inside nested containers still equals its double.
  JsonValue ints = JsonValue::array();
  ints.push_back(JsonValue::integer(2));
  JsonValue doubles = JsonValue::array();
  doubles.push_back(JsonValue::number(2.0));
  JsonValue x = JsonValue::object();
  x.set("k", std::move(ints));
  JsonValue y = JsonValue::object();
  y.set("k", std::move(doubles));
  EXPECT_EQ(x, y);
  // Order, keys, lengths and leaf values all matter.
  const JsonValue reordered =
      parse_json("{\"empty_object\":{},\"inner\":[],\"empty_array\":[]}");
  EXPECT_FALSE(a == reordered);
  const JsonValue nested = parse_json("[1,[2,{\"k\":3}]]");
  EXPECT_FALSE(nested == parse_json("[1,[2,{\"k\":4}]]"));
  EXPECT_FALSE(nested == parse_json("[1,[2,{\"j\":3}]]"));
  EXPECT_FALSE(nested == parse_json("[1,[2,{\"k\":3},4]]"));
}

TEST(JsonLite, ArraysReserveWithoutChangingContent) {
  JsonValue column = JsonValue::array();
  column.reserve(1000);
  column.push_back(JsonValue::integer(1));
  EXPECT_EQ(column.size(), 1u);
  EXPECT_EQ(column.dump(), "[1]");
  JsonValue object = JsonValue::object();
  EXPECT_THROW(object.reserve(4), InvalidArgumentError);
}

TEST(JsonLite, ValueIsOneSmallVariant) {
  // A std::string plus the variant's index: the old struct of every member
  // side by side took 104 bytes.
  EXPECT_LE(sizeof(JsonValue), 48u);
}

}  // namespace
}  // namespace vodrep::obs
