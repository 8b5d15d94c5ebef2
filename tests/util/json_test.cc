#include "jpm/util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "jpm/util/check.h"

namespace jpm::util::json {
namespace {

TEST(JsonWriterTest, ScalarsAndCompactContainers) {
  EXPECT_EQ(dump(Value{}), "null");
  EXPECT_EQ(dump(Value{true}), "true");
  EXPECT_EQ(dump(Value{false}), "false");
  EXPECT_EQ(dump(Value{"hi"}), "\"hi\"");
  EXPECT_EQ(dump(Value{Array{}}), "[]");
  EXPECT_EQ(dump(Value{Object{}}), "{}");

  Object o;
  o["a"] = Value{1};
  o["b"] = Value{Array{Value{1}, Value{2}}};
  EXPECT_EQ(dump(Value{std::move(o)}), "{\"a\":1,\"b\":[1,2]}");
}

TEST(JsonWriterTest, ObjectPreservesInsertionOrder) {
  Object o;
  o["zebra"] = Value{1};
  o["alpha"] = Value{2};
  o["mid"] = Value{3};
  o["alpha"] = Value{4};  // update in place, no reordering
  EXPECT_EQ(dump(Value{std::move(o)}), "{\"zebra\":1,\"alpha\":4,\"mid\":3}");
}

TEST(JsonWriterTest, StringEscapes) {
  EXPECT_EQ(dump(Value{"a\"b\\c\nd\te"}), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(dump(Value{std::string("\x01", 1)}), "\"\\u0001\"");
}

TEST(JsonWriterTest, PrettyPrintIndents) {
  Object inner;
  inner["x"] = Value{1};
  Object o;
  o["k"] = Value{std::move(inner)};
  EXPECT_EQ(dump(Value{std::move(o)}, 2),
            "{\n  \"k\": {\n    \"x\": 1\n  }\n}");
}

TEST(JsonFormatNumberTest, IntegersHaveNoDecimalPoint) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-7.0), "-7");
  // Exact integer counters beyond float32 range stay exponent-free.
  EXPECT_EQ(format_number(123456789012.0), "123456789012");
  EXPECT_EQ(format_number(-0.0), "-0");  // printf("%.0f")'s spelling
  EXPECT_EQ(format_number(999999999999999.0), "999999999999999");
  EXPECT_EQ(format_number(1e15), "1e+15");
}

TEST(JsonFormatNumberTest, BufferFormMatchesTheStringForm) {
  for (double d : {0.0, -0.0, 42.0, -7.5, 0.1, 1e15, -2.5e-7, 1.7e300,
                   0.12345678901234567, -1234567890123456789.0}) {
    char buf[kMaxNumberChars];
    EXPECT_EQ(std::string(buf, format_number(d, buf)), format_number(d));
  }
}

TEST(JsonFormatNumberTest, FractionsRoundTrip) {
  for (double d : {0.1, 3.14159, -2.5e-7, 1.7e300}) {
    const std::string s = format_number(d);
    EXPECT_EQ(std::stod(s), d) << s;
  }
}

TEST(JsonFormatNumberTest, RejectsNonFinite) {
  EXPECT_THROW(format_number(std::nan("")), CheckError);
  EXPECT_THROW(format_number(std::numeric_limits<double>::infinity()),
               CheckError);
}

TEST(JsonParserTest, RoundTripsNestedDocument) {
  Object inner;
  inner["pi"] = Value{3.125};
  inner["flag"] = Value{true};
  Object root;
  root["version"] = Value{1};
  root["name"] = Value{"sweep \"A\""};
  root["nested"] = Value{std::move(inner)};
  root["list"] = Value{Array{Value{}, Value{-2}, Value{"x"}}};
  const std::string text = dump(Value{std::move(root)}, 2);

  Value parsed;
  std::string error;
  ASSERT_TRUE(parse(text, &parsed, &error)) << error;
  // The writer is deterministic, so parse-then-dump is the identity.
  EXPECT_EQ(dump(parsed, 2), text);
  EXPECT_EQ(parsed.as_object().find("name")->as_string(), "sweep \"A\"");
  EXPECT_EQ(parsed.as_object().find("nested")->as_object().find("pi")
                ->as_number(),
            3.125);
}

TEST(JsonParserTest, AcceptsWhitespaceAndEmptyContainers) {
  Value v;
  ASSERT_TRUE(parse(" { \"a\" : [ ] , \"b\" : { } } ", &v));
  EXPECT_TRUE(v.as_object().find("a")->as_array().empty());
  EXPECT_EQ(v.as_object().find("b")->as_object().size(), 0u);
}

TEST(JsonParserTest, ReportsErrorsWithByteOffset) {
  Value v;
  std::string error;
  EXPECT_FALSE(parse("", &v, &error));
  EXPECT_NE(error.find("unexpected end"), std::string::npos);

  error.clear();
  EXPECT_FALSE(parse("{\"a\":1", &v, &error));
  EXPECT_NE(error.find("at byte"), std::string::npos);

  error.clear();
  EXPECT_FALSE(parse("[1,2] junk", &v, &error));
  EXPECT_NE(error.find("trailing characters"), std::string::npos);

  error.clear();
  EXPECT_FALSE(parse("{\"a\" 1}", &v, &error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(parse("1.2.3", &v, &error));
  EXPECT_NE(error.find("malformed number"), std::string::npos);
}

}  // namespace
}  // namespace jpm::util::json
