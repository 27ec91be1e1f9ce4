/**
 * @file
 * The repository's JSON reader: exact integer round-trip (the
 * property the diff engine's bit-exact conservation checks stand
 * on), member-order preservation, escapes, and hard failures on
 * malformed input.
 */

#include <gtest/gtest.h>

#include <string>

#include "trace/json_value.hpp"

namespace {

using cooprt::trace::JsonValue;

TEST(JsonValue, ScalarsParseWithExactKinds)
{
    std::string err;
    const JsonValue i = JsonValue::parse("42", &err);
    ASSERT_TRUE(i.valid()) << err;
    EXPECT_TRUE(i.isInt());
    EXPECT_EQ(i.intValue(), 42);

    const JsonValue neg = JsonValue::parse("-7", &err);
    ASSERT_TRUE(neg.valid());
    EXPECT_EQ(neg.intValue(), -7);

    // Integer-looking text stays an Int even at int64 extremes —
    // cycle counters must round-trip without any double rounding.
    const JsonValue big =
        JsonValue::parse("9223372036854775807", &err);
    ASSERT_TRUE(big.valid());
    EXPECT_TRUE(big.isInt());
    EXPECT_EQ(big.intValue(), INT64_MAX);

    const JsonValue d = JsonValue::parse("42.5", &err);
    ASSERT_TRUE(d.valid());
    EXPECT_FALSE(d.isInt());
    EXPECT_DOUBLE_EQ(d.numberValue(), 42.5);

    const JsonValue e = JsonValue::parse("1e3", &err);
    ASSERT_TRUE(e.valid());
    EXPECT_DOUBLE_EQ(e.numberValue(), 1000.0);

    EXPECT_TRUE(JsonValue::parse("true", &err).boolValue());
    EXPECT_FALSE(JsonValue::parse("false", &err).boolValue());
    EXPECT_TRUE(JsonValue::parse("null", &err).isNull());
}

TEST(JsonValue, Uint64OverflowDegradesToDouble)
{
    // A uint64 checksum emitted as a bare number exceeds int64;
    // the reader degrades it to double instead of rejecting the
    // whole document.
    std::string err;
    const JsonValue v =
        JsonValue::parse("18446744073709551615", &err);
    ASSERT_TRUE(v.valid()) << err;
    EXPECT_FALSE(v.isInt());
    EXPECT_TRUE(v.isNumber());
}

TEST(JsonValue, ObjectPreservesMemberOrder)
{
    std::string err;
    const JsonValue v = JsonValue::parse(
        R"({"z":1,"a":{"nested":[1,2,3]},"m":"text"})", &err);
    ASSERT_TRUE(v.valid()) << err;
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");

    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    const JsonValue *nested = a->find("nested");
    ASSERT_NE(nested, nullptr);
    ASSERT_TRUE(nested->isArray());
    ASSERT_EQ(nested->array().size(), 3u);
    EXPECT_EQ(nested->array()[2].intValue(), 3);

    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(v.getInt("z", -1), 1);
    EXPECT_EQ(v.getInt("missing", -1), -1);
    EXPECT_EQ(v.getString("m", ""), "text");
}

TEST(JsonValue, StringEscapes)
{
    std::string err;
    const JsonValue v = JsonValue::parse(
        R"("a\"b\\c\nd\u0041\u00e9")", &err);
    ASSERT_TRUE(v.valid()) << err;
    EXPECT_EQ(v.stringValue(), "a\"b\\c\ndA\xc3\xa9");
}

TEST(JsonValue, MalformedInputFailsWithOffset)
{
    const char *bad[] = {
        "",                       // empty
        "{",                      // unterminated object
        "[1,2",                   // unterminated array
        "\"abc",                  // unterminated string
        "{\"k\" 1}",              // missing colon
        "{\"k\":1,}",             // trailing comma = missing key
        "tru",                    // bad word
        "-",                      // malformed number
        "\"\\x\"",                // unknown escape
        "1 2",                    // trailing garbage
    };
    for (const char *text : bad) {
        std::string err;
        const JsonValue v = JsonValue::parse(text, &err);
        EXPECT_FALSE(v.valid()) << "accepted: " << text;
        EXPECT_NE(err.find("offset"), std::string::npos)
            << "no offset in error for: " << text;
    }
}

TEST(JsonValue, RejectsPathologicalNesting)
{
    std::string deep;
    for (int i = 0; i < 80; ++i)
        deep += '[';
    for (int i = 0; i < 80; ++i)
        deep += ']';
    std::string err;
    EXPECT_FALSE(JsonValue::parse(deep, &err).valid());
    EXPECT_NE(err.find("64"), std::string::npos);
}

} // namespace
