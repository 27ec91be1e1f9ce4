/**
 * @file
 * Tests for the shared JSON string escaping (the fix for the report
 * writer's unescaped-string bug) and for the strictness of the JSON
 * reader that every test reads sinks back with.
 */

#include <gtest/gtest.h>

#include "trace/json.hpp"
#include "trace/json_value.hpp"

namespace {

using cooprt::trace::escapeJson;
using cooprt::trace::JsonValue;
using cooprt::trace::quoteJson;

TEST(JsonEscape, PassesPlainStringsThrough)
{
    EXPECT_EQ(escapeJson("crnvl"), "crnvl");
    EXPECT_EQ(escapeJson(""), "");
    EXPECT_EQ(escapeJson("rtunit.sm0.node_fetches"),
              "rtunit.sm0.node_fetches");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(escapeJson("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeJson("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeJson("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, EscapesCommonControlCharacters)
{
    EXPECT_EQ(escapeJson("a\nb"), "a\\nb");
    EXPECT_EQ(escapeJson("a\tb"), "a\\tb");
    EXPECT_EQ(escapeJson("a\rb"), "a\\rb");
    EXPECT_EQ(escapeJson("a\bb"), "a\\bb");
    EXPECT_EQ(escapeJson("a\fb"), "a\\fb");
}

TEST(JsonEscape, EscapesRareControlCharactersAsUnicode)
{
    EXPECT_EQ(escapeJson(std::string("a") + '\x01' + "b"),
              "a\\u0001b");
    EXPECT_EQ(escapeJson(std::string("a") + '\x1f' + "b"),
              "a\\u001fb");
    EXPECT_EQ(escapeJson(std::string("\0", 1)), "\\u0000");
}

TEST(JsonEscape, QuoteJsonProducesValidJsonStrings)
{
    const std::string nasty =
        "scene \"one\\two\"\n\twith\rcontrol\x02 chars";
    EXPECT_TRUE(JsonValue::parse(quoteJson(nasty)).valid());
    EXPECT_TRUE(JsonValue::parse(quoteJson("")).valid());
    EXPECT_TRUE(JsonValue::parse(quoteJson("plain")).valid());
}

TEST(JsonCheck, ValidatorAcceptsAndRejectsCorrectly)
{
    for (const char *good :
         {"{}", "[1,2.5,-3e4,\"x\",true,false,null]",
          "{\"a\":{\"b\":[{}]}}", "  {\"k\" : \"v\\n\"} ", "0", "-0",
          "0.5", "-0.5e-3", "1E+2", "[0,10,-10]"})
        EXPECT_TRUE(JsonValue::parse(good).valid()) << good;
    // RFC 8259 rejects leading zeros, a '-' or '.' without digits
    // after it, an exponent without digits and raw control
    // characters inside strings.
    for (const char *bad :
         {"{\"a\":}", "{\"a\":1,}", "\"unterminated", "\"raw\ncontrol\"",
          "\"raw\ttab\"", "[1 2]", "{} extra", "1.", "-.5", "[1.]", "-",
          "01", "-01", "[00]", "1e", "1e+", ".5"})
        EXPECT_FALSE(JsonValue::parse(bad).valid()) << bad;
}

} // namespace
