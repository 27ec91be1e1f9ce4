/**
 * @file
 * Tests for the JSON run report.
 */

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "trace/json_value.hpp"

namespace {

using namespace cooprt;

const core::RunOutcome &
sampleOutcome()
{
    static core::RunOutcome out = [] {
        const core::Simulation &sim = core::simulationFor("wknd");
        core::RunConfig cfg;
        cfg.resolution = 16;
        return sim.run(cfg);
    }();
    return out;
}

TEST(Report, ContainsTopLevelFields)
{
    const std::string j = core::toJson(sampleOutcome());
    EXPECT_NE(j.find("\"scene\":\"wknd\""), std::string::npos);
    EXPECT_NE(j.find("\"resolution\":16"), std::string::npos);
    EXPECT_NE(j.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(j.find("\"rt_unit\":{"), std::string::npos);
    EXPECT_NE(j.find("\"memory\":{"), std::string::npos);
    EXPECT_NE(j.find("\"stalls\":{"), std::string::npos);
    EXPECT_NE(j.find("\"power\":{"), std::string::npos);
}

TEST(Report, BalancedBracesAndQuotes)
{
    const std::string j = core::toJson(sampleOutcome());
    int depth = 0;
    int quotes = 0;
    for (char c : j) {
        if (c == '{')
            depth++;
        else if (c == '}')
            depth--;
        else if (c == '"')
            quotes++;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0);
}

TEST(Report, NoTrailingCommas)
{
    const std::string j = core::toJson(sampleOutcome());
    EXPECT_EQ(j.find(",}"), std::string::npos);
    EXPECT_EQ(j.find(",,"), std::string::npos);
    EXPECT_EQ(j.find("{,"), std::string::npos);
}

TEST(Report, NumbersAreFinite)
{
    const std::string j = core::toJson(sampleOutcome());
    EXPECT_EQ(j.find("nan"), std::string::npos);
    EXPECT_EQ(j.find("inf"), std::string::npos);
}

TEST(Report, EndsWithNewline)
{
    const std::string j = core::toJson(sampleOutcome());
    ASSERT_FALSE(j.empty());
    EXPECT_EQ(j.back(), '\n');
}

TEST(Report, IsValidJson)
{
    EXPECT_TRUE(
        trace::JsonValue::parse(core::toJson(sampleOutcome())).valid());
}

TEST(Report, EscapesSceneNameWithQuotes)
{
    // The original writer emitted strings raw; a quote in the scene
    // name produced unparseable output.
    core::RunOutcome out;
    out.scene = "cornell \"box\"";
    const std::string j = core::toJson(out);
    EXPECT_TRUE(trace::JsonValue::parse(j).valid());
    EXPECT_NE(j.find("cornell \\\"box\\\""), std::string::npos);
}

TEST(Report, EscapesBackslashesAndControlCharacters)
{
    core::RunOutcome out;
    out.scene = "a\\b\nnewline\ttab";
    const std::string j = core::toJson(out);
    EXPECT_TRUE(trace::JsonValue::parse(j).valid());
    EXPECT_NE(j.find("a\\\\b\\nnewline\\ttab"), std::string::npos);
}

TEST(Report, OmitsTraceBlockWithoutSession)
{
    const std::string j = core::toJson(sampleOutcome());
    EXPECT_EQ(j.find("\"trace\":{"), std::string::npos);
}

} // namespace
