/**
 * @file
 * Tests for the Chrome trace_event tracer: ring-buffer behavior,
 * export validity, filtering and metadata tracks.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "trace/chrome_trace.hpp"
#include "trace/json_value.hpp"

namespace {

using cooprt::trace::JsonValue;
using cooprt::trace::Tracer;

std::string
exportJson(const Tracer &t)
{
    std::ostringstream ss;
    t.writeJson(ss);
    return ss.str();
}

TEST(Tracer, EmptyExportIsValidJson)
{
    Tracer t(16);
    const std::string json = exportJson(t);
    EXPECT_TRUE(JsonValue::parse(json).valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Tracer, RecordsAllThreeKinds)
{
    Tracer t(16);
    t.complete("sm", "warp", 0, 3, 100, 50);
    t.instant("rtunit.lbu", "steal", 1, 2, 120);
    t.counter("gpu", "thread_utilization", 0, 500, 0.75);
    EXPECT_EQ(t.recorded(), 3u);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.dropped(), 0u);

    const std::string json = exportJson(t);
    EXPECT_TRUE(JsonValue::parse(json).valid());
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"steal\""), std::string::npos);
}

TEST(Tracer, RingOverwritesOldestAndCountsDropped)
{
    Tracer t(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.instant("cat", "e", 0, 0, i);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);

    // Oldest-first export: surviving timestamps are 6..9.
    const std::string json = exportJson(t);
    EXPECT_TRUE(JsonValue::parse(json).valid());
    EXPECT_EQ(json.find("\"ts\":5"), std::string::npos);
    const auto p6 = json.find("\"ts\":6");
    const auto p9 = json.find("\"ts\":9");
    EXPECT_NE(p6, std::string::npos);
    EXPECT_NE(p9, std::string::npos);
    EXPECT_LT(p6, p9);
}

TEST(Tracer, ExportFilterMatchesCategoryOrQualifiedName)
{
    Tracer t(16);
    t.instant("rtunit.lbu", "steal", 0, 0, 1);
    t.instant("sm", "warp", 0, 0, 2);
    t.setFilter("rtunit.*");
    std::string json = exportJson(t);
    EXPECT_TRUE(JsonValue::parse(json).valid());
    EXPECT_NE(json.find("steal"), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"warp\""), std::string::npos);

    // Filtering is applied at export only; recording is unaffected.
    EXPECT_EQ(t.recorded(), 2u);

    // `cat.name` also matches, so "sm.warp" selects the sm event.
    t.setFilter("sm.warp");
    json = exportJson(t);
    EXPECT_NE(json.find("\"name\":\"warp\""), std::string::npos);
    EXPECT_EQ(json.find("steal"), std::string::npos);
}

TEST(Tracer, MetadataNamesAreExported)
{
    Tracer t(16);
    t.processName(0, "SM 0");
    t.threadName(0, 5, "warp 5");
    t.instant("sm", "e", 0, 5, 1);
    const std::string json = exportJson(t);
    EXPECT_TRUE(JsonValue::parse(json).valid());
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("SM 0"), std::string::npos);
    EXPECT_NE(json.find("warp 5"), std::string::npos);
}

TEST(Tracer, ClearDropsDataButKeepsCapacity)
{
    Tracer t(8);
    t.instant("c", "e", 0, 0, 1);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.capacity(), 8u);
    EXPECT_TRUE(JsonValue::parse(exportJson(t)).valid());
}

TEST(Tracer, TrackNamesSurviveRingWraparound)
{
    // Track metadata lives outside the event ring: a burst that
    // evicts every early event must not take the processName /
    // threadName records registered alongside them with it, and the
    // export must stay valid JSON. This is what keeps long ray-trace
    // sessions loadable in Perfetto: the named per-warp tracks are
    // registered once at emit time, while events churn through the
    // ring.
    Tracer t(4);
    t.processName(0, "SM 0");
    t.threadName(0, 7, "rays w7");
    t.instant("ray", "launch", 0, 7, 1);
    for (std::uint64_t i = 0; i < 64; ++i)
        t.instant("ray", "pop", 0, 7, 2 + i);

    EXPECT_EQ(t.size(), 4u);
    EXPECT_GT(t.dropped(), 0u);
    // The launch event itself was evicted...
    const std::string json = exportJson(t);
    EXPECT_TRUE(JsonValue::parse(json).valid());
    EXPECT_EQ(json.find("\"name\":\"launch\""), std::string::npos);
    // ...but both name records survived eviction.
    EXPECT_NE(json.find("SM 0"), std::string::npos);
    EXPECT_NE(json.find("rays w7"), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(Tracer, MacrosAreNullSafe)
{
    Tracer *none = nullptr;
    COOPRT_TRACE_COMPLETE(none, "c", "n", 0, 0, 1, 2);
    COOPRT_TRACE_INSTANT(none, "c", "n", 0, 0, 1);
    COOPRT_TRACE_COUNTER(none, "c", "n", 0, 1, 2.0);

    Tracer t(8);
    Tracer *some = &t;
    COOPRT_TRACE_COMPLETE(some, "c", "n", 0, 0, 1, 2);
    COOPRT_TRACE_INSTANT(some, "c", "n", 0, 0, 1);
    COOPRT_TRACE_COUNTER(some, "c", "n", 0, 1, 2.0);
    EXPECT_EQ(t.recorded(), 3u);
}

TEST(Tracer, CounterValuesSurviveRoundTrip)
{
    Tracer t(8);
    t.counter("gpu", "util", 2, 500, 0.25);
    const std::string json = exportJson(t);
    EXPECT_TRUE(JsonValue::parse(json).valid());
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(json.find("0.25"), std::string::npos);
}

} // namespace
