/**
 * @file
 * Export tests for the ray-provenance recorder: raystats JSON/CSV,
 * Perfetto track emission, and the `ray.*` metrics probes.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "raytrace/raytrace.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/json_value.hpp"
#include "trace/registry.hpp"

#include "../rtunit/rtunit_test_util.hpp"

namespace {

using namespace cooprt;
using raytrace::Recorder;
using raytrace::RecorderConfig;
using rtunit::TraceConfig;
using testutil::RtHarness;

/** Drives one coop warp through SM 0 of a whole-GPU style recorder. */
struct RecordedWarp
{
    static RecorderConfig
    makeConfig(int sample_k = 4)
    {
        RecorderConfig rcfg;
        rcfg.sample_k = sample_k;
        return rcfg;
    }

    Recorder ray;

    explicit RecordedWarp(RecorderConfig rcfg = makeConfig())
        : ray(rcfg)
    {
        TraceConfig coop;
        coop.coop = true;
        RtHarness h(testutil::makeSoup(8, 2000), coop);
        h.unit.attachObservers({&ray.unit(0)}, nullptr);
        h.runOne(testutil::frontalJob(rtunit::kWarpSize));
    }
};

TEST(RayStatsExport, JsonIsValidAndCarriesTheSchema)
{
    RecordedWarp run;
    const Recorder &ray = run.ray;
    std::ostringstream ss;
    ray.writeRayStatsJson(ss, "soup");
    const std::string json = ss.str();
    EXPECT_TRUE(trace::JsonValue::parse(json).valid()) << json.substr(0, 400);
    for (const char *key :
         {"\"scene\"", "\"sample_k\"", "\"rays_sampled\"",
          "\"warps\"", "\"node_visits\"", "\"stack_hwm\"",
          "\"levels\"", "\"steals_in\"", "\"steals_out\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(RayStatsExport, CsvHasOneRowPerRay)
{
    RecordedWarp run;
    const Recorder &ray = run.ray;
    std::ostringstream ss;
    ray.writeRayStatsCsv(ss);
    std::istringstream lines(ss.str());
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header,
              "sm,ordinal,warp_id,lane,launch,retire,node_visits,"
              "node_pops,stale_pops,node_pushes,leaf_tests,steals_in,"
              "steals_out,stack_hwm,l1,l2,dram,events");
    std::size_t rows = 0;
    std::string line;
    while (std::getline(lines, line))
        if (!line.empty())
            rows++;
    EXPECT_EQ(rows, ray.stats().rays_sampled);
}

TEST(RayStatsExport, PerfettoTracksPerWarpAndRay)
{
    RecordedWarp run;
    const Recorder &ray = run.ray;
    trace::Tracer tracer(1 << 16);
    ray.emitPerfetto(tracer);
    std::ostringstream ss;
    tracer.writeJson(ss);
    const std::string json = ss.str();
    EXPECT_TRUE(trace::JsonValue::parse(json).valid());
    // One named track group per sampled warp plus one per ray.
    EXPECT_NE(json.find("rays ord"), std::string::npos);
    EXPECT_NE(json.find("lane"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"warp\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ray\""), std::string::npos);
    EXPECT_NE(json.find("fetch_"), std::string::npos);
}

TEST(RayStatsExport, RegistryProbesMirrorRecorderStats)
{
    // The registry must outlive the recorder (the recorder's dtor
    // unregisters its owned probes), so declare it first.
    trace::Registry reg;
    RecordedWarp run;
    Recorder &ray = run.ray;
    ray.registerMetrics(reg);
    const auto samples = reg.snapshot("ray.*");
    ASSERT_EQ(samples.size(), 7u);
    for (const auto &s : samples) {
        if (s.name == "ray.rays_sampled") {
            EXPECT_EQ(s.value, double(ray.stats().rays_sampled));
        }
        if (s.name == "ray.events_recorded") {
            EXPECT_EQ(s.value, double(ray.stats().events_recorded));
        }
    }
}

TEST(RayStatsExport, EventCapDropsAndCounts)
{
    RecorderConfig rcfg;
    rcfg.sample_k = raytrace::kLanes;
    rcfg.max_events_per_ray = 4; // force overflow
    Recorder ray(rcfg);
    TraceConfig coop;
    coop.coop = true;
    RtHarness h(testutil::makeSoup(8, 2000), coop);
    h.unit.attachObservers({&ray.unit(0)}, nullptr);
    h.runOne(testutil::frontalJob(rtunit::kWarpSize));

    EXPECT_GT(ray.stats().events_dropped, 0u);
    std::ostringstream ss;
    ray.writeRayStatsJson(ss, "soup");
    EXPECT_TRUE(trace::JsonValue::parse(ss.str()).valid());
}

} // namespace
