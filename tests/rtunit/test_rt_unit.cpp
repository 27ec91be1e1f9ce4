/**
 * @file
 * Behavioural tests for the RT-unit timing model (baseline and
 * CoopRT mechanics: coalescing, warp buffer, LBU, timelines).
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "raytrace/raytrace.hpp"
#include "rtunit_test_util.hpp"
#include "trace/registry.hpp"

namespace {

using namespace cooprt;
using rtunit::kWarpSize;
using rtunit::TraceConfig;
using rtunit::TraceJob;
using rtunit::TraceResult;
using testutil::frontalJob;
using testutil::makeSoup;
using testutil::RtHarness;

TEST(RtUnit, EmptyJobRetiresImmediately)
{
    RtHarness h(makeSoup(1, 200), TraceConfig{});
    TraceJob job; // no rays
    TraceResult r = h.runOne(job);
    EXPECT_EQ(r.latency(), 0u);
    EXPECT_EQ(h.fetches, 0u);
    for (const auto &hit : r.hits)
        EXPECT_FALSE(hit.hit());
}

TEST(RtUnit, StatsAccumulateSumsAndMaxLatency)
{
    rtunit::RtUnitStats a;
    a.node_fetches = 3;
    a.retired_warps = 2;
    a.retired_trace_latency = 90;
    a.max_trace_latency = 60;
    a.hit_stores = 1;
    rtunit::RtUnitStats b = a;
    b.max_trace_latency = 40;
    a += b;
    EXPECT_EQ(a.node_fetches, 6u);
    EXPECT_EQ(a.retired_warps, 4u);
    EXPECT_EQ(a.retired_trace_latency, 180u);
    EXPECT_EQ(a.max_trace_latency, 60u);
    EXPECT_EQ(a.hit_stores, 2u);
}

/** Value of @p name in @p reg's snapshot (NaN when absent). */
double
probeValue(const trace::Registry &reg, const std::string &name)
{
    for (const auto &s : reg.snapshot())
        if (s.name == name)
            return s.value;
    ADD_FAILURE() << "metric not in snapshot: " << name;
    return std::nan("");
}

TEST(RtUnit, TraceLatencyMeanIsZeroBeforeAnyRetire)
{
    trace::Registry reg;
    RtHarness h(makeSoup(1, 200), TraceConfig{});
    h.unit.attachTrace(&reg, nullptr, 0);
    EXPECT_EQ(probeValue(reg, "rtunit.sm0.trace_latency.count"), 0.0);
    EXPECT_EQ(probeValue(reg, "rtunit.sm0.trace_latency.mean"), 0.0);
}

TEST(RtUnit, TraceLatencyProbesTrackCountSumMaxMean)
{
    // Every retired warp is one trace_latency sample; the four
    // probes read the unit's own retire counters.
    trace::Registry reg;
    RtHarness h(makeSoup(3, 800), TraceConfig{});
    h.unit.attachTrace(&reg, nullptr, 2);
    std::uint64_t sum = 0, max = 0;
    const TraceJob jobs[] = {TraceJob{}, frontalJob(1), frontalJob(8)};
    for (const TraceJob &job : jobs) {
        const std::uint64_t lat = h.runOne(job).latency();
        sum += lat;
        max = std::max(max, lat);
    }
    ASSERT_GT(sum, 0u);
    const std::string p = "rtunit.sm2.trace_latency.";
    EXPECT_EQ(probeValue(reg, p + "count"), 3.0);
    EXPECT_EQ(probeValue(reg, p + "sum"), double(sum));
    EXPECT_EQ(probeValue(reg, p + "max"), double(max));
    EXPECT_DOUBLE_EQ(probeValue(reg, p + "mean"), double(sum) / 3.0);
}

TEST(RtUnit, TraceLatencyProbesExpandInSnapshots)
{
    // Each attached unit adds exactly four trace_latency names under
    // its own SM index, listed in name order in the snapshot.
    trace::Registry reg;
    RtHarness a(makeSoup(1, 200), TraceConfig{});
    RtHarness b(makeSoup(1, 200), TraceConfig{});
    a.unit.attachTrace(&reg, nullptr, 0);
    b.unit.attachTrace(&reg, nullptr, 1);
    std::vector<std::string> names;
    for (const auto &s : reg.snapshot())
        if (s.name.find(".trace_latency.") != std::string::npos)
            names.push_back(s.name);
    const std::vector<std::string> want = {
        "rtunit.sm0.trace_latency.count", "rtunit.sm0.trace_latency.max",
        "rtunit.sm0.trace_latency.mean",  "rtunit.sm0.trace_latency.sum",
        "rtunit.sm1.trace_latency.count", "rtunit.sm1.trace_latency.max",
        "rtunit.sm1.trace_latency.mean",  "rtunit.sm1.trace_latency.sum",
    };
    EXPECT_EQ(names, want);
}

TEST(RtUnit, AllRaysMissSceneBoxRetiresWithoutFetch)
{
    RtHarness h(makeSoup(2, 200), TraceConfig{});
    TraceJob job;
    job.rays[0] = geom::Ray({0, 100, 0}, {0, 1, 0}); // away from scene
    TraceResult r = h.runOne(job);
    EXPECT_EQ(h.fetches, 0u);
    EXPECT_FALSE(r.hits[0].hit());
}

TEST(RtUnit, SingleRayMatchesOracle)
{
    scene::Mesh mesh = makeSoup(3, 800);
    RtHarness h(mesh, TraceConfig{});
    TraceJob job = frontalJob(1);
    TraceResult r = h.runOne(job);
    auto ref = bvh::closestHit(h.flat, h.mesh, *job.rays[0]);
    EXPECT_EQ(r.hits[0].hit(), ref.hit());
    if (ref.hit()) {
        EXPECT_EQ(r.hits[0].prim_id, ref.prim_id);
        EXPECT_FLOAT_EQ(r.hits[0].thit, ref.thit);
    }
}

TEST(RtUnit, FullWarpMatchesOraclePerThread)
{
    scene::Mesh mesh = makeSoup(4, 1500);
    RtHarness h(mesh, TraceConfig{});
    TraceJob job = frontalJob(kWarpSize);
    TraceResult r = h.runOne(job);
    for (int t = 0; t < kWarpSize; ++t) {
        auto ref = bvh::closestHit(h.flat, h.mesh, *job.rays[t]);
        ASSERT_EQ(r.hits[t].hit(), ref.hit()) << "thread " << t;
        if (ref.hit()) {
            EXPECT_FLOAT_EQ(r.hits[t].thit, ref.thit) << "thread " << t;
        }
    }
}

TEST(RtUnit, IdenticalRaysCoalesceFetches)
{
    scene::Mesh mesh = makeSoup(5, 1000);

    TraceJob one = frontalJob(1);
    RtHarness h1(mesh, TraceConfig{});
    h1.runOne(one);
    const std::uint64_t solo_fetches = h1.fetches;

    // 32 copies of the same ray must coalesce to the same unique
    // addresses: fetch count equals the single-ray count.
    TraceJob same;
    for (int t = 0; t < kWarpSize; ++t)
        same.rays[std::size_t(t)] = *one.rays[0];
    RtHarness h32(mesh, TraceConfig{});
    TraceResult r = h32.runOne(same);
    EXPECT_EQ(h32.fetches, solo_fetches);
    EXPECT_GT(h32.unit.stats().coalesced_threads,
              31u * h32.unit.stats().issue_cycles / 2);
    for (int t = 1; t < kWarpSize; ++t)
        EXPECT_EQ(r.hits[t].prim_id, r.hits[0].prim_id);
}

TEST(RtUnit, WarpBufferCapacityEnforced)
{
    scene::Mesh mesh = makeSoup(6, 300);
    TraceConfig cfg;
    cfg.warp_buffer_entries = 2;
    RtHarness h(mesh, cfg, 1000000); // huge latency: jobs stay resident
    EXPECT_EQ(h.unit.freeSlots(), 2);
    h.unit.submit(frontalJob(4, 1), 0, nullptr);
    EXPECT_EQ(h.unit.freeSlots(), 1);
    h.unit.submit(frontalJob(4, 2), 0, nullptr);
    EXPECT_EQ(h.unit.freeSlots(), 0);
    EXPECT_THROW(h.unit.submit(frontalJob(4, 3), 0, nullptr),
                 std::runtime_error);
}

TEST(RtUnit, MultipleWarpsAllRetireCorrectly)
{
    scene::Mesh mesh = makeSoup(7, 1200);
    TraceConfig cfg;
    cfg.warp_buffer_entries = 4;
    RtHarness h(mesh, cfg);
    int retired = 0;
    std::array<TraceJob, 4> jobs;
    std::array<TraceResult, 4> results;
    for (int w = 0; w < 4; ++w) {
        jobs[w] = frontalJob(8, 100 + w);
        h.unit.submit(jobs[w], h.now,
                      [&results, &retired, w](int,
                                              const TraceResult &r) {
                          results[w] = r;
                          retired++;
                      });
    }
    h.drain([&] { return retired == 4; });
    for (int w = 0; w < 4; ++w) {
        for (int t = 0; t < 8; ++t) {
            auto ref = bvh::closestHit(h.flat, h.mesh,
                                       *jobs[w].rays[t]);
            ASSERT_EQ(results[w].hits[t].hit(), ref.hit())
                << "warp " << w << " thread " << t;
            if (ref.hit()) {
                EXPECT_FLOAT_EQ(results[w].hits[t].thit, ref.thit);
            }
        }
    }
    EXPECT_EQ(h.unit.stats().retired_warps, 4u);
    EXPECT_TRUE(h.unit.idle());
}

TEST(RtUnit, CoopProducesSteals)
{
    scene::Mesh mesh = makeSoup(8, 2000);
    TraceConfig coop;
    coop.coop = true;
    RtHarness h(mesh, coop);
    h.runOne(frontalJob(1)); // one busy thread, 31 idle helpers
    EXPECT_GT(h.unit.stats().steals, 0u);
}

TEST(RtUnit, BaselineNeverSteals)
{
    scene::Mesh mesh = makeSoup(8, 2000);
    RtHarness h(mesh, TraceConfig{});
    h.runOne(frontalJob(1));
    EXPECT_EQ(h.unit.stats().steals, 0u);
}

TEST(RtUnit, CoopSingleRayFasterThanBaseline)
{
    scene::Mesh mesh = makeSoup(9, 3000);
    TraceJob job = frontalJob(1, 42);

    RtHarness base(mesh, TraceConfig{});
    TraceResult rb = base.runOne(job);

    TraceConfig coop_cfg;
    coop_cfg.coop = true;
    RtHarness coop(mesh, coop_cfg);
    TraceResult rc = coop.runOne(job);

    // Same answer...
    EXPECT_EQ(rb.hits[0].hit(), rc.hits[0].hit());
    if (rb.hits[0].hit()) {
        EXPECT_FLOAT_EQ(rb.hits[0].thit, rc.hits[0].thit);
    }
    // ...much faster: the helpers parallelize the latency chain.
    EXPECT_LT(rc.latency() * 2, rb.latency());
}

TEST(RtUnit, SubwarpRestrictionLimitsSpeedup)
{
    scene::Mesh mesh = makeSoup(10, 3000);
    TraceJob job = frontalJob(1, 7);

    auto run_latency = [&](int subwarp) {
        TraceConfig cfg;
        cfg.coop = true;
        cfg.subwarp_size = subwarp;
        RtHarness h(mesh, cfg);
        return h.runOne(job).latency();
    };

    const std::uint64_t l4 = run_latency(4);
    const std::uint64_t l32 = run_latency(32);
    // Thread 0's subwarp of 4 offers at most 3 helpers; the full warp
    // offers 31. Full-warp cooperation must not be slower.
    EXPECT_LE(l32, l4);
}

TEST(RtUnit, LbuBandwidthAblation)
{
    scene::Mesh mesh = makeSoup(11, 3000);
    TraceJob job = frontalJob(1, 3);

    TraceConfig one;
    one.coop = true;
    one.lbu_moves_per_cycle = 1;
    RtHarness h1(mesh, one);
    const std::uint64_t l1 = h1.runOne(job).latency();

    TraceConfig four = one;
    four.lbu_moves_per_cycle = 4;
    RtHarness h4(mesh, four);
    const std::uint64_t l4 = h4.runOne(job).latency();

    // More LBU bandwidth should be at worst neutral (a small
    // tolerance absorbs work-order perturbation from extra moves).
    EXPECT_LE(double(l4), double(l1) * 1.05 + 50.0);
}

TEST(RtUnit, StealFromBottomStillCorrect)
{
    scene::Mesh mesh = makeSoup(12, 1500);
    TraceJob job = frontalJob(4, 5);

    TraceConfig cfg;
    cfg.coop = true;
    cfg.steal_from_bottom = true;
    RtHarness h(mesh, cfg);
    TraceResult r = h.runOne(job);
    for (int t = 0; t < 4; ++t) {
        auto ref = bvh::closestHit(h.flat, h.mesh, *job.rays[t]);
        ASSERT_EQ(r.hits[t].hit(), ref.hit()) << t;
        if (ref.hit()) {
            EXPECT_FLOAT_EQ(r.hits[t].thit, ref.thit) << t;
        }
    }
    EXPECT_GT(h.unit.stats().steals, 0u);
}

TEST(RtUnit, BfsOrderCorrect)
{
    scene::Mesh mesh = makeSoup(13, 1500);
    TraceJob job = frontalJob(6, 6);

    TraceConfig cfg;
    cfg.order = rtunit::TraversalOrder::Bfs;
    RtHarness h(mesh, cfg);
    TraceResult r = h.runOne(job);
    for (int t = 0; t < 6; ++t) {
        auto ref = bvh::closestHit(h.flat, h.mesh, *job.rays[t]);
        ASSERT_EQ(r.hits[t].hit(), ref.hit()) << t;
        if (ref.hit()) {
            EXPECT_FLOAT_EQ(r.hits[t].thit, ref.thit) << t;
        }
    }
}

TEST(RtUnit, BfsCoopCorrectAndSteals)
{
    scene::Mesh mesh = makeSoup(14, 2000);
    TraceJob job = frontalJob(1, 8);

    TraceConfig cfg;
    cfg.order = rtunit::TraversalOrder::Bfs;
    cfg.coop = true;
    RtHarness h(mesh, cfg);
    TraceResult r = h.runOne(job);
    auto ref = bvh::closestHit(h.flat, h.mesh, *job.rays[0]);
    ASSERT_EQ(r.hits[0].hit(), ref.hit());
    if (ref.hit()) {
        EXPECT_FLOAT_EQ(r.hits[0].thit, ref.thit);
    }
    EXPECT_GT(h.unit.stats().steals, 0u);
}

TEST(RtUnit, TimelineRecordsBusyBars)
{
    scene::Mesh mesh = makeSoup(15, 1500);
    TraceConfig cfg;
    cfg.coop = true;
    RtHarness h(mesh, cfg);

    raytrace::RecorderConfig rcfg;
    rcfg.sample_k = kWarpSize;
    rcfg.lane_timeline = true;
    raytrace::UnitRecorder ray(0, &rcfg);
    h.unit.attachObservers({&ray}, nullptr);
    h.runOne(frontalJob(2, 9));
    ASSERT_EQ(ray.warps().size(), 1u);
    const stats::TimelineRecorder rec =
        raytrace::laneTimeline(ray.warps()[0]);

    // The two active threads and at least one helper were busy.
    EXPECT_GT(rec.busyCycles(0) + rec.busyCycles(1), 0u);
    std::uint64_t helper_busy = 0;
    for (int t = 2; t < kWarpSize; ++t)
        helper_busy += rec.busyCycles(t);
    EXPECT_GT(helper_busy, 0u);
    EXPECT_GT(rec.lastCycle(), rec.firstCycle());
}

TEST(RtUnit, StalePopsOccurOnOccludedScenes)
{
    // Many stacked parallel triangles: the closest one eliminates the
    // farther subtrees after the first leaf hit.
    scene::Mesh mesh;
    for (int i = 0; i < 256; ++i) {
        float z = 1.0f + 0.05f * float(i);
        mesh.addTriangle({{-5, -5, z}, {5, -5, z}, {0, 5, z}});
    }
    RtHarness h(mesh, TraceConfig{});
    TraceJob job;
    job.rays[0] = geom::Ray({0, 0, -1}, {0, 0, 1});
    TraceResult r = h.runOne(job);
    EXPECT_TRUE(r.hits[0].hit());
    EXPECT_NEAR(r.hits[0].thit, 2.0f, 1e-4f);
    EXPECT_GT(h.unit.stats().stale_pops, 0u);
}

TEST(RtUnit, StatsCountsAreConsistent)
{
    scene::Mesh mesh = makeSoup(16, 1500);
    RtHarness h(mesh, TraceConfig{});
    h.runOne(frontalJob(16, 11));
    const auto &s = h.unit.stats();
    // The memory port carries node/leaf fetches plus the hit-record
    // store-queue writes at retire.
    EXPECT_EQ(s.node_fetches + s.leaf_fetches + s.hit_stores,
              h.fetches);
    EXPECT_EQ(s.issue_cycles, s.node_fetches + s.leaf_fetches);
    EXPECT_GE(s.coalesced_threads, s.issue_cycles); // >= 1 per issue
    EXPECT_EQ(s.retired_warps, 1u);
    EXPECT_GT(s.box_tests, 0u);
    EXPECT_GT(s.hit_stores, 0u);
}

TEST(RtUnit, HitStoresCanBeDisabled)
{
    scene::Mesh mesh = makeSoup(24, 800);
    TraceConfig cfg;
    cfg.model_hit_stores = false;
    RtHarness h(mesh, cfg);
    h.runOne(frontalJob(8, 24));
    const auto &s = h.unit.stats();
    EXPECT_EQ(s.hit_stores, 0u);
    EXPECT_EQ(s.node_fetches + s.leaf_fetches, h.fetches);
}

TEST(RtUnit, HitStoresCountOnlyHittingThreads)
{
    scene::Mesh mesh = makeSoup(25, 800);
    RtHarness h(mesh, TraceConfig{});
    TraceJob job = frontalJob(8, 25);
    TraceResult r = h.runOne(job);
    std::uint64_t hits = 0;
    for (const auto &rec : r.hits)
        hits += rec.hit();
    EXPECT_EQ(h.unit.stats().hit_stores, hits);
}

TEST(RtUnit, AnyHitAgreesWithOracleOnHitExistence)
{
    scene::Mesh mesh = makeSoup(21, 1500);
    RtHarness h(mesh, TraceConfig{});
    TraceJob job = frontalJob(16, 21);
    job.any_hit = true;
    TraceResult r = h.runOne(job);
    for (int t = 0; t < 16; ++t) {
        const bool expect =
            bvh::anyHit(h.flat, h.mesh, *job.rays[std::size_t(t)]);
        EXPECT_EQ(r.hits[std::size_t(t)].hit(), expect) << t;
    }
}

TEST(RtUnit, AnyHitCheaperThanClosestHit)
{
    scene::Mesh mesh = makeSoup(22, 3000);
    TraceJob closest = frontalJob(16, 22);
    TraceJob any = closest;
    any.any_hit = true;

    RtHarness hc(mesh, TraceConfig{});
    hc.runOne(closest);
    RtHarness ha(mesh, TraceConfig{});
    ha.runOne(any);
    EXPECT_LT(ha.fetches, hc.fetches);
}

TEST(RtUnit, AnyHitCoopStillCorrect)
{
    scene::Mesh mesh = makeSoup(23, 2000);
    TraceConfig cfg;
    cfg.coop = true;
    RtHarness h(mesh, cfg);
    TraceJob job = frontalJob(4, 23);
    job.any_hit = true;
    TraceResult r = h.runOne(job);
    for (int t = 0; t < 4; ++t) {
        const bool expect =
            bvh::anyHit(h.flat, h.mesh, *job.rays[std::size_t(t)]);
        EXPECT_EQ(r.hits[std::size_t(t)].hit(), expect) << t;
    }
}

TEST(RtUnit, StackOverflowCounted)
{
    scene::Mesh mesh = makeSoup(17, 4000);
    TraceConfig cfg;
    cfg.stack_capacity = 1; // absurdly small to force overflows
    RtHarness h(mesh, cfg);
    h.runOne(frontalJob(8, 12));
    EXPECT_GT(h.unit.stats().stack_overflows, 0u);
}

} // namespace
