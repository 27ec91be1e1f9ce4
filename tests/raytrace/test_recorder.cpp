/**
 * @file
 * Unit tests for the ray-provenance recorder: deterministic seed-
 * derived sampling, per-ray lifecycle conservation and steal
 * accounting (the Fig. 11 lane-timeline replay is pinned by the
 * golden in test_golden.cpp).
 */

#include <gtest/gtest.h>

#include "raytrace/raytrace.hpp"

#include "../rtunit/rtunit_test_util.hpp"

namespace {

using namespace cooprt;
using raytrace::EventKind;
using raytrace::RecorderConfig;
using raytrace::UnitRecorder;
using raytrace::WarpRecord;
using rtunit::TraceConfig;
using testutil::RtHarness;

/** Run one frontal warp with @p rcfg attached and return the unit
 *  recorder (moved out via the harness-owned copy's records). */
struct RecordedRun
{
    RecorderConfig cfg;
    UnitRecorder rec;
    rtunit::TraceResult result;

    RecordedRun(const RecorderConfig &rcfg, const TraceConfig &tcfg,
                int rays = rtunit::kWarpSize,
                std::uint64_t soup_seed = 8, int soup_n = 2000)
        : cfg(rcfg), rec(0, &cfg)
    {
        RtHarness h(testutil::makeSoup(soup_seed, soup_n), tcfg);
        h.unit.attachObservers({&rec}, nullptr);
        result = h.runOne(testutil::frontalJob(rays));
    }
};

TEST(UnitRecorder, SamplingIsBitStableAcrossRecorders)
{
    RecorderConfig rcfg;
    rcfg.sample_k = 4;
    TraceConfig coop;
    coop.coop = true;

    RecordedRun a(rcfg, coop);
    RecordedRun b(rcfg, coop);

    ASSERT_EQ(a.rec.warps().size(), 1u);
    ASSERT_EQ(b.rec.warps().size(), 1u);
    const WarpRecord &wa = a.rec.warps()[0];
    const WarpRecord &wb = b.rec.warps()[0];
    EXPECT_EQ(wa.sampled_mask, wb.sampled_mask);
    EXPECT_EQ(wa.active_mask, wb.active_mask);
    ASSERT_EQ(wa.rays.size(), wb.rays.size());
    for (std::size_t r = 0; r < wa.rays.size(); ++r) {
        const auto &ra = wa.rays[r];
        const auto &rb = wb.rays[r];
        EXPECT_EQ(ra.lane, rb.lane);
        ASSERT_EQ(ra.events.size(), rb.events.size());
        for (std::size_t e = 0; e < ra.events.size(); ++e) {
            EXPECT_EQ(ra.events[e].cycle, rb.events[e].cycle);
            EXPECT_EQ(ra.events[e].kind, rb.events[e].kind);
            EXPECT_EQ(ra.events[e].lane, rb.events[e].lane);
            EXPECT_EQ(ra.events[e].value, rb.events[e].value);
            EXPECT_EQ(ra.events[e].aux, rb.events[e].aux);
        }
    }
    EXPECT_EQ(a.rec.stats().events_recorded,
              b.rec.stats().events_recorded);
}

TEST(UnitRecorder, SampleKBoundsRaysAndSeedMovesTheChoice)
{
    RecorderConfig rcfg;
    rcfg.sample_k = 4;
    RecordedRun a(rcfg, TraceConfig{});
    ASSERT_EQ(a.rec.warps().size(), 1u);
    const WarpRecord &wa = a.rec.warps()[0];
    EXPECT_EQ(wa.rays.size(), 4u);
    EXPECT_EQ(wa.sampled_mask & ~wa.active_mask, 0u)
        << "sampled a lane that was not active";
    // One record per sampled lane: each ray's lane is in the mask,
    // and no lane is recorded twice.
    std::uint32_t seen = 0;
    for (const auto &r : wa.rays) {
        const std::uint32_t bit = 1u << r.lane;
        EXPECT_NE(wa.sampled_mask & bit, 0u) << "lane " << int(r.lane);
        EXPECT_EQ(seen & bit, 0u) << "lane " << int(r.lane) << " twice";
        seen |= bit;
    }
    EXPECT_EQ(seen, wa.sampled_mask);

    RecorderConfig other = rcfg;
    other.seed = 0xdeadbeefu;
    RecordedRun b(other, TraceConfig{});
    ASSERT_EQ(b.rec.warps().size(), 1u);
    EXPECT_NE(wa.sampled_mask, b.rec.warps()[0].sampled_mask)
        << "lane choice must be seed-derived";
}

TEST(UnitRecorder, LifecycleConservation)
{
    for (const bool coop : {false, true}) {
        RecorderConfig rcfg;
        rcfg.sample_k = raytrace::kLanes;
        TraceConfig tcfg;
        tcfg.coop = coop;
        RecordedRun run(rcfg, tcfg);
        ASSERT_EQ(run.rec.warps().size(), 1u);
        EXPECT_EQ(run.rec.stats().warps_sampled, 1u);
        const WarpRecord &w = run.rec.warps()[0];
        EXPECT_TRUE(w.retired);
        EXPECT_EQ(run.rec.stats().rays_sampled, w.rays.size());
        for (const auto &r : w.rays) {
            EXPECT_LE(r.launch_cycle, r.retire_cycle)
                << "lane " << int(r.lane) << " coop=" << coop;
            // Every stack entry a ray ever owned (its root plus its
            // pushes) is eventually popped — by its own lane or by a
            // helper — exactly once, so the owner-keyed live count
            // drains to zero by retirement.
            EXPECT_EQ(r.live_entries, 0)
                << "lane " << int(r.lane) << " coop=" << coop;
            EXPECT_GT(r.events.size(), 0u);
            EXPECT_EQ(r.events.front().kind, EventKind::Launch);
            EXPECT_EQ(r.events.back().kind, EventKind::Retire);
            std::uint64_t prev = 0;
            for (const auto &ev : r.events) {
                EXPECT_GE(ev.cycle, prev);
                prev = ev.cycle;
            }
            EXPECT_EQ(r.stats.node_visits,
                      r.stats.level_hist[0] + r.stats.level_hist[1] +
                          r.stats.level_hist[2]);
        }
    }
}

TEST(UnitRecorder, StealAccountingBalances)
{
    RecorderConfig rcfg;
    rcfg.sample_k = raytrace::kLanes;
    TraceConfig coop;
    coop.coop = true;
    RecordedRun run(rcfg, coop);
    ASSERT_EQ(run.rec.warps().size(), 1u);
    const WarpRecord &w = run.rec.warps()[0];

    std::uint64_t in = 0, out = 0, ev_donated = 0, ev_received = 0;
    for (const auto &r : w.rays) {
        in += r.stats.steals_in;
        out += r.stats.steals_out;
        for (const auto &ev : r.events) {
            if (ev.kind == EventKind::StealDonated)
                ev_donated++;
            if (ev.kind == EventKind::StealReceived)
                ev_received++;
        }
    }
    EXPECT_GT(out, 0u) << "coop warp produced no steals";
    // All lanes are sampled, so both sides of every steal are logged.
    EXPECT_EQ(in, out);
    EXPECT_EQ(ev_donated, out);
    EXPECT_EQ(ev_received, in);
    EXPECT_EQ(run.rec.stats().steal_events, out);
}

TEST(UnitRecorder, WarpSkipAndPerUnitCap)
{
    RecorderConfig rcfg;
    rcfg.sample_k = 2;
    rcfg.warp_skip = 1;
    rcfg.max_warps_per_unit = 1;
    UnitRecorder rec(0, &rcfg);
    RtHarness h(testutil::makeSoup(8, 500), TraceConfig{});
    h.unit.attachObservers({&rec}, nullptr);
    for (int i = 0; i < 3; ++i)
        h.runOne(testutil::frontalJob(rtunit::kWarpSize));

    EXPECT_EQ(rec.stats().warps_seen, 3u);
    EXPECT_EQ(rec.stats().warps_sampled, 1u);
    ASSERT_EQ(rec.warps().size(), 1u);
    EXPECT_EQ(rec.warps()[0].ordinal, 1u) << "must skip warp 0";
}

TEST(UnitRecorder, SetWarpIdSurvivesInstantRetire)
{
    RecorderConfig rcfg;
    rcfg.sample_k = 2;
    UnitRecorder rec(0, &rcfg);
    RtHarness h(testutil::makeSoup(8, 500), TraceConfig{});
    h.unit.attachObservers({&rec}, nullptr);

    bool done = false;
    const int slot = h.unit.submit(
        testutil::frontalJob(rtunit::kWarpSize), h.now,
        [&](int, const rtunit::TraceResult &) { done = true; });
    h.drain([&] { return done; });
    // The SM names the record after submit() returns — by then the
    // warp may already have retired, but the record must keep it.
    rec.onWarpId(slot, 77);
    ASSERT_EQ(rec.warps().size(), 1u);
    EXPECT_EQ(rec.warps()[0].warp_id, 77);
}

TEST(UnitRecorder, ResetClearsEverything)
{
    RecorderConfig rcfg;
    rcfg.sample_k = 2;
    UnitRecorder rec(0, &rcfg);
    {
        RtHarness h(testutil::makeSoup(8, 500), TraceConfig{});
        h.unit.attachObservers({&rec}, nullptr);
        h.runOne(testutil::frontalJob(rtunit::kWarpSize));
    }
    EXPECT_GT(rec.stats().events_recorded, 0u);
    rec.reset();
    EXPECT_EQ(rec.warps().size(), 0u);
    EXPECT_EQ(rec.stats().events_recorded, 0u);
    EXPECT_EQ(rec.stats().warps_seen, 0u);
}

} // namespace
