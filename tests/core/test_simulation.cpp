/**
 * @file
 * End-to-end integration tests of the top-level Simulation API on the
 * registry scenes — small resolutions so the suite stays fast.
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace {

using namespace cooprt;
using core::Comparison;
using core::RunConfig;
using core::RunOutcome;
using core::ShaderKind;
using core::Simulation;

RunConfig
smallCfg(int res = 16)
{
    RunConfig c;
    c.resolution = res;
    c.gpu = gpu::GpuConfig::rtx2060Bench();
    return c;
}

TEST(Simulation, PathTracingRunsOnRegistryScene)
{
    const Simulation &sim = core::simulationFor("wknd");
    RunOutcome r = sim.run(smallCfg());
    EXPECT_EQ(r.scene, "wknd");
    EXPECT_EQ(r.resolution, 16);
    EXPECT_GT(r.gpu.cycles, 0u);
    EXPECT_GT(r.gpu.rt.retired_warps, 0u);
    EXPECT_GT(r.power.totalJoules(), 0.0);
}

TEST(Simulation, SimulationForCachesInstances)
{
    const Simulation &a = core::simulationFor("wknd");
    const Simulation &b = core::simulationFor("wknd");
    EXPECT_EQ(&a, &b);
}

TEST(Simulation, TreeStatsExposed)
{
    const Simulation &sim = core::simulationFor("wknd");
    auto s = sim.treeStats();
    EXPECT_GT(s.triangles, 100u);
    EXPECT_GT(s.max_depth, 2);
    EXPECT_GT(s.sizeMiB(), 0.0);
}

TEST(Simulation, DefaultResolutionFromScene)
{
    const Simulation &sim = core::simulationFor("wknd");
    RunConfig c;
    c.resolution = 0;
    // Keep this cheap: small frame via explicit override instead.
    c.resolution = 8;
    RunOutcome r = sim.run(c);
    EXPECT_EQ(r.resolution, 8);
}

TEST(Simulation, Deterministic)
{
    const Simulation &sim = core::simulationFor("wknd");
    RunOutcome a = sim.run(smallCfg());
    RunOutcome b = sim.run(smallCfg());
    EXPECT_EQ(a.gpu.cycles, b.gpu.cycles);
    EXPECT_EQ(a.gpu.rt.node_fetches, b.gpu.rt.node_fetches);
}

TEST(Simulation, CoopSpeedsUpDivergentScene)
{
    Comparison cmp = core::compareCoop("crnvl", smallCfg());
    EXPECT_GT(cmp.speedup(), 1.2);
    EXPECT_GT(cmp.coop.gpu.rt.steals, 0u);
    // Utilization improves (Fig. 10).
    EXPECT_GT(cmp.coop.gpu.avg_thread_utilization,
              cmp.base.gpu.avg_thread_utilization);
}

TEST(Simulation, CoopRaisesPowerLowersEdp)
{
    Comparison cmp = core::compareCoop("crnvl", smallCfg());
    EXPECT_GT(cmp.powerRatio(), 1.0);
    EXPECT_GT(cmp.edpImprovement(), 1.0);
}

TEST(Simulation, AoShaderRuns)
{
    const Simulation &sim = core::simulationFor("wknd");
    RunConfig c = smallCfg();
    c.shader = ShaderKind::AmbientOcclusion;
    RunOutcome r = sim.run(c);
    EXPECT_GT(r.gpu.rt.retired_warps, 0u);
}

TEST(Simulation, ShadowShaderRuns)
{
    const Simulation &sim = core::simulationFor("wknd");
    RunConfig c = smallCfg();
    c.shader = ShaderKind::Shadow;
    RunOutcome r = sim.run(c);
    EXPECT_GT(r.gpu.rt.retired_warps, 0u);
}

TEST(Simulation, FilmOutputFilled)
{
    const Simulation &sim = core::simulationFor("wknd");
    shaders::Film film(16, 16);
    sim.run(smallCfg(16), &film);
    EXPECT_EQ(film.samplesAdded(), 256u);
    EXPECT_GT(film.averageLuminance(), 0.0);
}

TEST(Simulation, TimelineRecorded)
{
    const Simulation &sim = core::simulationFor("bath");
    raytrace::RecorderConfig rcfg;
    rcfg.sample_k = rtunit::kWarpSize;
    rcfg.max_warps_per_unit = 1;
    rcfg.lane_timeline = true;
    raytrace::Recorder ray(rcfg);
    RunConfig c = smallCfg(16);
    c.gpu.trace.coop = true;
    c.ray_recorder = &ray;
    sim.run(c);
    const raytrace::WarpRecord *warp = ray.warps().front();
    ASSERT_EQ(warp->sm, 0);
    const stats::TimelineRecorder rec = raytrace::laneTimeline(*warp);
    std::uint64_t busy = 0;
    for (int t = 0; t < rtunit::kWarpSize; ++t)
        busy += rec.busyCycles(t);
    EXPECT_GT(busy, 0u);
}

TEST(Simulation, WarpBufferSweepBaselineMonotoneIsh)
{
    // Fig. 13 baseline trend at miniature scale: 16-entry buffer is
    // not slower than 1-entry.
    const Simulation &sim = core::simulationFor("bath");
    RunConfig c = smallCfg(16);
    c.gpu.trace.warp_buffer_entries = 1;
    RunOutcome small = sim.run(c);
    c.gpu.trace.warp_buffer_entries = 16;
    RunOutcome large = sim.run(c);
    EXPECT_LE(large.gpu.cycles, small.gpu.cycles);
}

TEST(Simulation, MobileConfigRuns)
{
    const Simulation &sim = core::simulationFor("wknd");
    RunConfig c = smallCfg(16);
    c.gpu = gpu::GpuConfig::mobileBench();
    RunOutcome r = sim.run(c);
    EXPECT_GT(r.gpu.cycles, 0u);
    EXPECT_GT(r.gpu.dram_utilization, 0.0);
}

} // namespace
