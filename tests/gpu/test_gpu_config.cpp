/**
 * @file
 * Tests that the named GPU configurations encode the paper's Table 1
 * and Section 7.4, and that the bench-scaled variants preserve the
 * per-SM compute : memory ratios.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bvh/traversal.hpp"
#include "gpu/gpu.hpp"
#include "gpu/gpu_config.hpp"

namespace {

using cooprt::gpu::GpuConfig;

TEST(GpuConfigTable1, Rtx2060MatchesPaper)
{
    GpuConfig c = GpuConfig::rtx2060();
    EXPECT_EQ(c.num_sms, 30);             // # SMs
    EXPECT_EQ(c.max_warps_per_sm, 32);    // max TBs per SM
    EXPECT_EQ(c.trace.warp_buffer_entries, 4); // RT warp buffer
    EXPECT_FALSE(c.trace.coop);           // baseline by default

    // L1: 64 KB fully associative LRU, 20 cycles.
    EXPECT_EQ(c.mem.l1.size_bytes, 64u * 1024);
    EXPECT_EQ(c.mem.l1.assoc, 0u);
    EXPECT_EQ(c.mem.l1.latency, 20u);

    // L2: 3 MB, 16-way LRU, 160 cycles.
    EXPECT_EQ(c.mem.l2.size_bytes, 3u * 1024 * 1024);
    EXPECT_EQ(c.mem.l2.assoc, 16u);
    EXPECT_EQ(c.mem.l2.latency, 160u);

    EXPECT_EQ(c.mem.dram.channels, 6u);
    EXPECT_EQ(c.num_sms, c.mem.num_sms);
}

TEST(GpuConfigTable1, BenchVariantPreservesPerSmRatios)
{
    GpuConfig full = GpuConfig::rtx2060();
    GpuConfig bench = GpuConfig::rtx2060Bench();

    // Same per-SM L1 and the same L2 latency model.
    EXPECT_EQ(bench.mem.l1.size_bytes, full.mem.l1.size_bytes);
    EXPECT_EQ(bench.mem.l2.latency, full.mem.l2.latency);

    // L2 capacity per SM and DRAM bandwidth per SM within 10 %.
    const double l2_per_sm_full =
        double(full.mem.l2.size_bytes) / full.num_sms;
    const double l2_per_sm_bench =
        double(bench.mem.l2.size_bytes) / bench.num_sms;
    EXPECT_NEAR(l2_per_sm_bench / l2_per_sm_full, 1.0, 0.10);

    const double bw_full = full.mem.dram.channels *
                           full.mem.dram.bytes_per_cycle /
                           full.num_sms;
    const double bw_bench = bench.mem.dram.channels *
                            bench.mem.dram.bytes_per_cycle /
                            bench.num_sms;
    EXPECT_NEAR(bw_bench / bw_full, 1.0, 0.10);
}

TEST(GpuConfigTable1, MobileMatchesSection74)
{
    GpuConfig m = GpuConfig::mobileBench();
    // Paper Section 7.4: 8 SMs and 4 memory channels; the bench
    // variant scales SMs but keeps the 4 channels.
    EXPECT_EQ(m.mem.dram.channels, 4u);
    EXPECT_LT(m.num_sms, GpuConfig::rtx2060Bench().num_sms);
    // Less bandwidth per channel than the desktop part.
    EXPECT_LT(m.mem.dram.bytes_per_cycle,
              GpuConfig::rtx2060().mem.dram.bytes_per_cycle);
}

TEST(GpuConfigTable1, MobileIsBandwidthPoorerPerSm)
{
    GpuConfig desk = GpuConfig::rtx2060Bench();
    GpuConfig mob = GpuConfig::mobileBench();
    const double desk_bw = desk.mem.dram.channels *
                           desk.mem.dram.bytes_per_cycle /
                           desk.num_sms;
    const double mob_bw = mob.mem.dram.channels *
                          mob.mem.dram.bytes_per_cycle / mob.num_sms;
    EXPECT_LT(mob_bw, desk_bw);
}

TEST(GpuConfigTable1, SampleIntervalMatchesAerialVision)
{
    // Paper Section 7.1: stats collected every 500 GPU cycles.
    EXPECT_EQ(GpuConfig().sample_interval, 500u);
}

TEST(GpuConfig, ZeroSampleIntervalThrows)
{
    // A zero interval never moves the sampling boundary past the
    // cycle, so a run would spin forever; the Gpu refuses it.
    using namespace cooprt;
    scene::Mesh mesh;
    mesh.addTriangle({geom::Vec3(0), geom::Vec3(1, 0, 0),
                      geom::Vec3(0, 1, 0)});
    const bvh::FlatBvh flat(bvh::buildWideBvh(mesh));
    GpuConfig c;
    c.sample_interval = 0;
    EXPECT_THROW(gpu::Gpu(flat, mesh, c), std::invalid_argument);
}

} // namespace
