/**
 * @file
 * Tests for the whole-GPU simulator: scheduling, completion,
 * statistics and the baseline-vs-CoopRT behaviour at GPU scope.
 */

#include <gtest/gtest.h>

#include "bvh/traversal.hpp"
#include "gpu_test_util.hpp"

namespace {

using namespace cooprt;
using gpu::Gpu;
using gpu::GpuRunResult;
using rtunit::kWarpSize;
using rtunit::TraceJob;
using testutil::divergentJob;
using testutil::ScriptedProgram;
using testutil::tinyGpu;

scene::Mesh
makeSoup(std::uint64_t seed, int n)
{
    scene::Mesh m;
    geom::Pcg32 rng(seed);
    for (int i = 0; i < n; ++i) {
        geom::Vec3 p = rng.nextInBox(geom::Vec3(-10), geom::Vec3(10));
        m.addTriangle({p, p + rng.nextUnitVector() * 0.5f,
                       p + rng.nextUnitVector() * 0.5f});
    }
    return m;
}

struct Fixture
{
    scene::Mesh mesh;
    bvh::FlatBvh flat;

    explicit Fixture(std::uint64_t seed = 1, int n = 2000)
        : mesh(makeSoup(seed, n)), flat(bvh::buildWideBvh(mesh))
    {}

    GpuRunResult
    run(const gpu::GpuConfig &cfg,
        std::vector<ScriptedProgram> &programs,
        raytrace::Recorder *ray = nullptr)
    {
        Gpu g(flat, mesh, cfg);
        g.setRayTrace(ray);
        std::vector<gpu::WarpProgram *> ptrs;
        for (auto &p : programs)
            ptrs.push_back(&p);
        return g.run(ptrs);
    }

    std::vector<ScriptedProgram>
    makePrograms(int warps, int traces_per_warp, std::uint64_t seed)
    {
        geom::Pcg32 rng(seed);
        std::vector<ScriptedProgram> out;
        for (int w = 0; w < warps; ++w) {
            std::vector<TraceJob> jobs;
            for (int k = 0; k < traces_per_warp; ++k)
                jobs.push_back(divergentJob(rng));
            out.emplace_back(std::move(jobs));
        }
        return out;
    }
};

TEST(Gpu, RunsToCompletionAndCountsWarps)
{
    Fixture f;
    auto programs = f.makePrograms(8, 2, 7);
    GpuRunResult r = f.run(tinyGpu(), programs);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.completions.size(), 8u);
    EXPECT_EQ(r.rt.retired_warps, 16u); // 8 warps x 2 traces
    for (auto &p : programs)
        EXPECT_EQ(p.results.size(), 2u);
}

TEST(Gpu, ResultsMatchOracle)
{
    Fixture f(3, 1500);
    geom::Pcg32 rng(11);
    std::vector<TraceJob> jobs{divergentJob(rng), divergentJob(rng)};
    std::vector<ScriptedProgram> programs;
    programs.emplace_back(jobs);
    GpuRunResult r = f.run(tinyGpu(), programs);
    ASSERT_EQ(programs[0].results.size(), 2u);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        for (int t = 0; t < kWarpSize; ++t) {
            if (!jobs[k].rays[std::size_t(t)])
                continue;
            auto ref = bvh::closestHit(f.flat, f.mesh,
                                       *jobs[k].rays[std::size_t(t)]);
            const auto &got =
                programs[0].results[k].hits[std::size_t(t)];
            ASSERT_EQ(got.hit(), ref.hit()) << k << "/" << t;
            if (ref.hit()) {
                EXPECT_FLOAT_EQ(got.thit, ref.thit) << k << "/" << t;
            }
        }
    }
    (void)r;
}

TEST(Gpu, DeterministicAcrossRuns)
{
    Fixture f;
    auto p1 = f.makePrograms(6, 2, 21);
    auto p2 = f.makePrograms(6, 2, 21);
    GpuRunResult r1 = f.run(tinyGpu(), p1);
    GpuRunResult r2 = f.run(tinyGpu(), p2);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.rt.node_fetches, r2.rt.node_fetches);
    EXPECT_EQ(r1.dram.bytes, r2.dram.bytes);
}

TEST(Gpu, CoopFasterOnDivergentWork)
{
    Fixture f(5, 3000);
    // Very divergent: only 2 active rays per warp, long traversals.
    geom::Pcg32 rng(31);
    std::vector<ScriptedProgram> base_progs, coop_progs;
    for (int w = 0; w < 8; ++w) {
        std::vector<TraceJob> jobs{divergentJob(rng, 2)};
        base_progs.emplace_back(jobs);
        coop_progs.emplace_back(jobs);
    }
    GpuRunResult rb = f.run(tinyGpu(false), base_progs);
    GpuRunResult rc = f.run(tinyGpu(true), coop_progs);
    EXPECT_LT(rc.cycles, rb.cycles);
    EXPECT_GT(rc.rt.steals, 0u);
    // Utilization must improve (Fig. 10's causal story).
    EXPECT_GT(rc.avg_thread_utilization, rb.avg_thread_utilization);
}

TEST(Gpu, StallBreakdownPopulated)
{
    Fixture f;
    auto programs = f.makePrograms(4, 2, 41);
    GpuRunResult r = f.run(tinyGpu(), programs);
    EXPECT_GT(r.stalls.rt, 0u);
    EXPECT_GT(r.stalls.alu, 0u);
    EXPECT_GT(r.stalls.sfu, 0u);
    EXPECT_GT(r.stalls.mem, 0u);
    // trace_ray dominates (the paper's Fig. 1 observation).
    EXPECT_GT(r.stalls.rt, r.stalls.alu + r.stalls.sfu + r.stalls.mem);
}

TEST(Gpu, MemoryStatsPopulated)
{
    Fixture f;
    auto programs = f.makePrograms(4, 1, 51);
    GpuRunResult r = f.run(tinyGpu(), programs);
    EXPECT_GT(r.l1.accesses, 0u);
    EXPECT_GT(r.l2.accesses, 0u);
    EXPECT_GT(r.dram.requests, 0u);
    EXPECT_GT(r.mem_sys.l2_bytes, 0u);
    EXPECT_GT(r.dram_utilization, 0.0);
    EXPECT_LE(r.dram_utilization, 1.0);
    EXPECT_GT(r.l2BytesPerCycle(), 0.0);
    EXPECT_GT(r.dramBytesPerCycle(), 0.0);
}

TEST(Gpu, UtilizationSeriesSane)
{
    Fixture f;
    auto programs = f.makePrograms(8, 3, 61);
    gpu::GpuConfig cfg = tinyGpu();
    cfg.sample_interval = 100;
    GpuRunResult r = f.run(cfg, programs);
    EXPECT_FALSE(r.utilization_series.empty());
    for (double u : r.utilization_series) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_GT(r.avg_thread_utilization, 0.0);
    EXPECT_LE(r.avg_thread_utilization, 1.0);
    // Profiling is off by default: the summary stays disabled/zero.
    EXPECT_FALSE(r.prof_summary.enabled);
    EXPECT_EQ(r.prof_summary.threads.total(), 0u);
}

TEST(Gpu, ProfilerConservationAndBitIdenticalTiming)
{
    Fixture f;
    auto p1 = f.makePrograms(8, 3, 91);
    auto p2 = f.makePrograms(8, 3, 91);
    GpuRunResult plain = f.run(tinyGpu(), p1);

    prof::Profiler profiler;
    Gpu g(f.flat, f.mesh, tinyGpu());
    g.setProf(&profiler);
    std::vector<gpu::WarpProgram *> ptrs;
    for (auto &p : p2)
        ptrs.push_back(&p);
    GpuRunResult r = g.run(ptrs);

    // Attaching the profiler must not change timing at all.
    EXPECT_EQ(r.cycles, plain.cycles);
    EXPECT_EQ(r.rt.node_fetches, plain.rt.node_fetches);
    EXPECT_EQ(r.stalls.rt, plain.stalls.rt);

    // Conservation: every warp-resident cycle lands in exactly one
    // bucket, so the bucket sum equals the aggregated trace latency
    // and, with the SM-side warp-buffer waits added, stalls.rt.
    ASSERT_TRUE(r.prof_summary.enabled);
    EXPECT_EQ(r.prof_summary.resident_cycles,
              r.rt.retired_trace_latency);
    std::uint64_t resident_sum = 0;
    for (int b = 0; b < prof::kNumBuckets; ++b)
        if (prof::Bucket(b) != prof::Bucket::WarpBufferFull)
            resident_sum += r.prof_summary.buckets[std::size_t(b)];
    EXPECT_EQ(resident_sum, r.prof_summary.resident_cycles);
    EXPECT_EQ(r.prof_summary.rtStallCycles(), r.stalls.rt);
    EXPECT_GT(r.prof_summary.of(prof::Bucket::IssueCompute), 0u);
    EXPECT_GT(r.prof_summary.threads.total(), 0u);
}

TEST(Gpu, MoreWarpsThanBufferStillComplete)
{
    Fixture f;
    auto programs = f.makePrograms(24, 2, 71); // 12 per SM, buffer 4
    GpuRunResult r = f.run(tinyGpu(), programs);
    EXPECT_EQ(r.completions.size(), 24u);
    EXPECT_EQ(r.rt.retired_warps, 48u);
}

TEST(Gpu, ResidencyLimitRespected)
{
    Fixture f;
    gpu::GpuConfig cfg = tinyGpu();
    cfg.max_warps_per_sm = 1; // serialize each SM
    auto programs = f.makePrograms(6, 1, 81);
    GpuRunResult serial = f.run(cfg, programs);

    auto programs2 = f.makePrograms(6, 1, 81);
    GpuRunResult parallel = f.run(tinyGpu(), programs2);
    EXPECT_EQ(serial.completions.size(), 6u);
    EXPECT_GE(serial.cycles, parallel.cycles);
}

TEST(Gpu, SlowestWarpLatencyIsMax)
{
    Fixture f;
    auto programs = f.makePrograms(5, 2, 91);
    GpuRunResult r = f.run(tinyGpu(), programs);
    std::uint64_t expect = 0;
    for (const auto &c : r.completions)
        expect = std::max(expect, c.latency());
    EXPECT_EQ(r.slowestWarpLatency(), expect);
    EXPECT_GT(expect, 0u);
}

TEST(Gpu, LargerWarpBufferHelpsBaselineThroughput)
{
    Fixture f(9, 2500);
    auto p4 = f.makePrograms(16, 2, 95);
    auto p16 = f.makePrograms(16, 2, 95);

    gpu::GpuConfig small = tinyGpu();
    small.trace.warp_buffer_entries = 1;
    gpu::GpuConfig big = tinyGpu();
    big.trace.warp_buffer_entries = 8;

    GpuRunResult rs = f.run(small, p4);
    GpuRunResult rb = f.run(big, p16);
    EXPECT_LT(rb.cycles, rs.cycles); // Fig. 13 baseline trend
}

TEST(Gpu, TimelineRecorderThroughGpuRun)
{
    Fixture f;
    auto programs = f.makePrograms(4, 1, 99);
    raytrace::RecorderConfig rcfg;
    rcfg.sample_k = kWarpSize;
    rcfg.max_warps_per_unit = 1;
    rcfg.lane_timeline = true;
    raytrace::Recorder ray(rcfg);
    f.run(tinyGpu(true), programs, &ray);
    const raytrace::WarpRecord *warp = ray.warps().front();
    ASSERT_EQ(warp->sm, 0);
    const stats::TimelineRecorder rec = raytrace::laneTimeline(*warp);
    std::uint64_t busy = 0;
    for (int t = 0; t < kWarpSize; ++t)
        busy += rec.busyCycles(t);
    EXPECT_GT(busy, 0u);
}

TEST(Gpu, MismatchedSmCountThrows)
{
    Fixture f;
    gpu::GpuConfig cfg = tinyGpu();
    cfg.num_sms = 3; // mem.num_sms still 2
    EXPECT_THROW(Gpu(f.flat, f.mesh, cfg), std::invalid_argument);
}

TEST(Gpu, EmptyProgramListFinishesInstantly)
{
    Fixture f;
    Gpu g(f.flat, f.mesh, tinyGpu());
    GpuRunResult r = g.run({});
    EXPECT_EQ(r.completions.size(), 0u);
    EXPECT_EQ(r.rt.retired_warps, 0u);
}

} // namespace
