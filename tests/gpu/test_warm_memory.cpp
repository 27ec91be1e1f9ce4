/**
 * @file
 * Tests for multi-pass execution with warm memory state (used by the
 * per-bounce compaction scheduler).
 */

#include <gtest/gtest.h>

#include "bvh/wide_bvh.hpp"
#include "gpu_test_util.hpp"

namespace {

using namespace cooprt;
using testutil::divergentJob;
using testutil::ScriptedProgram;
using testutil::tinyGpu;

scene::Mesh
soup(std::uint64_t seed, int n)
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

TEST(WarmMemory, SecondPassIsFasterOnSameWorkingSet)
{
    scene::Mesh mesh = soup(1, 2000);
    bvh::FlatBvh flat(bvh::buildWideBvh(mesh));
    gpu::Gpu g(flat, mesh, tinyGpu());

    geom::Pcg32 rng(2);
    auto job = divergentJob(rng);

    ScriptedProgram p1({job});
    std::vector<gpu::WarpProgram *> v1{&p1};
    const auto cold = g.run(v1);

    ScriptedProgram p2({job});
    std::vector<gpu::WarpProgram *> v2{&p2};
    const auto warm = g.run(v2, /*warm_memory=*/true);

    EXPECT_LT(warm.cycles, cold.cycles);
    EXPECT_LT(warm.dram.requests, cold.dram.requests);
}

TEST(WarmMemory, ColdRunsAreReproducible)
{
    scene::Mesh mesh = soup(3, 1500);
    bvh::FlatBvh flat(bvh::buildWideBvh(mesh));
    gpu::Gpu g(flat, mesh, tinyGpu());

    geom::Pcg32 rng(4);
    auto job = divergentJob(rng);

    std::uint64_t cycles[3];
    for (int i = 0; i < 3; ++i) {
        ScriptedProgram p({job});
        std::vector<gpu::WarpProgram *> v{&p};
        cycles[i] = g.run(v).cycles; // default: cold every time
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(cycles[1], cycles[2]);
}

TEST(WarmMemory, StatsRestartEachPass)
{
    scene::Mesh mesh = soup(5, 1000);
    bvh::FlatBvh flat(bvh::buildWideBvh(mesh));
    gpu::Gpu g(flat, mesh, tinyGpu());

    geom::Pcg32 rng(6);
    ScriptedProgram p1({divergentJob(rng)});
    std::vector<gpu::WarpProgram *> v1{&p1};
    const auto first = g.run(v1);
    ASSERT_GT(first.l1.accesses, 0u);

    ScriptedProgram p2({divergentJob(rng)});
    std::vector<gpu::WarpProgram *> v2{&p2};
    const auto second = g.run(v2, true);
    // Second pass reports only its own accesses, not cumulative.
    EXPECT_LT(second.l1.accesses, 2 * first.l1.accesses);
    EXPECT_GT(second.l1.accesses, 0u);
}

} // namespace
