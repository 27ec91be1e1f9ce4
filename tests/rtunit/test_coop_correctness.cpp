/**
 * @file
 * The paper's central functional claim, as a property test: "This
 * cooperative traversal is functionally correct, i.e., the closest-hit
 * primitive will be correctly identified" (Section 4.2). Every CoopRT
 * variant must return exactly the baseline/oracle closest hits.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "rtunit_test_util.hpp"
#include "scene/generators.hpp"

namespace {

using namespace cooprt;
using rtunit::kWarpSize;
using rtunit::TraceConfig;
using rtunit::TraceJob;
using rtunit::TraceResult;
using rtunit::TraversalOrder;
using testutil::makeSoup;
using testutil::RtHarness;

struct CoopCase
{
    std::uint64_t seed;
    int subwarp;
    int active_rays;
    bool steal_bottom;
    TraversalOrder order;
    bool conservative = false; ///< helper_requires_idle variant
};

std::string
caseName(const CoopCase &c)
{
    std::string s = "seed" + std::to_string(c.seed) + "_sw" +
                    std::to_string(c.subwarp) + "_rays" +
                    std::to_string(c.active_rays);
    s += c.steal_bottom ? "_bottom" : "_tos";
    s += c.order == TraversalOrder::Bfs ? "_bfs" : "_dfs";
    if (c.conservative)
        s += "_conservative";
    return s;
}

// gtest prints the parameter into the ctest name; without this it
// dumps the struct's raw bytes, padding included, which differ from
// build to build.
void PrintTo(const CoopCase &c, std::ostream *os) { *os << caseName(c); }

class CoopCorrectness : public ::testing::TestWithParam<CoopCase>
{};

TEST_P(CoopCorrectness, MatchesOracle)
{
    const CoopCase &p = GetParam();
    scene::Mesh mesh = makeSoup(p.seed, 2500);

    // Divergent job: rays with wildly different origins/directions so
    // traversal lengths differ and helpers engage.
    TraceJob job;
    geom::Pcg32 rng(p.seed * 17 + 1);
    for (int t = 0; t < p.active_rays; ++t) {
        geom::Vec3 o = rng.nextInBox(geom::Vec3(-25), geom::Vec3(25));
        geom::Vec3 target =
            rng.nextInBox(geom::Vec3(-9), geom::Vec3(9));
        if ((target - o).lengthSq() < 1e-6f)
            continue;
        job.rays[std::size_t(t)] = geom::Ray(o, normalize(target - o));
    }

    TraceConfig cfg;
    cfg.coop = true;
    cfg.subwarp_size = p.subwarp;
    cfg.steal_from_bottom = p.steal_bottom;
    cfg.order = p.order;
    cfg.helper_requires_idle = p.conservative;
    RtHarness h(mesh, cfg);
    TraceResult r = h.runOne(job);

    for (int t = 0; t < kWarpSize; ++t) {
        if (!job.rays[std::size_t(t)]) {
            EXPECT_FALSE(r.hits[std::size_t(t)].hit()) << t;
            continue;
        }
        auto ref = bvh::closestHit(h.flat, h.mesh,
                                   *job.rays[std::size_t(t)]);
        ASSERT_EQ(r.hits[std::size_t(t)].hit(), ref.hit())
            << "thread " << t;
        if (ref.hit()) {
            EXPECT_EQ(r.hits[std::size_t(t)].prim_id, ref.prim_id)
                << "thread " << t;
            EXPECT_FLOAT_EQ(r.hits[std::size_t(t)].thit, ref.thit)
                << "thread " << t;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoopCorrectness,
    ::testing::Values(
        CoopCase{101, 32, 1, false, TraversalOrder::Dfs},
        CoopCase{102, 32, 4, false, TraversalOrder::Dfs},
        CoopCase{103, 32, 16, false, TraversalOrder::Dfs},
        CoopCase{104, 32, 32, false, TraversalOrder::Dfs},
        CoopCase{105, 16, 8, false, TraversalOrder::Dfs},
        CoopCase{106, 8, 8, false, TraversalOrder::Dfs},
        CoopCase{107, 4, 8, false, TraversalOrder::Dfs},
        CoopCase{108, 4, 32, false, TraversalOrder::Dfs},
        CoopCase{109, 32, 8, true, TraversalOrder::Dfs},
        CoopCase{110, 8, 16, true, TraversalOrder::Dfs},
        CoopCase{111, 32, 8, false, TraversalOrder::Bfs},
        CoopCase{112, 4, 16, false, TraversalOrder::Bfs},
        CoopCase{113, 32, 32, true, TraversalOrder::Dfs},
        CoopCase{114, 16, 32, false, TraversalOrder::Bfs},
        CoopCase{115, 32, 1, false, TraversalOrder::Dfs, true},
        CoopCase{116, 8, 16, false, TraversalOrder::Dfs, true},
        CoopCase{117, 32, 32, true, TraversalOrder::Dfs, true}),
    [](const auto &info) { return caseName(info.param); });

/**
 * Coop vs baseline on a generated scene with materials and realistic
 * structure: identical per-thread hit results.
 */
TEST(CoopVsBaseline, IdenticalResultsOnGeneratedScene)
{
    scene::Scene s = scene::makeCarnivalScene("t", 55, 20, 10);
    geom::Pcg32 rng(56);

    for (int rep = 0; rep < 6; ++rep) {
        TraceJob job;
        for (int t = 0; t < kWarpSize; ++t) {
            geom::Vec3 o{rng.nextRange(-20, 20),
                         rng.nextRange(0.5f, 6.0f),
                         rng.nextRange(-20, 20)};
            job.rays[std::size_t(t)] =
                geom::Ray(o, rng.nextUnitVector());
        }

        RtHarness base(s.mesh, TraceConfig{});
        TraceResult rb = base.runOne(job);

        TraceConfig cc;
        cc.coop = true;
        RtHarness coop(s.mesh, cc);
        TraceResult rc = coop.runOne(job);

        for (int t = 0; t < kWarpSize; ++t) {
            ASSERT_EQ(rb.hits[std::size_t(t)].hit(),
                      rc.hits[std::size_t(t)].hit())
                << "rep " << rep << " thread " << t;
            if (rb.hits[std::size_t(t)].hit()) {
                EXPECT_EQ(rb.hits[std::size_t(t)].prim_id,
                          rc.hits[std::size_t(t)].prim_id);
                EXPECT_FLOAT_EQ(rb.hits[std::size_t(t)].thit,
                                rc.hits[std::size_t(t)].thit);
            }
        }
        // Coop must never be slower in this unlimited-bandwidth
        // harness.
        EXPECT_LE(rc.latency(), rb.latency()) << "rep " << rep;
    }
}

} // namespace
