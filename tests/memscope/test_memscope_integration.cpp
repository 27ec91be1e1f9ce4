/**
 * @file
 * End-to-end memscope runs over real simulations: the traffic
 * conservation identity (checked every fetch in COOPRT_CHECK builds)
 * must also hold for the final totals in default builds, the RT-unit
 * side must agree with the fetch counters, and the folded node
 * heatmap and the JSON export must match their golden files byte
 * for byte.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/simulation.hpp"
#include "memscope/memscope.hpp"

namespace {

using namespace cooprt;

core::RunOutcome
runWithMemscope(memscope::Collector &mscope, const std::string &scene,
                int resolution, core::ShaderKind shader, bool coop)
{
    core::RunConfig cfg;
    cfg.resolution = resolution;
    cfg.shader = shader;
    cfg.gpu.trace.coop = coop;
    cfg.memscope = &mscope;
    return core::simulationFor(scene).run(cfg);
}

/** Every memscope table of run @p out ties out against the counters. */
void
expectConserves(const memscope::Collector &mscope,
                const core::RunOutcome &out)
{
    // Every L1 access is attributed to exactly one serving level, and
    // the L1-served count is exactly the L1 hit count.
    const auto &t = mscope.trafficConst();
    EXPECT_EQ(t.lineTotal(), out.gpu.l1.accesses);
    EXPECT_EQ(t.line_level[0], out.gpu.l1.hits);
    // The DRAM scope sees the same requests the DRAM model serves.
    EXPECT_EQ(mscope.dramConst().requests, out.gpu.dram.requests);
    EXPECT_EQ(mscope.dramConst().bytes, out.gpu.dram.bytes);
    EXPECT_EQ(mscope.dramConst().row_hits + mscope.dramConst().row_misses,
              out.gpu.dram.requests);
    // RT-unit side: one record per node/leaf fetch.
    const auto totals = mscope.nodeTotals();
    EXPECT_EQ(totals.accesses,
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
    // Reuse stacks see every L1/L2 access.
    std::uint64_t cold = 0, tracked = 0;
    std::array<std::uint64_t, memscope::kReuseBuckets> hist{};
    mscope.l1ReuseTotals(cold, tracked, hist);
    EXPECT_EQ(tracked, out.gpu.l1.accesses);
    EXPECT_EQ(mscope.l2ScopeConst().accesses(), out.gpu.l2.accesses);
    // Each reuse-stack access is cold or lands in one histogram
    // bucket.
    const auto histSum = [](const auto &h) {
        std::uint64_t n = 0;
        for (const std::uint64_t v : h)
            n += v;
        return n;
    };
    EXPECT_EQ(cold + histSum(hist), tracked);
    const auto &l2s = mscope.l2ScopeConst();
    EXPECT_EQ(l2s.cold() + histSum(l2s.hist()), l2s.accesses());
    EXPECT_LE(t.bank_conflicts, t.bank_requests);
    // The node tables tie out: every fetch has one serving level,
    // one depth row, one traversal phase and one SM row, and each
    // hot-node row is a slice of the total.
    EXPECT_EQ(histSum(totals.level), totals.accesses);
    std::uint64_t depth_accesses = 0, depth_bytes = 0;
    for (const auto &row : mscope.depthTotals()) {
        EXPECT_EQ(histSum(row.level), row.accesses);
        EXPECT_EQ(histSum(row.phase), row.accesses);
        depth_accesses += row.accesses;
        depth_bytes += row.bytes;
    }
    EXPECT_EQ(depth_accesses, totals.accesses);
    EXPECT_EQ(depth_bytes, totals.bytes);
    std::uint64_t unit_accesses = 0, unit_bytes = 0;
    for (int i = 0; i < mscope.unitCount(); ++i) {
        unit_accesses += mscope.unitAt(i).accesses;
        unit_bytes += mscope.unitAt(i).bytes;
    }
    EXPECT_EQ(unit_accesses, totals.accesses);
    EXPECT_EQ(unit_bytes, totals.bytes);
    for (const auto &h : mscope.hotNodes(32)) {
        EXPECT_EQ(histSum(h.c.level), h.c.accesses) << "node " << h.node;
        EXPECT_LE(h.c.accesses, totals.accesses) << "node " << h.node;
    }
    // The summary mirrors the live counters.
    const auto s = out.gpu.memscope_summary;
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.node_accesses, totals.accesses);
    EXPECT_EQ(s.traffic.lineTotal(), out.gpu.l1.accesses);
}

TEST(MemscopeIntegration, TrafficConservesAgainstCacheCounters)
{
    memscope::Collector mscope;
    const auto out = runWithMemscope(
        mscope, "wknd", 32, core::ShaderKind::PathTracing, false);
    expectConserves(mscope, out);
}

TEST(MemscopeIntegration, CoopRunConservesToo)
{
    // The steal path attributes depth, phase and SM rows too.
    memscope::Collector mscope;
    const auto out = runWithMemscope(
        mscope, "bunny", 24, core::ShaderKind::AmbientOcclusion, true);
    EXPECT_GT(out.gpu.rt.steals, 0u);
    expectConserves(mscope, out);
}

TEST(MemscopeIntegration, CollectorIsReusableAcrossRuns)
{
    // exec reuses per-job collectors only within a job, but the Gpu
    // resets an attached collector at run start — two runs through
    // one collector must match a fresh collector's totals.
    memscope::Collector twice;
    runWithMemscope(twice, "wknd", 32, core::ShaderKind::PathTracing,
                    false);
    const auto first = twice.nodeTotals();
    runWithMemscope(twice, "wknd", 32, core::ShaderKind::PathTracing,
                    false);
    EXPECT_EQ(twice.nodeTotals().accesses, first.accesses);
    EXPECT_EQ(twice.nodeTotals().bytes, first.bytes);
}

/** Contents of golden file @p name, or "" when it is missing. */
std::string
readGolden(const std::string &name)
{
    const std::string path =
        std::string(COOPRT_MEMSCOPE_GOLDEN_DIR) + "/" + name;
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "missing golden file " << path;
    std::ostringstream want;
    want << is.rdbuf();
    return want.str();
}

TEST(MemscopeIntegration, FoldedHeatmapMatchesGolden)
{
    memscope::Collector mscope;
    runWithMemscope(mscope, "wknd", 32, core::ShaderKind::PathTracing,
                    false);
    std::ostringstream got;
    mscope.writeFolded(got, "wknd");
    EXPECT_EQ(got.str(), readGolden("wknd_pt32.folded"))
        << "folded node heatmap drifted from its golden file"
        << " — re-pin only with an explicit model change";
}

TEST(MemscopeIntegration, JsonMatchesGolden)
{
    // The same run as the folded golden, through every JSON section:
    // node totals, depth rows, hot nodes, reuse, interconnect, DRAM
    // and the per-SM rows.
    memscope::Collector mscope;
    runWithMemscope(mscope, "wknd", 32, core::ShaderKind::PathTracing,
                    false);
    std::ostringstream got;
    mscope.writeJson(got, "wknd");
    EXPECT_EQ(got.str(), readGolden("wknd_pt32.memscope.json"))
        << "memscope JSON drifted from its golden file"
        << " — re-pin only with an explicit model change";
}

} // namespace
