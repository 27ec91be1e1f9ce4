/**
 * @file
 * Collector-level tests: node/depth accumulation, hot-node ranking,
 * the summary roll-up, registry probes and the deterministic export
 * views (folded stacks, JSON).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "memscope/memscope.hpp"
#include "trace/registry.hpp"

namespace {

using namespace cooprt;

TEST(MemscopeCollector, UnitScopeAccumulatesNodeAndDepthRows)
{
    // A unit keeps only its own counts; the rows land in the
    // collector's GPU-wide node and depth tables.
    memscope::Collector c;
    memscope::UnitScope &unit = c.unit(0);
    unit.record(/*node_id=*/5, /*depth=*/3, /*level=*/1, /*lanes=*/4,
                /*phase=*/1, /*bytes=*/128);
    unit.record(5, 3, 0, 2, 1, 128);
    unit.record(2, 1, 2, 32, 0, 64);

    EXPECT_EQ(unit.accesses, 3u);
    EXPECT_EQ(unit.bytes, 320u);
    const auto hot = c.hotNodes(8); // every touched node row
    ASSERT_EQ(hot.size(), 2u);
    ASSERT_EQ(hot[0].node, 5u);
    EXPECT_EQ(hot[0].c.accesses, 2u);
    EXPECT_EQ(hot[0].c.bytes, 256u);
    EXPECT_EQ(hot[0].c.lanes, 6u);
    EXPECT_EQ(hot[0].c.depth, 3u);
    EXPECT_EQ(hot[0].c.level[0], 1u);
    EXPECT_EQ(hot[0].c.level[1], 1u);
    const auto &depths = c.depthTotals();
    ASSERT_GE(depths.size(), 4u);
    EXPECT_EQ(depths[3].accesses, 2u);
    EXPECT_EQ(depths[3].phase[1], 2u);
    EXPECT_EQ(depths[1].level[2], 1u);
    EXPECT_EQ(depths[1].lanes, 32u);
}

/** Two SMs touching overlapping nodes, for the roll-up tests. */
void
fillTwoUnits(memscope::Collector &c)
{
    // SM 0: root twice (L1), node 3 once (L2).
    c.unit(0).record(0, 1, 0, 16, 0, 64);
    c.unit(0).record(0, 1, 0, 8, 1, 64);
    c.unit(0).record(3, 2, 1, 4, 1, 128);
    // SM 1: root once (DRAM), node 7 thrice (L1).
    c.unit(1).record(0, 1, 2, 32, 1, 64);
    c.unit(1).record(7, 2, 0, 1, 2, 128);
    c.unit(1).record(7, 2, 0, 1, 2, 128);
    c.unit(1).record(7, 2, 0, 1, 2, 128);
}

TEST(MemscopeCollector, TotalsAndHotNodesMergeUnits)
{
    memscope::Collector c;
    fillTwoUnits(c);

    const auto totals = c.nodeTotals();
    EXPECT_EQ(totals.accesses, 7u);
    EXPECT_EQ(totals.level[0], 5u);
    EXPECT_EQ(totals.level[1], 1u);
    EXPECT_EQ(totals.level[2], 1u);

    const auto depths = c.depthTotals();
    ASSERT_GE(depths.size(), 3u);
    EXPECT_EQ(depths[1].accesses, 3u); // root fetches
    EXPECT_EQ(depths[2].accesses, 4u);

    // Ranking: accesses desc, node id as the tie-break.
    const auto hot = c.hotNodes(2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].node, 0u); // 3 accesses, id 0 beats id 7
    EXPECT_EQ(hot[0].c.accesses, 3u);
    EXPECT_EQ(hot[1].node, 7u);
    EXPECT_EQ(hot[1].c.accesses, 3u);
    EXPECT_EQ(hot[1].depth, 2);
}

TEST(MemscopeCollector, SummaryRollsUpEverySide)
{
    memscope::Collector c;
    fillTwoUnits(c);
    c.l1Scope(0).touch(100, 0);
    c.l1Scope(0).touch(100, 0);
    c.l2Scope().touch(200, 1);
    c.traffic().line_level[0] = 5;
    c.traffic().line_level[1] = 2;
    c.dram().onAccess(0, 64, 0);
    c.dram().onAccess(64, 64, 0);

    const auto s = c.summary();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.node_accesses, 7u);
    EXPECT_EQ(s.node_level[0], 5u);
    ASSERT_EQ(s.depths.size(), 2u); // depths 1 and 2 touched
    EXPECT_EQ(s.depths[0].depth, 1);
    EXPECT_EQ(s.depths[0].accesses, 3u);
    EXPECT_NEAR(s.depths[0].missRate(), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.depths[1].avgLanes(), 7.0 / 4.0, 1e-12);
    EXPECT_EQ(s.traffic.lineTotal(), 7u);
    EXPECT_EQ(s.l1_reuse_cold, 1u);
    EXPECT_EQ(s.l1_reuse_tracked, 2u);
    EXPECT_EQ(s.l2_reuse_tracked, 1u);
    EXPECT_EQ(s.dram_row_hits, 1u);
    EXPECT_EQ(s.dram_row_misses, 1u);
}

TEST(MemscopeCollector, FoldedStacksAreDepthNodeOrdered)
{
    memscope::Collector c;
    fillTwoUnits(c);
    std::ostringstream os;
    c.writeFolded(os, "toy");
    // Root merged across SMs; rows sorted by (depth, node id).
    EXPECT_EQ(os.str(), "toy;depth1;node0 3\n"
                        "toy;depth2;node3 1\n"
                        "toy;depth2;node7 3\n");
}

TEST(MemscopeCollector, WriteJsonCarriesTheSchema)
{
    memscope::Collector c;
    fillTwoUnits(c);
    std::ostringstream os;
    c.writeJson(os, "toy");
    const std::string j = os.str();
    for (const char *key :
         {"\"scene\"", "\"nodes\"", "\"depths\"", "\"hot_nodes\"",
          "\"reuse\"", "\"mem\"", "\"dram\"", "\"units\"",
          "\"accesses\"", "\"lanes\"", "\"hist\""})
        EXPECT_NE(j.find(key), std::string::npos) << key;
    EXPECT_EQ(j.find("nan"), std::string::npos);
}

TEST(MemscopeCollector, RegistryProbesRegisterAndUnregister)
{
    trace::Registry registry;
    {
        memscope::Collector c;
        fillTwoUnits(c);
        c.registerMetrics(registry);
        const auto samples = registry.snapshot("memscope.*");
        ASSERT_FALSE(samples.empty());
        double gpu_accesses = -1, sm1_accesses = -1, line_l1 = -1;
        for (const auto &s : samples) {
            if (s.name == "memscope.gpu.node_accesses")
                gpu_accesses = s.value;
            else if (s.name == "memscope.sm1.node_accesses")
                sm1_accesses = s.value;
            else if (s.name == "memscope.mem.line_l1")
                line_l1 = s.value;
        }
        EXPECT_EQ(gpu_accesses, 7.0);
        EXPECT_EQ(sm1_accesses, 4.0);
        EXPECT_EQ(line_l1, 0.0); // probed, though nothing was fetched
    }
    // Probes are owner-tagged and dropped with the collector.
    EXPECT_TRUE(registry.snapshot("memscope.*").empty());
}

TEST(MemscopeCollector, ResetKeepsAddressesZeroesData)
{
    memscope::Collector c;
    fillTwoUnits(c);
    memscope::UnitScope *u0 = &c.unit(0);
    c.reset();
    EXPECT_EQ(&c.unit(0), u0);
    EXPECT_EQ(c.unit(0).accesses, 0u);
    EXPECT_EQ(c.nodeTotals().accesses, 0u);
    EXPECT_EQ(c.trafficConst().lineTotal(), 0u);
}

} // namespace
