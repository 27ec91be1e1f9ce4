/**
 * @file
 * Tests for the metric registry: probes, filter matching, owner
 * unregistration and snapshots.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/registry.hpp"

namespace {

using cooprt::trace::MetricSample;
using cooprt::trace::nameMatchesFilter;
using cooprt::trace::Registry;

double
valueOf(const std::vector<MetricSample> &snap, const std::string &name)
{
    for (const auto &s : snap)
        if (s.name == name)
            return s.value;
    ADD_FAILURE() << "metric not in snapshot: " << name;
    return -1.0;
}

TEST(NameFilter, EmptyFilterMatchesEverything)
{
    EXPECT_TRUE(nameMatchesFilter("rtunit.sm0.steals", ""));
    EXPECT_TRUE(nameMatchesFilter("", ""));
}

TEST(NameFilter, ExactMatch)
{
    EXPECT_TRUE(nameMatchesFilter("mem.l2.misses", "mem.l2.misses"));
    EXPECT_FALSE(nameMatchesFilter("mem.l2.misses", "mem.l2.miss"));
    EXPECT_FALSE(nameMatchesFilter("mem.l2.miss", "mem.l2.misses"));
}

TEST(NameFilter, PrefixWildcard)
{
    EXPECT_TRUE(nameMatchesFilter("rtunit.sm0.steals", "rtunit.*"));
    EXPECT_TRUE(nameMatchesFilter("rtunit.sm11.steals", "rtunit.*"));
    EXPECT_FALSE(nameMatchesFilter("mem.l2.misses", "rtunit.*"));
    // `*` alone matches everything.
    EXPECT_TRUE(nameMatchesFilter("anything.at.all", "*"));
}

TEST(NameFilter, CommaSeparatedListMatchesAnyPattern)
{
    const char *f = "mem.l2.*,rtunit.sm0.*";
    EXPECT_TRUE(nameMatchesFilter("mem.l2.misses", f));
    EXPECT_TRUE(nameMatchesFilter("rtunit.sm0.steals", f));
    EXPECT_FALSE(nameMatchesFilter("rtunit.sm1.steals", f));
    EXPECT_FALSE(nameMatchesFilter("mem.l1.misses", f));
}

TEST(Registry, ProbesReadLiveState)
{
    Registry reg;
    std::uint64_t live = 7;
    reg.probe("rtunit.sm0.node_fetches",
              [&live] { return double(live); });
    EXPECT_DOUBLE_EQ(
        valueOf(reg.snapshot(), "rtunit.sm0.node_fetches"), 7.0);
    live = 9;
    EXPECT_DOUBLE_EQ(
        valueOf(reg.snapshot(), "rtunit.sm0.node_fetches"), 9.0);
}

TEST(Registry, ReRegisteringAProbeOverwrites)
{
    Registry reg;
    reg.probe("m", [] { return 1.0; });
    reg.probe("m", [] { return 2.0; });
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), "m"), 2.0);
}

TEST(Registry, UnregisterOwnerDropsOnlyThatOwnersProbes)
{
    Registry reg;
    int a = 0, b = 0;
    reg.probe("owned.a", [] { return 1.0; }, &a);
    reg.probe("owned.b", [] { return 2.0; }, &a);
    reg.probe("kept.c", [] { return 3.0; }, &b);
    reg.unregisterOwner(&a);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "kept.c");
}

TEST(Registry, SnapshotIsSortedByName)
{
    Registry reg;
    reg.probe("z.last", [] { return 1.0; });
    reg.probe("a.first", [] { return 2.0; });
    reg.probe("m.middle", [] { return 3.0; });
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.first");
    EXPECT_EQ(snap[1].name, "m.middle");
    EXPECT_EQ(snap[2].name, "z.last");
}

TEST(Registry, SnapshotHonorsFilter)
{
    Registry reg;
    reg.probe("rtunit.sm0.steals", [] { return 5.0; });
    reg.probe("mem.l2.misses", [] { return 6.0; });
    const auto snap = reg.snapshot("rtunit.*");
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "rtunit.sm0.steals");
    EXPECT_DOUBLE_EQ(snap[0].value, 5.0);
}

TEST(Registry, NamesAndFindFollowRegistrations)
{
    // The sampler's view: sorted filtered names, a probe per name,
    // and a generation that moves whenever registrations change.
    Registry reg;
    int owner = 0;
    const std::uint64_t g0 = reg.generation();
    reg.probe("rtunit.sm0.steals", [] { return 5.0; }, &owner);
    reg.probe("mem.l2.misses", [] { return 6.0; });
    reg.probe("rtunit.sm0.issue_cycles", [] { return 7.0; });
    EXPECT_EQ(reg.names("rtunit.*"),
              (std::vector<std::string>{"rtunit.sm0.issue_cycles",
                                        "rtunit.sm0.steals"}));
    ASSERT_NE(reg.find("mem.l2.misses"), nullptr);
    EXPECT_DOUBLE_EQ((*reg.find("mem.l2.misses"))(), 6.0);
    EXPECT_EQ(reg.find("mem.l2.hits"), nullptr);

    const std::uint64_t g1 = reg.generation();
    EXPECT_GT(g1, g0);
    reg.unregisterOwner(&g0); // owns nothing
    EXPECT_EQ(reg.generation(), g1);
    reg.unregisterOwner(&owner);
    EXPECT_GT(reg.generation(), g1);
    EXPECT_EQ(reg.find("rtunit.sm0.steals"), nullptr);
}

} // namespace
