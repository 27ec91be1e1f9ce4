/**
 * @file
 * Tests for the RT warp-scheduler policies (round-robin vs greedy-
 * then-oldest vs oldest-first): all must preserve exact results;
 * the timing differs by policy.
 */

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtunit_test_util.hpp"

namespace {

using namespace cooprt;
using rtunit::TraceConfig;
using rtunit::TraceJob;
using rtunit::TraceResult;
using rtunit::WarpSchedPolicy;
using testutil::frontalJob;
using testutil::makeSoup;
using testutil::RtHarness;

/** A scheduler policy and the name its ctest case carries. */
struct Policy
{
    WarpSchedPolicy sched;
    const char *name;
};

// gtest prints the parameter into the ctest name; without this it
// dumps the raw bytes of the value.
void PrintTo(const Policy &p, std::ostream *os) { *os << p.name; }

class SchedPolicyTest : public ::testing::TestWithParam<Policy>
{};

TEST_P(SchedPolicyTest, MultiWarpResultsMatchOracle)
{
    scene::Mesh mesh = makeSoup(31, 1500);
    TraceConfig cfg;
    cfg.sched = GetParam().sched;
    cfg.coop = true;
    cfg.warp_buffer_entries = 4;
    RtHarness h(mesh, cfg);

    int retired = 0;
    std::array<TraceJob, 4> jobs;
    std::array<TraceResult, 4> results;
    for (int w = 0; w < 4; ++w) {
        jobs[std::size_t(w)] = frontalJob(12, 300 + w);
        h.unit.submit(jobs[std::size_t(w)], h.now,
                      [&results, &retired, w](int,
                                              const TraceResult &r) {
                          results[std::size_t(w)] = r;
                          retired++;
                      });
    }
    h.drain([&] { return retired == 4; });

    for (int w = 0; w < 4; ++w)
        for (int t = 0; t < 12; ++t) {
            const auto ref = bvh::closestHit(
                h.flat, h.mesh, *jobs[std::size_t(w)].rays[std::size_t(t)]);
            ASSERT_EQ(results[std::size_t(w)].hits[std::size_t(t)].hit(),
                      ref.hit())
                << "warp " << w << " thread " << t;
            if (ref.hit()) {
                EXPECT_FLOAT_EQ(
                    results[std::size_t(w)].hits[std::size_t(t)].thit,
                    ref.thit);
            }
        }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedPolicyTest,
    ::testing::Values(Policy{WarpSchedPolicy::RoundRobin, "RoundRobin"},
                      Policy{WarpSchedPolicy::GreedyThenOldest, "Gto"},
                      Policy{WarpSchedPolicy::OldestFirst, "Oldest"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(SchedPolicy, OldestFirstDrainsOldWarpFirst)
{
    scene::Mesh mesh = makeSoup(32, 2000);
    TraceConfig cfg;
    cfg.sched = WarpSchedPolicy::OldestFirst;
    cfg.warp_buffer_entries = 2;
    RtHarness h(mesh, cfg, 200);

    std::uint64_t first_retire = 0, second_retire = 0;
    h.unit.submit(frontalJob(16, 401), 0,
                  [&](int, const TraceResult &r) {
                      first_retire = r.retire_cycle;
                  });
    // Second warp submitted later must not finish before the first
    // when both trace similar work under oldest-first service.
    h.now = 50;
    h.unit.submit(frontalJob(16, 401), 50,
                  [&](int, const TraceResult &r) {
                      second_retire = r.retire_cycle;
                  });
    h.drain([&] { return first_retire && second_retire; });
    EXPECT_LE(first_retire, second_retire);
}

TEST(SchedPolicy, PoliciesProduceDifferentTimings)
{
    scene::Mesh mesh = makeSoup(33, 2500);
    std::array<std::uint64_t, 3> latency{};
    const WarpSchedPolicy policies[] = {
        WarpSchedPolicy::RoundRobin, WarpSchedPolicy::GreedyThenOldest,
        WarpSchedPolicy::OldestFirst};
    for (std::size_t p = 0; p < 3; ++p) {
        TraceConfig cfg;
        cfg.sched = policies[p];
        cfg.warp_buffer_entries = 4;
        RtHarness h(mesh, cfg, 300);
        int retired = 0;
        std::uint64_t last = 0;
        for (int w = 0; w < 4; ++w)
            h.unit.submit(frontalJob(16, 500 + w), 0,
                          [&](int, const TraceResult &r) {
                              retired++;
                              last = std::max(last, r.retire_cycle);
                          });
        h.drain([&] { return retired == 4; });
        latency[p] = last;
        EXPECT_GT(last, 0u);
    }
    // All complete; at least the makespans are plausible (within 3x).
    const auto [mn, mx] =
        std::minmax_element(latency.begin(), latency.end());
    EXPECT_LT(*mx, *mn * 3);
}

/** Logs the slot of every fetch the RT unit issues. */
struct FetchSlotLog : rtunit::RtObserver
{
    std::vector<int> slots;
    void
    onFetch(const rtunit::FetchEvent &f, std::uint64_t) override
    {
        slots.push_back(f.slot);
    }
};

TEST(SchedPolicy, EqualAgeWarpsIssueInSlotOrder)
{
    // Warps submitted in the same cycle tie on age; oldest-first must
    // break the tie by slot whatever the warp-buffer size (std::sort
    // is not stable, which shows beyond 16 entries). Every ray of a
    // warp starts at the root, so each warp's first fetch takes all
    // its lanes and the next cycle moves on to the next warp.
    constexpr int kEntries = 32;
    TraceConfig cfg;
    cfg.sched = WarpSchedPolicy::OldestFirst;
    cfg.warp_buffer_entries = kEntries;
    RtHarness h(makeSoup(34, 1500), cfg, 200);
    FetchSlotLog log;
    h.unit.attachObservers({&log}, nullptr);
    int retired = 0;
    for (int w = 0; w < kEntries; ++w)
        h.unit.submit(frontalJob(rtunit::kWarpSize, 600 + w), 0,
                      [&](int, const TraceResult &) { retired++; });
    h.drain([&] { return retired == kEntries; });

    ASSERT_GE(log.slots.size(), std::size_t(kEntries));
    for (int k = 0; k < kEntries; ++k)
        EXPECT_EQ(log.slots[std::size_t(k)], k) << "fetch " << k;
}

} // namespace
