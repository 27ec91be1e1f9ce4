/**
 * @file
 * Unit tests of the stall taxonomy itself: `prof::classify` is a
 * total function over the WarpView space (exhaustiveness), always
 * lands in an RT-resident bucket (WarpBufferFull is SM-side), and
 * follows the documented priority order (exclusivity — a view can
 * satisfy several conditions, but exactly one bucket wins).
 */

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "prof/prof.hpp"

namespace {

using namespace cooprt;
using prof::Bucket;
using prof::MemLevel;
using prof::Phase;
using prof::WarpView;

/** Every combination of the WarpView inputs (2^7 x 2 x 3 = 2304). */
std::vector<WarpView>
allViews()
{
    std::vector<WarpView> out;
    for (int bits = 0; bits < (1 << 7); ++bits)
        for (int outstanding : {0, 3})
            for (int level = 0; level < 3; ++level) {
                WarpView v;
                v.progressed = bits & 1;
                v.stole = bits & 2;
                v.has_ready = bits & 4;
                v.ready_all_stale = bits & 8;
                v.lbu_eligible = bits & 16;
                v.coop = bits & 32;
                v.any_stack_work = bits & 64;
                v.has_idle_lane = (bits & 96) == 96; // vary w/ others
                v.outstanding = outstanding;
                v.wait_level = MemLevel(level);
                out.push_back(v);
            }
    return out;
}

TEST(Taxonomy, TotalAndNeverSmSideBucket)
{
    // Exhaustiveness: every input maps to a bucket in range, and the
    // RT unit never produces the SM-side WarpBufferFull bucket — that
    // is what keeps the resident conservation sum well-defined.
    for (const WarpView &v : allViews()) {
        const Bucket b = prof::classify(v);
        ASSERT_GE(int(b), 0);
        ASSERT_LT(int(b), prof::kNumBuckets);
        ASSERT_NE(b, Bucket::WarpBufferFull);
    }
}

TEST(Taxonomy, PriorityOrderIsExclusive)
{
    // A view satisfying several predicates resolves by the documented
    // priority chain, making the buckets mutually exclusive.
    WarpView v;
    v.progressed = true;
    v.stole = true;
    v.has_ready = true;
    v.lbu_eligible = true;
    v.outstanding = 2;
    EXPECT_EQ(prof::classify(v), Bucket::IssueCompute);

    v.progressed = false;
    EXPECT_EQ(prof::classify(v), Bucket::LbuSteal); // served steal

    v.stole = false;
    EXPECT_EQ(prof::classify(v), Bucket::FetchQueued);

    v.ready_all_stale = true;
    EXPECT_EQ(prof::classify(v), Bucket::StackBound);

    v.has_ready = false;
    EXPECT_EQ(prof::classify(v), Bucket::LbuSteal); // steal possible

    v.lbu_eligible = false;
    v.wait_level = prof::MemLevel::L2;
    EXPECT_EQ(prof::classify(v), Bucket::StarvedL2);

    v.outstanding = 0;
    EXPECT_EQ(prof::classify(v), Bucket::IdleNoRay);
}

TEST(Taxonomy, StarvedSplitsByServingLevel)
{
    WarpView v;
    v.outstanding = 1;
    v.wait_level = MemLevel::L1;
    EXPECT_EQ(prof::classify(v), Bucket::StarvedL1);
    v.wait_level = MemLevel::L2;
    EXPECT_EQ(prof::classify(v), Bucket::StarvedL2);
    v.wait_level = MemLevel::Dram;
    EXPECT_EQ(prof::classify(v), Bucket::StarvedDram);
}

TEST(Taxonomy, SubwarpDrainNeedsCoopIdleLanesAndNoStackWork)
{
    WarpView v;
    v.outstanding = 1;
    v.coop = true;
    v.any_stack_work = false;
    v.has_idle_lane = true;
    EXPECT_EQ(prof::classify(v), Bucket::SubwarpDrain);
    v.any_stack_work = true; // stealable work exists -> plain starve
    EXPECT_EQ(prof::classify(v), Bucket::StarvedL1);
    v.any_stack_work = false;
    v.coop = false; // baseline has no helpers to drain
    EXPECT_EQ(prof::classify(v), Bucket::StarvedL1);
    v.coop = true;
    v.has_idle_lane = false; // every lane still has its own work
    EXPECT_EQ(prof::classify(v), Bucket::StarvedL1);
}

TEST(Taxonomy, BucketNamesStableUniqueSnakeCase)
{
    std::set<std::string> names;
    for (int b = 0; b < prof::kNumBuckets; ++b) {
        const std::string name = prof::bucketName(Bucket(b));
        EXPECT_FALSE(name.empty());
        for (const char c : name)
            EXPECT_TRUE(std::islower(std::uint8_t(c)) ||
                        std::isdigit(std::uint8_t(c)) || c == '_')
                << name;
        names.insert(name);
    }
    EXPECT_EQ(names.size(), std::size_t(prof::kNumBuckets));
    EXPECT_STREQ(prof::bucketName(Bucket::WarpBufferFull),
                 "warp_buffer_full");
}

TEST(Taxonomy, PhaseOfMatchesLifecycle)
{
    EXPECT_EQ(prof::phaseOf(false, false), Phase::Ramp);
    EXPECT_EQ(prof::phaseOf(false, true), Phase::Ramp);
    EXPECT_EQ(prof::phaseOf(true, true), Phase::Traverse);
    EXPECT_EQ(prof::phaseOf(true, false), Phase::Drain);
}

TEST(Taxonomy, ProfileAddKeepsConservation)
{
    prof::RtUnitProfile p;
    p.add(Bucket::IssueCompute, Phase::Ramp, 3);
    p.add(Bucket::StarvedL2, Phase::Traverse, 7);
    p.onBufferWait(11); // SM-side: outside the resident sum
    EXPECT_EQ(p.resident_cycles, 10u);
    EXPECT_EQ(p.residentBucketSum(), 10u);
    EXPECT_EQ(p.buckets[std::size_t(Bucket::WarpBufferFull)], 11u);
    std::uint64_t phase_sum = 0;
    for (const auto &row : p.phase_buckets)
        for (const std::uint64_t c : row)
            phase_sum += c;
    EXPECT_EQ(phase_sum, p.resident_cycles);
    p.reset();
    EXPECT_EQ(p.residentBucketSum(), 0u);
    EXPECT_EQ(p.threads.total(), 0u);
}

} // namespace
