/**
 * @file
 * Unit tests for the memory-side memscope profilers against
 * hand-computed traces and a naive reference: the Mattson
 * reuse-distance stack (CacheScope), its position-compaction path,
 * the per-set contention counters and the DRAM row-locality scope.
 */

#include <algorithm>
#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "geom/rng.hpp"
#include "memscope/memscope.hpp"

namespace {

using namespace cooprt;

// Reuse distance d of an access = number of DISTINCT lines touched
// since the previous access to the same line; bucket = bit_width(d).
//
// Hand trace over lines A=10, B=20, C=30 (set ignored):
//
//   pos  line  distinct since last touch   d     bucket
//    0    A    (first touch)               -     cold
//    1    B    (first touch)               -     cold
//    2    C    (first touch)               -     cold
//    3    A    {B, C}                      2     2
//    4    B    {C, A}                      2     2
//    5    B    {}                          0     0
//    6    A    {B}                         1     1
TEST(MemscopeReuse, HandComputedTrace)
{
    memscope::CacheScope scope;
    const std::uint64_t A = 10, B = 20, C = 30;
    for (std::uint64_t line : {A, B, C, A, B, B, A})
        scope.touch(line, 0);

    EXPECT_EQ(scope.accesses(), 7u);
    EXPECT_EQ(scope.cold(), 3u);
    EXPECT_EQ(scope.reused(), 4u);
    EXPECT_EQ(scope.hist()[0], 1u); // B B back to back
    EXPECT_EQ(scope.hist()[1], 1u); // A with one line between
    EXPECT_EQ(scope.hist()[2], 2u); // the two d = 2 re-touches
    for (int b = 3; b < memscope::kReuseBuckets; ++b)
        EXPECT_EQ(scope.hist()[b], 0u) << "bucket " << b;
}

TEST(MemscopeReuse, BucketBoundaries)
{
    // d = 2 and d = 3 share a bucket (bit_width), d = 4 starts the
    // next one.
    auto bucketFor = [](std::uint64_t d) {
        memscope::CacheScope s;
        s.touch(0, 0); // the line under test
        for (std::uint64_t i = 1; i <= d; ++i)
            s.touch(i, 0); // d distinct lines in between
        s.touch(0, 0);     // re-touch: reuse distance exactly d
        int bucket = -1;
        for (int b = 0; b < memscope::kReuseBuckets; ++b)
            if (s.hist()[b] != 0)
                bucket = b;
        return bucket;
    };
    EXPECT_EQ(bucketFor(0), 0);
    EXPECT_EQ(bucketFor(1), 1);
    EXPECT_EQ(bucketFor(2), 2);
    EXPECT_EQ(bucketFor(3), 2);
    EXPECT_EQ(bucketFor(4), 3);
    EXPECT_EQ(bucketFor(7), 3);
    EXPECT_EQ(bucketFor(8), 4);
}

TEST(MemscopeReuse, FenwickGrowthPastInitialCapacity)
{
    // Line 1 is re-touched after every new line, so most positions
    // are superseded: the 6,000-odd touches fill the position space
    // several times, and each fill compacts the present positions in
    // order (line 0's stays the oldest) and resizes the space to
    // about twice their count. Distances must stay exact across
    // every compaction.
    memscope::CacheScope scope;
    const std::uint64_t n = 3000;
    scope.touch(0, 0);
    scope.touch(1, 0);
    for (std::uint64_t i = 2; i <= n + 1; ++i) {
        scope.touch(i, 0);
        scope.touch(1, 0); // d = 1: only line i since
    }
    scope.touch(0, 0); // lines 1..n+1 since: d = 3001, bit_width = 12

    EXPECT_EQ(scope.accesses(), 2 * n + 3);
    EXPECT_EQ(scope.cold(), n + 2);
    EXPECT_EQ(scope.reused(), n + 1);
    EXPECT_EQ(scope.hist()[1], n);
    EXPECT_EQ(scope.hist()[12], 1u);
}

/** The Mattson LRU stack kept the naive way: a vector of distinct
 *  lines, most recent last, searched linearly on every touch. */
struct NaiveReuse
{
    std::vector<std::uint64_t> stack;
    std::uint64_t accesses = 0;
    std::uint64_t cold = 0;
    std::array<std::uint64_t, memscope::kReuseBuckets> hist{};
    std::vector<std::uint64_t> sets;

    void
    touch(std::uint64_t line, std::uint32_t set)
    {
        accesses++;
        if (set >= sets.size())
            sets.resize(std::size_t(set) + 1, 0);
        sets[set]++;
        const auto it = std::find(stack.rbegin(), stack.rend(), line);
        if (it == stack.rend()) {
            cold++;
        } else {
            // Lines above it in the stack were touched since.
            const auto d = std::uint64_t(it - stack.rbegin());
            hist[std::size_t(std::min(int(std::bit_width(d)),
                                      memscope::kReuseBuckets - 1))]++;
            stack.erase(std::next(it).base());
        }
        stack.push_back(line);
    }
};

TEST(MemscopeReuse, MatchesNaiveLruStackOnRandomStream)
{
    // 60K touches over ~3K lines: half to a 64-line hot set, half
    // spread over the rest, with keys scattered over the whole 64-bit
    // range. The live count stays near 3K, so the position space
    // compacts about every 3K touches (~20 times per pass). The
    // stream runs twice, across reset().
    struct Touch
    {
        std::uint64_t line;
        std::uint32_t set;
    };
    std::vector<Touch> stream(60'000);
    geom::Pcg32 rng(25);
    for (Touch &t : stream) {
        const std::uint32_t id =
            rng.nextBelow(2) == 0 ? rng.nextBelow(64) : rng.nextBelow(3000);
        t.line = std::uint64_t(id) * 0x9e3779b97f4a7c15ull;
        t.set = id % 61;
    }

    memscope::CacheScope scope;
    for (int pass = 0; pass < 2; ++pass) {
        NaiveReuse ref;
        for (const Touch &t : stream) {
            scope.touch(t.line, t.set);
            ref.touch(t.line, t.set);
        }
        EXPECT_EQ(scope.accesses(), ref.accesses) << "pass " << pass;
        EXPECT_EQ(scope.cold(), ref.cold) << "pass " << pass;
        for (int b = 0; b < memscope::kReuseBuckets; ++b)
            EXPECT_EQ(scope.hist()[std::size_t(b)],
                      ref.hist[std::size_t(b)])
                << "pass " << pass << " bucket " << b;
        EXPECT_EQ(scope.setAccesses(), ref.sets) << "pass " << pass;
        scope.reset();
    }
}

TEST(MemscopeReuse, SetContentionCounters)
{
    memscope::CacheScope scope;
    scope.touch(1, 0);
    scope.touch(2, 3);
    scope.touch(3, 3);
    scope.touch(4, 3);
    EXPECT_EQ(scope.setsTouched(), 2u);
    EXPECT_EQ(scope.maxSetAccesses(), 3u);
    ASSERT_GE(scope.setAccesses().size(), 4u);
    EXPECT_EQ(scope.setAccesses()[0], 1u);
    EXPECT_EQ(scope.setAccesses()[3], 3u);
}

TEST(MemscopeReuse, ResetClearsEverything)
{
    memscope::CacheScope scope;
    scope.touch(1, 0);
    scope.touch(1, 0);
    scope.reset();
    EXPECT_EQ(scope.accesses(), 0u);
    EXPECT_EQ(scope.cold(), 0u);
    EXPECT_EQ(scope.setsTouched(), 0u);
    // Post-reset distances start from a clean stack.
    scope.touch(1, 0);
    EXPECT_EQ(scope.cold(), 1u);
}

TEST(MemscopeDram, RowLocalityPerChannel)
{
    memscope::DramScope dram; // row_bytes = 2048
    dram.onAccess(0, 64, 0);    // channel 0, row 0: cold -> miss
    dram.onAccess(1024, 64, 0); // same row           -> hit
    dram.onAccess(4096, 64, 0); // row 2              -> miss
    dram.onAccess(4160, 64, 0); // row 2 again        -> hit
    dram.onAccess(64, 64, 1);   // channel 1, row 0: cold -> miss
    dram.onAccess(128, 64, 1);  // same row           -> hit
    // Channel interleaving must not break channel-0 locality.
    dram.onAccess(4224, 64, 0); // still row 2        -> hit

    EXPECT_EQ(dram.requests, 7u);
    EXPECT_EQ(dram.bytes, 7u * 64u);
    EXPECT_EQ(dram.row_hits, 4u);
    EXPECT_EQ(dram.row_misses, 3u);

    dram.reset();
    EXPECT_EQ(dram.requests, 0u);
    dram.onAccess(0, 64, 0);
    EXPECT_EQ(dram.row_misses, 1u) << "reset clears row history";
}

} // namespace
