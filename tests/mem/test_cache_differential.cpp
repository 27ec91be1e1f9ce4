/**
 * @file
 * Differential fuzz of the flat `mem::Cache` against the node-based
 * reference model in reference_cache.hpp. Both caches see the same
 * seeded access streams; every returned ready cycle, every downstream
 * fetch, the counters, `contains()`, `mshrLive()` and (periodically)
 * the sorted `outstandingLines()` snapshot must agree exactly. The
 * streams cover the paper's L1 (monotone `now`) and L2 (bank-skewed,
 * non-monotone `now` crossing the 4096-entry / 10,000-cycle MSHR
 * compaction rule), a sectored L1, narrow and index-backed wide sets,
 * and `reset()` / `resetTiming()` between passes.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "mem/cache.hpp"
#include "reference_cache.hpp"

namespace {

using cooprt::mem::Cache;
using cooprt::mem::CacheConfig;
using cooprt::mem::CacheStats;
using cooprt::mem::testref::ReferenceCache;

/** SplitMix64: small, seedable, identical on every platform. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** One downstream fetch as the cache issued it. */
struct Fetch
{
    std::uint64_t line;
    std::uint32_t sectors;
    std::uint64_t cycle;

    bool
    operator==(const Fetch &o) const
    {
        return line == o.line && sectors == o.sectors &&
               cycle == o.cycle;
    }
};

/** Next level: latency varies with line and cycle; logs each fetch. */
struct Below
{
    std::vector<Fetch> *log;

    std::uint64_t
    operator()(std::uint64_t line, std::uint32_t sectors,
               std::uint64_t cycle)
    {
        log->push_back({line, sectors, cycle});
        return cycle + 100 + (line * 7 + cycle) % 400;
    }
};

::testing::AssertionResult
sameStats(const CacheStats &a, const CacheStats &b)
{
    if (a.accesses == b.accesses && a.hits == b.hits &&
        a.misses == b.misses && a.mshr_merges == b.mshr_merges &&
        a.sector_misses == b.sector_misses)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "flat acc/hit/miss/merge/sector " << a.accesses << "/"
           << a.hits << "/" << a.misses << "/" << a.mshr_merges << "/"
           << a.sector_misses << " vs reference " << b.accesses << "/"
           << b.hits << "/" << b.misses << "/" << b.mshr_merges << "/"
           << b.sector_misses;
}

/** The flat cache and the reference model, driven in lockstep. */
class Lockstep
{
  public:
    explicit Lockstep(const CacheConfig &cfg) : flat_(cfg), ref_(cfg) {}

    /** One access to both; everything observable must agree. */
    ::testing::AssertionResult
    access(std::uint64_t line, std::uint32_t sectors, std::uint64_t now,
           std::uint64_t probe)
    {
        flat_log_.clear();
        ref_log_.clear();
        const std::uint64_t a =
            flat_.access(line, sectors, now, Below{&flat_log_});
        const std::uint64_t b =
            ref_.access(line, sectors, now, Below{&ref_log_});
        if (a != b)
            return ::testing::AssertionFailure()
                   << "line " << line << " @" << now << ": ready " << a
                   << " vs reference " << b;
        if (flat_log_ != ref_log_)
            return ::testing::AssertionFailure()
                   << "line " << line << " @" << now
                   << ": downstream fetches differ";
        if (auto r = sameStats(flat_.stats(), ref_.stats()); !r)
            return r;
        if (flat_.mshrLive() != ref_.mshrLive())
            return ::testing::AssertionFailure()
                   << "mshrLive " << flat_.mshrLive() << " vs reference "
                   << ref_.mshrLive();
        for (const std::uint64_t l : {line, probe})
            if (flat_.contains(l) != ref_.contains(l))
                return ::testing::AssertionFailure()
                       << "contains(" << l << ") " << flat_.contains(l)
                       << " vs reference " << ref_.contains(l);
        if (ref_.mshrLive() < live_)
            compactions_++;
        live_ = ref_.mshrLive();
        return ::testing::AssertionSuccess();
    }

    ::testing::AssertionResult
    sameOutstanding() const
    {
        const auto a = flat_.outstandingLines();
        const auto b = ref_.outstandingLines();
        if (a.size() != b.size())
            return ::testing::AssertionFailure()
                   << a.size() << " outstanding lines vs reference "
                   << b.size();
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].line != b[i].line || a[i].ready != b[i].ready ||
                a[i].sectors != b[i].sectors)
                return ::testing::AssertionFailure()
                       << "outstanding entry " << i << " (line "
                       << a[i].line << ") differs";
        return ::testing::AssertionSuccess();
    }

    void
    reset()
    {
        flat_.reset();
        ref_.reset();
        live_ = 0;
    }

    void
    resetTiming()
    {
        flat_.resetTiming();
        ref_.resetTiming();
        live_ = 0;
    }

    /** Accesses after which the MSHR table shrank (compactions). */
    int compactions() const { return compactions_; }
    std::size_t mshrLive() const { return ref_.mshrLive(); }

  private:
    Cache flat_;
    ReferenceCache ref_;
    std::vector<Fetch> flat_log_, ref_log_;
    std::size_t live_ = 0;
    int compactions_ = 0;
};

/** Shape of one seeded access stream. */
struct Stream
{
    int steps;
    std::uint64_t hot_lines;  ///< small reused working set
    std::uint64_t cold_lines; ///< large streaming range
    int hot_percent;
    /** Per-bank start skew ≤ this (0 = monotone `now`). */
    std::uint64_t bank_skew;
    std::uint32_t banks;
    /** Draw random sector masks of this many sectors (0 = whole). */
    std::uint32_t sectors;
};

/** Drive @p s through @p pair from cycle @p start; returns end. */
std::uint64_t
run(Lockstep &pair, const Stream &s, std::uint64_t seed,
    std::uint64_t start = 0)
{
    Rng rng{seed};
    std::vector<std::uint64_t> skew(s.banks, 0);
    std::uint64_t now = start;
    for (int i = 0; i < s.steps; ++i) {
        now += rng.below(4);
        const std::uint64_t line =
            int(rng.below(100)) < s.hot_percent
                ? rng.below(s.hot_lines)
                : s.hot_lines + rng.below(s.cold_lines);
        std::uint64_t at = now;
        if (s.bank_skew != 0) {
            // A bank's queue drifts ahead of (and drains back toward)
            // the request stream, so `now` jumps both ways.
            std::uint64_t &b = skew[line % s.banks];
            b = rng.below(8) == 0 ? rng.below(s.bank_skew)
                                  : b + rng.below(64);
            at = now + b;
        }
        std::uint32_t mask = 1u;
        if (s.sectors != 0) {
            mask = std::uint32_t(rng.below(1u << s.sectors));
            if (rng.below(64) != 0 && mask == 0)
                mask = 1u; // empty masks stay rare
        }
        const std::uint64_t probe =
            rng.below(s.hot_lines + s.cold_lines);
        EXPECT_TRUE(pair.access(line, mask, at, probe))
            << "step " << i << " seed " << seed;
        if (::testing::Test::HasFailure())
            return now;
        if (i % 1024 == 1023) {
            EXPECT_TRUE(pair.sameOutstanding()) << "step " << i;
        }
    }
    EXPECT_TRUE(pair.sameOutstanding());
    return now;
}

CacheConfig
paperL1()
{
    return CacheConfig{64 * 1024, 0, 128, 20};
}

CacheConfig
paperL2()
{
    return CacheConfig{3 * 1024 * 1024, 16, 128, 160};
}

TEST(CacheDifferential, PaperL1MonotoneNow)
{
    // Enough distinct misses to pass 4096 live MSHRs, with `now`
    // advancing ~1.5 cycles per access past each 10,000-cycle mark.
    Lockstep pair(paperL1());
    run(pair, Stream{60000, 700, 40000, 55, 0, 1, 0}, 1);
    EXPECT_GT(pair.compactions(), 2);
}

TEST(CacheDifferential, PaperL2BankSkewedNow)
{
    // The L2 sees each bank's own start cycle: up to 20,000 cycles
    // ahead of the stream and jumping back, which also exercises the
    // unsigned `now - last_compact` wrap.
    Lockstep pair(paperL2());
    run(pair, Stream{80000, 20000, 200000, 60, 20000, 12, 0}, 2);
    EXPECT_GT(pair.compactions(), 2);
}

TEST(CacheDifferential, SectoredL1)
{
    CacheConfig cfg = paperL1();
    cfg.size_bytes = 16 * 1024;
    cfg.sector_bytes = 32;
    Lockstep pair(cfg);
    run(pair, Stream{40000, 200, 20000, 60, 0, 1, 4}, 3);
    EXPECT_GT(pair.compactions(), 0);
}

TEST(CacheDifferential, NarrowAndIndexedSets)
{
    // Direct-mapped and 4-way sets scan; 48-way sets (several of
    // them) and a tiny fully associative cache use the line index.
    const std::array<CacheConfig, 4> cfgs = {
        CacheConfig{32 * 128, 1, 128, 5},
        CacheConfig{32 * 128, 4, 128, 5},
        CacheConfig{4 * 48 * 128, 48, 128, 5},
        CacheConfig{64 * 128, 0, 128, 5},
    };
    std::uint64_t seed = 10;
    for (const CacheConfig &cfg : cfgs) {
        SCOPED_TRACE("assoc " + std::to_string(cfg.assoc));
        Lockstep pair(cfg);
        run(pair, Stream{20000, 40, 400, 50, 3000, 4, 0}, seed++);
    }
}

TEST(CacheDifferential, CompactionRuleBoundaries)
{
    // The exact edges of the rule, which random streams rarely hit:
    // ≥ 4096 entries, ≥ 10,000 cycles since the last compaction, and
    // a compaction clock that reset() keeps but resetTiming() clears.
    Lockstep pair(paperL1());
    std::uint64_t line = 0;
    auto missAt = [&](std::uint64_t now) {
        return pair.access(line++, 1u, now, 0);
    };
    for (int i = 0; i < 4096; ++i)
        ASSERT_TRUE(missAt(20000)); // compacts; nothing has completed
    ASSERT_EQ(pair.mshrLive(), 4096u);
    ASSERT_TRUE(missAt(29999)); // 9,999 cycles later: too soon
    EXPECT_EQ(pair.mshrLive(), 4097u);
    ASSERT_TRUE(missAt(30000)); // fills issued at 20,000 are done
    EXPECT_EQ(pair.mshrLive(), 2u);

    pair.reset(); // the compaction clock stays at 30,000
    for (std::uint64_t i = 0; i < 4096; ++i)
        ASSERT_TRUE(missAt(31000 + i));
    EXPECT_EQ(pair.mshrLive(), 4096u);

    pair.resetTiming(); // the clock restarts at 0: compacts at once
    for (std::uint64_t i = 0; i < 4096; ++i)
        ASSERT_TRUE(missAt(31000 + i));
    EXPECT_LT(pair.mshrLive(), 4096u);
}

TEST(CacheDifferential, ResetsBetweenPasses)
{
    // Warm pass, timing restart (clock back to 0, tags kept), then a
    // full invalidate; the compaction clock survives reset() only.
    CacheConfig sectored = paperL1();
    sectored.sector_bytes = 32;
    const std::array<std::pair<CacheConfig, Stream>, 3> cases = {{
        {paperL1(), Stream{15000, 700, 12000, 55, 0, 1, 0}},
        {paperL2(), Stream{15000, 5000, 60000, 60, 20000, 12, 0}},
        {sectored, Stream{15000, 700, 12000, 55, 0, 1, 4}},
    }};
    std::uint64_t seed = 20;
    for (const auto &[cfg, stream] : cases) {
        SCOPED_TRACE("assoc " + std::to_string(cfg.assoc) + " sector " +
                     std::to_string(cfg.sector_bytes));
        Lockstep pair(cfg);
        const std::uint64_t end = run(pair, stream, seed++);
        pair.resetTiming();
        EXPECT_EQ(pair.mshrLive(), 0u);
        run(pair, stream, seed++);
        pair.reset();
        // Restart above the last compaction: reset() must keep it.
        run(pair, stream, seed++, end / 2);
        pair.resetTiming();
        run(pair, stream, seed++);
    }
}

} // namespace
