/**
 * @file
 * Mutation tests for the audit layer: each seeded model bug from
 * check::allMutations() is armed, the smallest simulation that
 * reaches its injection site is run, and the test asserts that the
 * audits catch the bug *and* name the right invariant. This is the
 * proof that the invariant net actually holds — an audit that never
 * fires is indistinguishable from no audit at all.
 *
 * Only meaningful in COOPRT_CHECK builds; skipped otherwise.
 */

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "core/simulation.hpp"
#include "mem/memory_system.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"
#include "trace/metrics.hpp"
#include "trace/registry.hpp"

#include "../rtunit/rtunit_test_util.hpp"

namespace {

using namespace cooprt;
using rtunit::TraceConfig;
using testutil::RtHarness;

class MutationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!check::enabled())
            GTEST_SKIP() << "COOPRT_CHECK is off in this build";
        check::disarmMutation();
    }

    void TearDown() override { check::disarmMutation(); }

    /**
     * Run @p scenario with @p m armed; the audits must abort it with
     * a ViolationError naming @p invariant.
     */
    template <typename Fn>
    void
    expectCaught(check::Mutation m, const std::string &invariant,
                 Fn &&scenario)
    {
        const std::uint64_t fired = check::mutationsFired();
        check::armMutation(m);
        try {
            scenario();
            FAIL() << check::mutationName(m)
                   << " was not caught by any audit";
        } catch (const check::ViolationError &e) {
            EXPECT_EQ(e.violation().invariant, invariant)
                << "caught by the wrong invariant: "
                << e.violation().message();
        }
        EXPECT_EQ(check::mutationsFired(), fired + 1)
            << check::mutationName(m) << " never reached its site";
    }
};

/** Busy 32-ray warp on a small soup; every RT-unit site is reached. */
void
runBusyWarp(const TraceConfig &cfg, int rays = rtunit::kWarpSize)
{
    RtHarness h(testutil::makeSoup(8, 2000), cfg);
    h.runOne(testutil::frontalJob(rays));
}

TEST_F(MutationTest, DoubleConsumeResponse)
{
    expectCaught(check::Mutation::DoubleConsumeResponse,
                 "rtunit.outstanding_matches_fifo",
                 [] { runBusyWarp(TraceConfig{}); });
}

TEST_F(MutationTest, DropResponse)
{
    expectCaught(check::Mutation::DropResponse,
                 "rtunit.pending_matches_responses",
                 [] { runBusyWarp(TraceConfig{}); });
}

TEST_F(MutationTest, StackOverPush)
{
    expectCaught(check::Mutation::StackOverPush,
                 "rtunit.stack_depth_bound",
                 [] { runBusyWarp(TraceConfig{}); });
}

TEST_F(MutationTest, LeakWarpSlot)
{
    expectCaught(check::Mutation::LeakWarpSlot,
                 "rtunit.resident_count",
                 [] { runBusyWarp(TraceConfig{}); });
}

TEST_F(MutationTest, IllegalLbuHelper)
{
    TraceConfig coop;
    coop.coop = true;
    // One busy thread, 31 idle helpers: steals happen every few
    // cycles, so a helper holding stolen work is soon available for
    // the mutation to retarget.
    expectCaught(check::Mutation::IllegalLbuHelper,
                 "rtunit.lbu_steal_legality",
                 [&] { runBusyWarp(coop, 1); });
}

TEST_F(MutationTest, StaleLaneMask)
{
    TraceConfig coop;
    coop.coop = true;
    // One busy thread feeding 31 helpers: its stack soon shrinks
    // below two entries through a steal.
    expectCaught(check::Mutation::StaleLaneMask,
                 "rtunit.lane_masks_consistent",
                 [&] { runBusyWarp(coop, 1); });
}

TEST_F(MutationTest, StaleTosMask)
{
    // Any-hit: the first leaf hit collapses the ray's search limit
    // to zero, so every entry left on its stack is stale at once and
    // the skipped refresh leaves that TOS unflagged. The leaf consume
    // is the tick's last stack change, and in the baseline no other
    // lane holds the ray's entries, so the bit stays wrong until the
    // end-of-tick audit.
    expectCaught(check::Mutation::StaleTosMask,
                 "rtunit.lane_masks_consistent", [] {
                     rtunit::TraceJob job = testutil::frontalJob(1);
                     job.any_hit = true;
                     RtHarness h(testutil::makeSoup(8, 2000),
                                 TraceConfig{});
                     h.runOne(job);
                 });
}

TEST_F(MutationTest, LostWarp)
{
    expectCaught(check::Mutation::LostWarp, "sm.warp_conservation",
                 [] {
                     core::RunConfig cfg;
                     cfg.shader = core::ShaderKind::AmbientOcclusion;
                     cfg.resolution = 16;
                     core::simulationFor("wknd").run(cfg);
                 });
}

TEST_F(MutationTest, CacheHitMiscount)
{
    expectCaught(
        check::Mutation::CacheHitMiscount,
        "mem.cache_access_conservation", [] {
            mem::Cache cache(mem::CacheConfig{1024, 0, 128, 10});
            auto below = [](std::uint64_t, std::uint64_t t) {
                return t + 100;
            };
            cache.access(0, 0, below);   // cold miss installs line 0
            cache.access(0, 500, below); // hit, miscounted twice
        });
}

TEST_F(MutationTest, StaleLineIndex)
{
    // 64 fully associative ways: lines are found through the index.
    // The 65th distinct line evicts line 0; leaving line 0's index
    // entry behind makes the index hold more entries than the cache
    // holds lines.
    expectCaught(
        check::Mutation::StaleLineIndex, "mem.cache_lru_consistent",
        [] {
            mem::Cache cache(mem::CacheConfig{64 * 128, 0, 128, 10});
            auto below = [](std::uint64_t, std::uint64_t t) {
                return t + 100;
            };
            for (std::uint64_t line = 0; line <= 64; ++line)
                cache.access(line, line, below);
        });
}

TEST_F(MutationTest, L2BankTimeTravel)
{
    expectCaught(check::Mutation::L2BankTimeTravel,
                 "mem.l2_bank_monotone", [] {
                     mem::MemConfig mc;
                     mc.num_sms = 1;
                     mem::MemorySystem ms(mc);
                     ms.fetch(0, 0, 128, 0); // L1 miss -> L2 bank
                 });
}

TEST_F(MutationTest, MetricsCycleRepeat)
{
    expectCaught(check::Mutation::MetricsCycleRepeat,
                 "trace.metrics_monotone", [] {
                     trace::Registry registry;
                     trace::MetricsSampler sampler(&registry);
                     sampler.sample(100);
                     sampler.sample(600); // recorded as 100 again
                 });
}

TEST_F(MutationTest, ProfMisattribution)
{
    // A warp cycle the RT unit never attributes breaks the
    // attributed-cycles == trace-latency identity the conservation
    // audit re-derives when each warp retires.
    expectCaught(check::Mutation::ProfMisattribution,
                 "prof.bucket_conservation", [] {
                     prof::RtUnitProfile profile;
                     RtHarness h(testutil::makeSoup(8, 2000),
                                 TraceConfig{});
                     h.unit.attachObservers({&profile}, nullptr);
                     h.runOne(testutil::frontalJob(rtunit::kWarpSize));
                 });
}

TEST_F(MutationTest, StaleGapView)
{
    // The warp's first fetch sets its progress bit; a stored view
    // that keeps it differs from the classification the next tick's
    // gap pass recomputes from the frozen warp.
    expectCaught(check::Mutation::StaleGapView, "prof.gap_view_frozen",
                 [] {
                     prof::RtUnitProfile profile;
                     RtHarness h(testutil::makeSoup(8, 2000),
                                 TraceConfig{});
                     h.unit.attachObservers({&profile}, nullptr);
                     h.runOne(testutil::frontalJob(rtunit::kWarpSize));
                 });
}

/** A profiled CoopRT frame of @p scene at 16 px. */
void
runProfiledFrame(const char *scene)
{
    prof::Profiler profiler;
    core::RunConfig cfg;
    cfg.resolution = 16;
    cfg.gpu.trace.coop = true;
    cfg.profiler = &profiler;
    core::simulationFor(scene).run(cfg);
}

TEST_F(MutationTest, UntouchedStaleDrop)
{
    // A warp whose only event in a tick is a stale drop has new stack
    // masks; an end pass that skips it keeps a stored view the next
    // tick's entry audit recomputes differently.
    expectCaught(check::Mutation::UntouchedStaleDrop,
                 "prof.gap_view_frozen",
                 [] { runProfiledFrame("ship"); });
}

TEST_F(MutationTest, LevelTieIgnored)
{
    // A warp whose earliest responses tie on the ready cycle at
    // different levels waits on the first of them in the FIFO's
    // array order; any other answer differs from the audit's rescan.
    expectCaught(check::Mutation::LevelTieIgnored,
                 "prof.gap_view_frozen",
                 [] { runProfiledFrame("ship"); });
}

TEST_F(MutationTest, MemscopeMisattribution)
{
    // Dropping one line's serving-level increment breaks the
    // lines-classified == L1-accesses identity the traffic
    // conservation audit re-derives after every fetch.
    expectCaught(check::Mutation::MemscopeMisattribution,
                 "memscope.traffic_conservation", [] {
                     mem::MemConfig mc;
                     mc.num_sms = 1;
                     mem::MemorySystem ms(mc);
                     memscope::Collector mscope;
                     ms.attachMemscope(&mscope);
                     ms.fetch(0, 0, 128, 0); // one line, one level
                 });
}

TEST_F(MutationTest, RayProvenanceDrop)
{
    // A steal event the recorder silently loses breaks the
    // recorded-vs-expected steal-event ledger the conservation audit
    // re-checks when each sampled warp retires.
    expectCaught(
        check::Mutation::RayProvenanceDrop,
        "ray.event_conservation", [] {
            raytrace::RecorderConfig rcfg;
            rcfg.sample_k = raytrace::kLanes; // every steal is logged
            raytrace::UnitRecorder rec(0, &rcfg);
            TraceConfig coop;
            coop.coop = true;
            RtHarness h(testutil::makeSoup(8, 2000), coop);
            h.unit.attachObservers({&rec}, nullptr);
            h.runOne(testutil::frontalJob(1)); // steal-heavy warp
        });
}

/** The harness covers every mutation in the catalogue. */
TEST_F(MutationTest, CatalogueFullyExercised)
{
    // One TEST_F above per entry; this guards against a new Mutation
    // being added without a matching detection test.
    EXPECT_EQ(check::allMutations().size(), 18u)
        << "new mutation added: write its detection test and update "
           "this count";
}

} // namespace
