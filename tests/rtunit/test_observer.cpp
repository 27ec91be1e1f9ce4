/**
 * @file
 * The RT-unit observer event stream: a recording observer attached
 * to one frontal CoopRT warp must see exactly the events the unit's
 * own counters count, and every consumed response must carry the
 * serving level its fetch was issued with. The watchesWarp and
 * wantsFetchTopology gates must withhold exactly what they gate.
 */

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "prof/prof.hpp"
#include "rtunit_test_util.hpp"

namespace {

using namespace cooprt;
using rtunit::FetchEvent;
using rtunit::TraceConfig;
using testutil::RtHarness;

/** Counts every event and checks issue/consume level pairing. */
struct RecordingObserver : rtunit::RtObserver
{
    bool wantsWarpCycles() const override { return true; }
    bool wantsFetchTopology() const override { return topology; }
    bool watchesWarp(int) const override { return watch; }

    void
    onSubmit(int, std::uint32_t, std::uint32_t, std::uint64_t) override
    {
        submits++;
    }
    void
    onFetch(const FetchEvent &f, std::uint64_t) override
    {
        fetches++;
        if (f.depth > 0)
            tagged_fetches++;
        for (int lane = 0; lane < rtunit::kWarpSize; ++lane)
            if (f.consumers & (1u << lane))
                in_flight[{f.slot, lane}] = {f.ref, f.level};
    }
    void
    onStaleDrop(int, int, int, std::uint32_t, std::uint64_t) override
    {
        stale_drops++;
    }
    void
    onSteal(int, int, int, int, bool, std::uint64_t) override
    {
        steals++;
    }
    void
    onConsume(int slot, int lane, int, std::uint32_t ref,
              prof::MemLevel level, std::uint64_t) override
    {
        consumes++;
        const auto it = in_flight.find({slot, lane});
        if (it == in_flight.end() || it->second.first != ref ||
            it->second.second != level)
            mismatches++;
        else
            in_flight.erase(it);
    }
    void
    onRetire(int, std::uint64_t) override
    {
        retires++;
    }
    void
    onWarpCycles(int, const prof::WarpView &, prof::Phase,
                 std::uint64_t weight,
                 const rtunit::ThreadStatusCounts &) override
    {
        cycles += weight;
    }

    bool watch = true;
    bool topology = false;
    std::uint64_t submits = 0, fetches = 0, tagged_fetches = 0,
                  stale_drops = 0, steals = 0, consumes = 0,
                  mismatches = 0, retires = 0, cycles = 0;
    /** (slot, lane) -> (ref, level) of the lane's in-flight fetch. */
    std::map<std::pair<int, int>, std::pair<std::uint32_t, prof::MemLevel>>
        in_flight;
};

TEST(RtObserver, EventsMatchUnitCounters)
{
    TraceConfig coop;
    coop.coop = true;
    RtHarness h(testutil::makeSoup(8, 2000), coop);
    RecordingObserver obs;
    // Cycle the serving level so a consume paired with the wrong
    // issue shows up as a mismatch.
    int next_level = 0;
    h.unit.attachObservers({&obs}, [&next_level] {
        return prof::MemLevel(next_level++ % 3);
    });
    const rtunit::TraceResult r =
        h.runOne(testutil::frontalJob(rtunit::kWarpSize));

    const rtunit::RtUnitStats &s = h.unit.stats();
    EXPECT_GT(s.steals, 0u) << "coop warp produced no steals";
    EXPECT_GT(s.stale_pops, 0u);
    EXPECT_EQ(obs.submits, 1u);
    EXPECT_EQ(obs.fetches, s.node_fetches + s.leaf_fetches);
    EXPECT_EQ(obs.stale_drops, s.stale_pops);
    EXPECT_EQ(obs.steals, s.steals);
    EXPECT_EQ(obs.retires, s.retired_warps);
    EXPECT_EQ(obs.consumes, s.coalesced_threads);
    EXPECT_EQ(obs.mismatches, 0u);
    EXPECT_TRUE(obs.in_flight.empty());
    // Every resident cycle is attributed exactly once.
    EXPECT_EQ(obs.cycles, r.latency());
}

TEST(RtObserver, UnwatchedWarpSkipsLaneEvents)
{
    TraceConfig coop;
    coop.coop = true;
    RtHarness h(testutil::makeSoup(8, 2000), coop);
    RecordingObserver obs, fetch_only;
    obs.watch = fetch_only.watch = false;
    fetch_only.topology = true;
    h.unit.attachObservers({&obs, &fetch_only}, nullptr);
    const rtunit::TraceResult r =
        h.runOne(testutil::frontalJob(rtunit::kWarpSize));

    // Lifecycle and cycle attribution still arrive; nothing per lane.
    for (const RecordingObserver *o : {&obs, &fetch_only}) {
        EXPECT_EQ(o->submits, 1u);
        EXPECT_EQ(o->retires, 1u);
        EXPECT_EQ(o->cycles, r.latency());
        EXPECT_EQ(o->stale_drops, 0u);
        EXPECT_EQ(o->steals, 0u);
        EXPECT_EQ(o->consumes, 0u);
    }
    // Only the topology observer sees the fetches, every one tagged.
    const rtunit::RtUnitStats &s = h.unit.stats();
    EXPECT_EQ(obs.fetches, 0u);
    EXPECT_EQ(fetch_only.fetches, s.node_fetches + s.leaf_fetches);
    EXPECT_EQ(fetch_only.tagged_fetches, fetch_only.fetches);
}

TEST(RtObserver, AtMost32Observers)
{
    RtHarness h(testutil::makeSoup(8, 2000), TraceConfig{});
    std::vector<RecordingObserver> many(33);
    std::vector<rtunit::RtObserver *> list;
    for (RecordingObserver &o : many)
        list.push_back(&o);
    EXPECT_THROW(h.unit.attachObservers(list, nullptr),
                 std::invalid_argument);
    list.pop_back();
    EXPECT_NO_THROW(h.unit.attachObservers(list, nullptr));
}

TEST(RtObserver, TopologyTagsOnlyWhenWanted)
{
    for (const bool want : {false, true}) {
        RtHarness h(testutil::makeSoup(8, 2000), TraceConfig{});
        RecordingObserver obs;
        obs.topology = want;
        h.unit.attachObservers({&obs}, nullptr);
        h.runOne(testutil::frontalJob(rtunit::kWarpSize));
        EXPECT_GT(obs.fetches, 0u);
        EXPECT_EQ(obs.tagged_fetches, want ? obs.fetches : 0u)
            << "topology wanted: " << want;
    }
}

} // namespace
