/**
 * @file
 * The RT-unit observer event stream: a recording observer attached
 * to one frontal CoopRT warp must see exactly the events the unit's
 * own counters count, and every consumed response must carry the
 * serving level its fetch was issued with. The watchesWarp and
 * wantsFetchTopology gates must withhold exactly what they gate.
 */

#include <algorithm>
#include <array>
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

/**
 * Rebuilds the RT unit's response FIFO from its events (the same heap
 * operations on the same ready keys give the same array order) and
 * records each onWarpCycles span with the wait level it carried.
 */
struct FifoMirror : rtunit::RtObserver
{
    struct Entry
    {
        std::uint64_t ready = 0;
        int slot = 0;
        prof::MemLevel level{};
        std::uint32_t consumers = 0;
    };
    struct Span
    {
        int slot = 0;
        std::uint64_t from = 0, weight = 0;
        int outstanding = 0;
        prof::MemLevel level{};
    };

    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.ready > b.ready;
    }

    bool wantsWarpCycles() const override { return true; }

    void
    onSubmit(int slot, std::uint32_t, std::uint32_t,
             std::uint64_t now) override
    {
        cursor[std::size_t(slot)] = now;
    }
    void
    onFetch(const FetchEvent &f, std::uint64_t) override
    {
        heap.push_back({next_ready, f.slot, f.level, f.consumers});
        std::push_heap(heap.begin(), heap.end(), later);
        pushed |= 1ull << f.slot;
    }
    void
    onConsume(int slot, int lane, int, std::uint32_t, prof::MemLevel,
              std::uint64_t) override
    {
        if (unconsumed == 0) { // the first lane of the next pop
            std::pop_heap(heap.begin(), heap.end(), later);
            EXPECT_EQ(heap.back().slot, slot);
            unconsumed = heap.back().consumers;
            heap.pop_back();
            popped |= 1ull << slot;
        }
        unconsumed &= ~(1u << lane);
    }
    void
    onWarpCycles(int slot, const prof::WarpView &v, prof::Phase,
                 std::uint64_t weight,
                 const rtunit::ThreadStatusCounts &) override
    {
        spans.push_back({slot, cursor[std::size_t(slot)], weight,
                         v.outstanding, v.wait_level});
        cursor[std::size_t(slot)] += weight;
    }

    /** Each slot's wait level: its first earliest-ready response in
     *  array order (-1: nothing in flight). */
    std::array<int, 64>
    levels() const
    {
        std::array<int, 64> level;
        std::array<std::uint64_t, 64> best;
        level.fill(-1);
        best.fill(rtunit::kNever);
        for (const Entry &e : heap)
            if (e.ready < best[std::size_t(e.slot)]) {
                best[std::size_t(e.slot)] = e.ready;
                level[std::size_t(e.slot)] = int(e.level);
            }
        return level;
    }

    std::uint64_t next_ready = 0; ///< the fetch being issued
    std::vector<Entry> heap;
    std::uint32_t unconsumed = 0;
    std::uint64_t pushed = 0, popped = 0; ///< slots, this tick
    std::array<std::uint64_t, 64> cursor{};
    std::vector<Span> spans;
};

TEST(RtObserver, TiedWaitLevelFollowsHeapArrayOrder)
{
    // Serving latency grows with the level, so two fetches of one
    // slot issued 40 or 80 cycles apart can become ready in the same
    // cycle at different levels. The wait level of such a slot is
    // the first of them in the FIFO's array order, which a pop for
    // another slot can change while this slot sees no event.
    const scene::Mesh mesh = testutil::makeSoup(8, 2000);
    const bvh::FlatBvh flat(bvh::buildWideBvh(mesh));
    TraceConfig cfg;
    cfg.coop = true;
    FifoMirror mirror;
    std::uint64_t fetch_no = 0;
    prof::MemLevel level = prof::MemLevel::L1;
    rtunit::RtUnit unit(
        flat, mesh, cfg,
        [&](std::uint64_t, std::uint32_t, std::uint64_t now) {
            level = prof::MemLevel(geom::mix64(fetch_no++) % 3);
            const std::uint64_t ready = now + 20 + 40 * std::uint64_t(level);
            mirror.next_ready = ready + cfg.math_latency;
            return ready;
        });
    unit.attachObservers({&mirror}, [&level] { return level; });
    int live = 0;
    for (int w = 0; w < cfg.warp_buffer_entries; ++w, ++live)
        unit.submit(testutil::frontalJob(rtunit::kWarpSize,
                                         std::uint64_t(9 + w)),
                    0, [&live](int, const rtunit::TraceResult &) {
                        --live;
                    });

    // Each tick's cycle and every slot's heap-order level after it.
    std::vector<std::uint64_t> ticks;
    std::vector<std::array<int, 64>> answers;
    int flips = 0;
    for (std::uint64_t now = 0; live > 0; ++now) {
        now = unit.nextEventCycle(now);
        ASSERT_NE(now, rtunit::kNever);
        mirror.pushed = mirror.popped = 0;
        unit.tick(now);
        const std::array<int, 64> a = mirror.levels();
        for (std::size_t s = 0; !answers.empty() && s < 64; ++s) {
            const int before = answers.back()[s];
            const std::uint64_t self = 1ull << s;
            flips += before >= 0 && a[s] >= 0 && a[s] != before &&
                     ((mirror.pushed | mirror.popped) & self) == 0 &&
                     (mirror.popped & ~self) != 0;
        }
        ticks.push_back(now);
        answers.push_back(a);
    }
    EXPECT_GT(flips, 0) << "no pop reordered a tied slot's responses";

    // Every attributed cycle with a response in flight carries the
    // heap-order level of the tick it belongs to.
    std::uint64_t checked = 0;
    for (const FifoMirror::Span &sp : mirror.spans) {
        if (sp.outstanding == 0)
            continue;
        for (std::uint64_t c = sp.from; c < sp.from + sp.weight; ++c) {
            const auto it = std::upper_bound(ticks.begin(), ticks.end(), c);
            ASSERT_NE(it, ticks.begin());
            const std::size_t t = std::size_t(it - ticks.begin()) - 1;
            ASSERT_EQ(int(sp.level), answers[t][std::size_t(sp.slot)])
                << "slot " << sp.slot << " cycle " << c;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
