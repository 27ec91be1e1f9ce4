/**
 * @file
 * The RT unit timing model (paper Figs. 3 and 7).
 *
 * One RT unit per SM. It holds a warp buffer whose entries each carry
 * one in-flight trace_ray instruction: per-thread ray properties,
 * traversal stack, `main_tid` and `min_thit` registers, and the
 * per-lane status bits as 32-bit masks. Every cycle the RT unit:
 *
 *   1. selects a warp (round-robin) and issues ONE coalesced unique
 *      node address from the TOSes of its ready threads to the memory
 *      hierarchy (threads sharing that address pop together);
 *   2. (CoopRT only) lets the Load Balancing Unit move one TOS per
 *      subwarp from a busy ("main") thread's stack to an idle
 *      ("helper") thread's stack, the helper inheriting `main_tid`;
 *   3. pops at most one memory response from the response FIFO, runs
 *      the per-thread math units (box/triangle tests), pushes hit
 *      children and updates the main thread's `min_thit` on closer
 *      primitive hits;
 *   4. retires warps whose threads have all emptied their stacks.
 *
 * Timing comes from the `FetchFn` callback (the SM's port into the
 * L1/L2/DRAM hierarchy), which returns data-ready cycles. Attached
 * observers (rt_observer.hpp) see each of these steps as one event.
 */

#ifndef COOPRT_RTUNIT_RT_UNIT_HPP
#define COOPRT_RTUNIT_RT_UNIT_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bvh/flat_bvh.hpp"
#include "check/check.hpp"
#include "bvh/traversal.hpp"
#include "geom/proxy.hpp"
#include "geom/ray.hpp"
#include "prof/prof.hpp"
#include "rtunit/rt_observer.hpp"
#include "rtunit/trace_config.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/registry.hpp"

namespace cooprt::rtunit {

/** Sentinel for "no cycle" / "never". */
constexpr std::uint64_t kNever =
    std::numeric_limits<std::uint64_t>::max();

/** Base address of the per-SM hit-record buffer (store queue). */
constexpr std::uint64_t kHitBufferBase = 0x8000'0000ULL;

/** A trace_ray instruction: up to 32 rays, one per active thread. */
struct TraceJob
{
    std::array<std::optional<geom::Ray>, kWarpSize> rays;

    /**
     * Any-hit semantics: the traversal of a ray terminates at the
     * first intersection inside its interval instead of searching
     * for the closest one (paper Section 2.1: "Traversal continues
     * until the stack is empty, or any-hit is found"). Used by the
     * shadow and ambient-occlusion shaders.
     */
    bool any_hit = false;

    /**
     * Leaf-test dispatch for non-rendering query workloads
     * (`cooprt::query`): None runs the triangle intersector, the
     * query kinds interpret proxy primitives (see geom/proxy.hpp).
     * Traversal, caching and timing are identical either way.
     */
    geom::QueryKind query = geom::QueryKind::None;

    int
    activeCount() const
    {
        int n = 0;
        for (const auto &r : rays)
            n += r.has_value();
        return n;
    }
};

/** Result of a retired trace_ray: per-thread closest hits. */
struct TraceResult
{
    std::array<geom::HitRecord, kWarpSize> hits;
    std::uint64_t issue_cycle = 0;
    std::uint64_t retire_cycle = 0;

    std::uint64_t latency() const { return retire_cycle - issue_cycle; }
};

/** Aggregate counters for one RT unit. */
struct RtUnitStats
{
    std::uint64_t node_fetches = 0;   ///< internal node records read
    std::uint64_t leaf_fetches = 0;   ///< leaf records read
    std::uint64_t box_tests = 0;
    std::uint64_t tri_tests = 0;
    std::uint64_t steals = 0;         ///< LBU node moves
    std::uint64_t coalesced_threads = 0; ///< threads sharing a fetch
    std::uint64_t stale_pops = 0;     ///< pop-time min_thit discards
    std::uint64_t stack_overflows = 0;
    std::uint64_t retired_warps = 0;
    std::uint64_t retired_trace_latency = 0; ///< sum of warp latencies
    std::uint64_t max_trace_latency = 0;
    std::uint64_t issue_cycles = 0;   ///< cycles that issued a fetch
    std::uint64_t prefetches = 0;     ///< child records prefetched
    std::uint64_t predictor_hits = 0; ///< predicted prim confirmed
    std::uint64_t predictor_misses = 0;
    std::uint64_t hit_stores = 0;     ///< hit records written back

    /** Fold in another unit's counters: sums, except the maximum
     *  for max_trace_latency. */
    RtUnitStats &operator+=(const RtUnitStats &o);
};

/**
 * The RT unit. Owns warp-buffer entries and drives the cooperative
 * traversal. All scheduling state is deterministic.
 */
class RtUnit
{
  public:
    /** Memory port: (address, bytes, now) -> data-ready cycle. */
    using FetchFn = std::function<std::uint64_t(
        std::uint64_t addr, std::uint32_t bytes, std::uint64_t now)>;
    /** Invoked when a warp's trace_ray retires. */
    using RetireFn = std::function<void(int slot, const TraceResult &)>;

    RtUnit(const bvh::FlatBvh &bvh, const scene::Mesh &mesh,
           const TraceConfig &config, FetchFn fetch);
    ~RtUnit();

    RtUnit(const RtUnit &) = delete;
    RtUnit &operator=(const RtUnit &) = delete;

    const TraceConfig &config() const { return cfg_; }
    const RtUnitStats &stats() const { return stats_; }

    /**
     * Register this unit's counters into @p registry under
     * `rtunit.sm<sm_id>.*` (probes reading the live RtUnitStats,
     * plus a warp-buffer occupancy gauge and a trace-latency
     * histogram) and attach @p tracer for structured events (LBU
     * steal instants on track pid = @p sm_id). Either may be null.
     * Registrations are dropped in the destructor; the registry must
     * outlive this unit.
     */
    void attachTrace(cooprt::trace::Registry *registry,
                     cooprt::trace::Tracer *tracer, int sm_id);

    /** Serving level of the fetch just issued (MemorySystem's
     *  lastFetchDepth). */
    using LevelFn = std::function<cooprt::prof::MemLevel()>;

    /**
     * Attach the observers that watch this unit (at most 32),
     * replacing any attached before: every event of the Fig. 7
     * pipeline goes to each observer that asks for it (RtObserver's
     * wants and watchesWarp gates), in list order. @p level is read
     * once per issued fetch that an observer needs (null reads L1).
     * With no observer (the default) no event work runs; simulated
     * behaviour is bit-identical either way (pinned-cycle proofs in
     * tests/core). Attach while no warp is resident: stall
     * attribution starts from each warp's submit.
     */
    void attachObservers(std::vector<RtObserver *> observers,
                         LevelFn level);
    const std::vector<RtObserver *> &observers() const { return obs_; }

    /**
     * Component path used by `cooprt::check` violations (default
     * "rtunit"; the SM sets "rtunit.sm<id>"). No-op when the audit
     * layer is compiled out.
     */
    void
    setCheckLabel(const std::string &label)
    {
#if COOPRT_CHECK_ENABLED
        check_label_ = label;
#else
        (void)label;
#endif
    }

    /** Number of free warp-buffer entries. */
    int freeSlots() const;
    /** True when no warp is resident. */
    bool idle() const { return resident_ == 0; }

    /**
     * Insert a trace_ray instruction into a free warp-buffer slot.
     * @return The slot index used.
     * @throws std::runtime_error when the warp buffer is full.
     */
    int submit(const TraceJob &job, std::uint64_t now, RetireFn on_retire);

    /**
     * Advance the RT unit by one cycle at time @p now. Must be called
     * with non-decreasing @p now values.
     */
    void tick(std::uint64_t now);

    /**
     * The earliest cycle >= @p now at which calling tick() can make
     * progress, or kNever when the unit is empty. Used by the GPU's
     * idle-skipping main loop; skipping to this cycle cannot change
     * simulated behaviour.
     */
    std::uint64_t nextEventCycle(std::uint64_t now) const;

    /** Busy threads (non-empty stack or node in flight) right now. */
    ThreadStatusCounts threadStatus() const;

    /**
     * Credit every resident warp's stall attribution (onWarpCycles)
     * through this unit's last tick. The end pass classifies only the
     * warps an event touched and the others catch up lazily, so call
     * this before reading an observer's totals between ticks (the
     * GPU does, before each metrics row). No-op without a
     * wantsWarpCycles observer.
     */
    void flushCycles();

    /**
     * Share another RT unit's intersection-predictor table (a
     * GPU-wide predictor, so spatial locality between warps on
     * different SMs is not fragmented). No-op when the predictor is
     * disabled.
     */
    void sharePredictor(const RtUnit &other);

  private:
    /**
     * One stack entry: a node reference, its AABB entry distance, and
     * the owning ray's thread id (the per-entry main tag that lets a
     * helper accept new work while an old fetch is still in flight).
     */
    struct StackEntry
    {
        bvh::NodeRef ref;
        float entry_t;
        std::int8_t main;
    };

    /**
     * A warp's onWarpCycles arguments apart from slot and weight,
     * for a cycle with no progress or steal event.
     */
    struct CycleView
    {
        prof::WarpView view;
        prof::Phase phase{};
        ThreadStatusCounts lanes;

        bool operator==(const CycleView &) const = default;
    };

    /** Per-thread traversal state within a warp entry. */
    struct ThreadState
    {
        geom::Ray ray;          ///< this thread's own ray
        int main_tid = 0;       ///< current ray target (status/debug)
        std::deque<StackEntry> stack;
    };

    /**
     * One warp-buffer entry. Lane state lives in five 32-bit masks
     * (bit t = thread t), the status bits behind the LBU's priority
     * encoders (Fig. 8); only the stack helpers write `work` and
     * `deep`, only issue and consume write `pending`. `stale` is
     * re-derived by syncLane after every push, pop and steal, and by
     * refreshStale after every `min_thit` write (predictorSeed and
     * processNode's leaf loop), so pop-time elimination never scans.
     */
    struct WarpEntry
    {
        bool valid = false;
        bool any_hit = false;
        geom::QueryKind query = geom::QueryKind::None;
        std::array<ThreadState, kWarpSize> th;
        std::array<float, kWarpSize> min_thit;
        std::array<geom::HitRecord, kWarpSize> hit;
        std::uint32_t active = 0;  ///< had a ray at submit
        std::uint32_t pending = 0; ///< node fetch in flight
        std::uint32_t work = 0;    ///< stack non-empty
        std::uint32_t deep = 0;    ///< stack holds >= 2 entries
        /** Stack non-empty and its TOS has entry_t >= the search
         *  limit of the TOS's ray owner (searchLimit). */
        std::uint32_t stale = 0;
        int outstanding = 0;    ///< in-flight responses
        std::uint64_t issue_cycle = 0;
        RetireFn on_retire;
        /** First cycle not yet stall-attributed (onWarpCycles). */
        std::uint64_t cycles_from = 0;
        /** The warp's view since its last classification
         *  (progressed/stole cleared): no event has touched it since,
         *  so every cycle from `cycles_from` to the next touch is
         *  credited from it (creditGap). */
        CycleView gap;
        /** Consumed any response yet (traversal phase tracking). */
        bool consumed = false;
        /** Observers that watchesWarp (bits index the list): they
         *  get the warp's per-lane events. */
        std::uint32_t watchers = 0;

        /** Lanes that can issue their TOS this cycle. */
        std::uint32_t ready() const { return work & ~pending; }
        /** Lanes with work left (stack or fetch in flight). */
        std::uint32_t busy() const { return work | pending; }
    };

    /** An element of the response FIFO. */
    struct Response
    {
        std::uint64_t ready = 0; ///< cycle data+math are available
        int slot = 0;
        std::uint32_t consumers = 0; ///< thread mask
        bvh::NodeRef ref;
        /** Ray owner per consumer thread (issue-time snapshot). */
        std::array<std::int8_t, kWarpSize> mains{};
        /** Serving memory level (prof::MemLevel; observers only). */
        std::int8_t level = 0;

        bool operator>(const Response &o) const { return ready > o.ready; }
    };

    /** Min-heap push onto responses_ (what priority_queue::push does). */
    void pushResponse(Response r);
    /** Min-heap pop of responses_.front(). */
    Response popResponse();

    /**
     * A slot's in-flight responses as prof's wait level sees them
     * (allocated only for a wantsWarpCycles observer). A lane has at
     * most one fetch in flight, so the consumer masks of one slot's
     * responses are disjoint and each response is named by its
     * lowest consumer lane.
     */
    struct WaitTrack
    {
        std::uint32_t heads = 0; ///< lowest consumer lane per response
        std::int8_t level = -1;  ///< serving level at `ready`
        std::uint64_t ready = kNever; ///< the slot's earliest ready
        std::array<std::uint64_t, kWarpSize> head_ready{};
        std::array<std::int8_t, kWarpSize> head_level{};
    };
    /** Keep waits_[r.slot] and tied_ current after @p r was pushed
     *  (@p queued) or popped. */
    void trackResponse(const Response &r, bool queued);

    /**
     * LBU helper candidates: an empty stack, and under
     * helper_requires_idle no fetch in flight either.
     */
    std::uint32_t
    helpers(const WarpEntry &w) const
    {
        return ~w.work & (cfg_.helper_requires_idle ? ~w.pending : ~0u);
    }
    /** LBU main candidates: a stealable node beyond the next pop. */
    static std::uint32_t
    mains(const WarpEntry &w)
    {
        return w.deep | (w.work & w.pending);
    }
    /** Lanes of subwarp @p g. */
    std::uint32_t
    subwarp(int g) const
    {
        return std::uint32_t((~0ull >> (64 - cfg_.subwarp_size))
                             << (g * cfg_.subwarp_size));
    }

    /** Pop-side of the node-tracking discipline (DFS back/BFS front). */
    StackEntry popWork(WarpEntry &w, int tid) const;
    const StackEntry &peekWork(const ThreadState &t) const;
    /** Steal-side pop (honours steal_from_bottom). */
    StackEntry popSteal(WarpEntry &w, int tid) const;
    void pushWork(WarpEntry &w, int tid, const StackEntry &e);
    /** Re-derive lane @p tid's work/deep bits from its stack size
     *  and its stale bit from its TOS. */
    void syncLane(WarpEntry &w, int tid) const;
    /** True when @p t's TOS is stale; @p t's stack must be non-empty. */
    bool staleTos(const WarpEntry &w, const ThreadState &t) const;
    /**
     * Re-derive the stale bits after a write to `min_thit[main]`: of
     * the work lanes that may hold ray @p main's entries (its subwarp
     * under CoopRT, else its own lane; rtunit.stack_owner_scope).
     */
    void refreshStale(WarpEntry &w, int main) const;
    /** The Fig. 4 busy / waiting / inactive split of @p w's lanes. */
    static ThreadStatusCounts laneStatus(const WarpEntry &w);

    /** Drop stale TOS entries (entry_t >= current search limit). */
    void dropStaleWork(int slot, WarpEntry &w, int tid,
                       std::uint64_t now);

    /** Current search limit for ray owner @p main. */
    float searchLimit(const WarpEntry &w, int main) const;

    bool tryIssue(std::uint64_t now);
    void runLbu(std::uint64_t now);
    bool processOneResponse(std::uint64_t now);
    void processNode(int slot, WarpEntry &w, int tid, bvh::NodeRef ref,
                     int main, std::uint64_t now);

    /** Quantized-ray key for the intersection predictor. */
    std::size_t predictorIndex(const geom::Ray &ray) const;
    void predictorSeed(WarpEntry &w, int tid);
    void predictorLearn(const WarpEntry &w);
    void maybeRetire(int slot, std::uint64_t now);
    /** All-lane busy mask to the observers (fig11 timelines). */
    void emitLaneEdges(int slot, const WarpEntry &w, std::uint64_t now);

    const bvh::FlatBvh &bvh_;
    const scene::Mesh &mesh_;
    TraceConfig cfg_;
    FetchFn fetch_;
    RtUnitStats stats_;

    std::vector<WarpEntry> warps_;
    int resident_ = 0;
    int rr_next_ = 0; ///< round-robin warp pointer

    /**
     * The response FIFO, kept as an explicit min-heap on `ready`
     * (std::push_heap/std::pop_heap — behaviourally identical to the
     * std::priority_queue it replaces) so the audit layer and prof's
     * wait-level tie fallback (waitLevel) can iterate outstanding
     * responses per warp slot.
     */
    std::vector<Response> responses_;

    /**
     * Intersection-predictor table: prim id or UINT32_MAX. May be
     * shared across RT units (see sharePredictor()).
     */
    std::shared_ptr<std::vector<std::uint32_t>> predictor_;
    std::uint64_t last_tick_ = 0;

    /** Observability hooks (all null/unused when tracing is off). */
    cooprt::trace::Registry *metrics_registry_ = nullptr;
    cooprt::trace::Tracer *tracer_ = nullptr;
    int trace_pid_ = 0;

    std::vector<RtObserver *> obs_;
    LevelFn level_;
    /** Observers (bits index obs_) that want onWarpCycles, onLaneEdges
     *  and every onFetch with its topology tags. */
    std::uint32_t cycles_mask_ = 0;
    std::uint32_t lane_edges_mask_ = 0;
    std::uint32_t topology_mask_ = 0;

    /** Call @p fn on each observer in @p mask, in list order. */
    template <typename Fn>
    void
    notify(std::uint32_t mask, Fn &&fn) const
    {
        for (; mask != 0; mask &= mask - 1)
            fn(*obs_[std::size_t(std::countr_zero(mask))]);
    }

    /**
     * Stall attribution for onWarpCycles, paid per event. The end
     * pass classifies the current cycle of each warp this tick's
     * events touched (issue, consume, steal, stale drop) or whose
     * wait level is tied, and stores the view in its `gap`. Every
     * other warp is unchanged since its last classification, so its
     * cycles are credited lazily from `gap` (creditGap): at its next
     * classification, at its retire, or by flushCycles.
     */
    void attributeTick(std::uint64_t now);
    /** Credit @p slot's cycles from `cycles_from` up to @p until
     *  from its stored `gap` view. */
    void creditGap(std::size_t slot, std::uint64_t until);

    /**
     * Serving level of @p slot's earliest-ready response, -1 for
     * none. Among equal readies at different levels, the first in
     * heap-array order: pops and pushes for other slots reorder that
     * array, so such a tied slot is reclassified at every end pass.
     */
    std::int8_t waitLevel(std::size_t slot) const;
    /** @p w's view for a cycle with no event; @p level from
     *  waitLevel (-1: nothing in flight). */
    CycleView cycleView(const WarpEntry &w, std::int8_t level) const;

    /** Slots that issued a fetch or consumed a response this tick. */
    std::uint64_t progress_ = 0;
    /** Slots the LBU served this tick. */
    std::uint64_t stolen_ = 0;
    /** Slots that dropped a stale stack entry this tick. */
    std::uint64_t dropped_ = 0;
    /** Slots whose earliest responses tie on `ready` at different
     *  levels (kept with waits_). */
    std::uint64_t tied_ = 0;
    /** Per-slot wait tracking; empty unless cycles_mask_ != 0. */
    std::vector<WaitTrack> waits_;
    /** Last cycle the end-of-tick pass accounted (kNever = none). */
    std::uint64_t accounted_ = kNever;

#if COOPRT_CHECK_ENABLED
    /**
     * Audit-layer state (check builds only; see DESIGN.md invariant
     * catalogue). Validates the warp-buffer/response/LBU bookkeeping
     * at the end of every tick. Read-only over simulated state.
     */
    void auditInvariants(std::uint64_t now) const;
    /** prof.gap_view_frozen: every stored gap view equals a fresh
     *  classification of its warp at tick entry, its wait level
     *  rescanned from the whole response FIFO (waitLevels). */
    void auditGapViews(std::uint64_t now) const;
    /** Serving level of each slot's earliest-ready response, -1 for
     *  none (among equal readies, the first in heap-array order). */
    using WaitLevels = std::array<std::int8_t, 64>;
    void waitLevels(WaitLevels &level) const;

    std::string check_label_ = "rtunit";
    /** Trace_rays submitted (for rtunit.warp_conservation). */
    std::uint64_t audit_submitted_ = 0;
    /** Node fetches issued this tick (rtunit.single_issue_per_cycle). */
    mutable int audit_issues_this_tick_ = 0;
    /** Architectural traversal-stack depth bound for this BVH. */
    std::size_t check_stack_bound_ = 0;
#endif
};

} // namespace cooprt::rtunit

#endif // COOPRT_RTUNIT_RT_UNIT_HPP
