#include "rtunit/rt_unit.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "geom/rng.hpp"
#include "prof/prof.hpp"

namespace cooprt::rtunit {

using bvh::NodeRef;
using geom::kNoHit;
using geom::Ray;

static_assert(sizeof(RtUnitStats) == 16 * sizeof(std::uint64_t),
              "a new RtUnitStats field needs operator+= and the "
              "gpu.rt_stats_aggregation audit to cover it");

RtUnitStats &
RtUnitStats::operator+=(const RtUnitStats &o)
{
    node_fetches += o.node_fetches;
    leaf_fetches += o.leaf_fetches;
    box_tests += o.box_tests;
    tri_tests += o.tri_tests;
    steals += o.steals;
    coalesced_threads += o.coalesced_threads;
    stale_pops += o.stale_pops;
    stack_overflows += o.stack_overflows;
    retired_warps += o.retired_warps;
    retired_trace_latency += o.retired_trace_latency;
    max_trace_latency = std::max(max_trace_latency, o.max_trace_latency);
    issue_cycles += o.issue_cycles;
    prefetches += o.prefetches;
    predictor_hits += o.predictor_hits;
    predictor_misses += o.predictor_misses;
    hit_stores += o.hit_stores;
    return *this;
}

RtUnit::RtUnit(const bvh::FlatBvh &bvh, const scene::Mesh &mesh,
               const TraceConfig &config, FetchFn fetch)
    : bvh_(bvh), mesh_(mesh), cfg_(config), fetch_(std::move(fetch))
{
    cfg_.validate();
    warps_.resize(std::size_t(cfg_.warp_buffer_entries));
    if (cfg_.intersection_predictor)
        predictor_ = std::make_shared<std::vector<std::uint32_t>>(
            std::size_t(cfg_.predictor_entries), 0xffffffffu);

#if COOPRT_CHECK_ENABLED
    // Architectural stack-depth bound (rtunit.stack_depth_bound): a
    // DFS thread's stack holds at most (width-1) entries per tree
    // level for each of its at most two concurrent work sources (its
    // current subtree plus the children of one in-flight response);
    // BFS queues are only bounded by the ref population. Generous
    // constants keep legitimate runs violation-free; a runaway push
    // loop blows through either bound immediately.
    const bvh::TreeStats ts = bvh_.stats();
    if (cfg_.order == TraversalOrder::Dfs)
        check_stack_bound_ =
            4u * std::size_t(ts.max_depth + 2) * bvh::kWideArity + 16;
    else
        check_stack_bound_ =
            2u * (bvh_.nodeCount() + bvh_.primCount()) + 16;
#endif
}

RtUnit::~RtUnit()
{
    if (metrics_registry_ != nullptr)
        metrics_registry_->unregisterOwner(this);
}

void
RtUnit::attachTrace(cooprt::trace::Registry *registry,
                    cooprt::trace::Tracer *tracer, int sm_id)
{
    tracer_ = tracer;
    trace_pid_ = sm_id;
    metrics_registry_ = registry;
    if (registry == nullptr)
        return;

    const std::string p = "rtunit.sm" + std::to_string(sm_id) + ".";
    auto add = [&](const std::string &name, const std::uint64_t *src) {
        registry->probe(p + name, [src] { return double(*src); },
                        this);
    };
    add("node_fetches", &stats_.node_fetches);
    add("leaf_fetches", &stats_.leaf_fetches);
    add("box_tests", &stats_.box_tests);
    add("tri_tests", &stats_.tri_tests);
    add("steals", &stats_.steals);
    add("coalesced_threads", &stats_.coalesced_threads);
    add("stale_pops", &stats_.stale_pops);
    add("stack_overflows", &stats_.stack_overflows);
    add("retired_warps", &stats_.retired_warps);
    add("issue_cycles", &stats_.issue_cycles);
    add("prefetches", &stats_.prefetches);
    add("predictor_hits", &stats_.predictor_hits);
    add("predictor_misses", &stats_.predictor_misses);
    add("hit_stores", &stats_.hit_stores);
    registry->probe(p + "warpbuf.occupancy",
                    [this] { return double(resident_); }, this);
    registry->probe(p + "responses.pending",
                    [this] { return double(responses_.size()); },
                    this);
    // Warp trace latency (Fig. 14): every retired warp is one sample.
    const std::string lat = "trace_latency.";
    add(lat + "count", &stats_.retired_warps);
    add(lat + "sum", &stats_.retired_trace_latency);
    add(lat + "max", &stats_.max_trace_latency);
    registry->probe(p + lat + "mean", [this] {
        return stats_.retired_warps == 0
                   ? 0.0
                   : double(stats_.retired_trace_latency) /
                         double(stats_.retired_warps);
    }, this);
}

void
RtUnit::attachObservers(std::vector<RtObserver *> observers,
                        LevelFn level)
{
    if (observers.size() > 32)
        throw std::invalid_argument(
            "RtUnit::attachObservers: more than 32 observers");
    obs_ = std::move(observers);
    level_ = std::move(level);
    cycles_mask_ = lane_edges_mask_ = topology_mask_ = 0;
    for (std::size_t i = 0; i < obs_.size(); ++i) {
        const std::uint32_t bit = 1u << i;
        if (obs_[i]->wantsWarpCycles())
            cycles_mask_ |= bit;
        if (obs_[i]->wantsLaneEdges())
            lane_edges_mask_ |= bit;
        if (obs_[i]->wantsFetchTopology())
            topology_mask_ |= bit;
    }
    waits_.assign(cycles_mask_ != 0 ? warps_.size() : 0, WaitTrack{});
    tied_ = 0;
}

std::size_t
RtUnit::predictorIndex(const Ray &ray) const
{
    // Quantize origin to a coarse grid over the scene bounds and the
    // direction to a 4x4x4 lattice; mix into a table index.
    const geom::AABB &b = bvh_.rootBounds();
    const geom::Vec3 e = b.extent();
    auto q = [](float v, float lo, float ext, int cells) {
        if (ext <= 0.0f)
            return 0;
        int c = int((v - lo) / ext * float(cells));
        return c < 0 ? 0 : (c >= cells ? cells - 1 : c);
    };
    // Short (occlusion-length) rays hit nearby geometry almost
    // independently of their direction: key them by a fine origin
    // grid with no direction bits (a wrong prediction is filtered by
    // the confirmation test anyway). Long rays use a coarse origin
    // grid plus direction.
    const bool short_ray = ray.tmax < 0.25f * e.length();
    const int cells = short_ray ? 256 : 16;
    std::uint64_t key = short_ray ? 1 : 2;
    key = key * 1031 + std::uint64_t(q(ray.orig.x, b.lo.x, e.x, cells));
    key = key * 1031 + std::uint64_t(q(ray.orig.y, b.lo.y, e.y, cells));
    key = key * 1031 + std::uint64_t(q(ray.orig.z, b.lo.z, e.z, cells));
    if (!short_ray) {
        key = key * 31 + std::uint64_t(q(ray.dir.x, -1.0f, 2.0f, 4));
        key = key * 31 + std::uint64_t(q(ray.dir.y, -1.0f, 2.0f, 4));
        key = key * 31 + std::uint64_t(q(ray.dir.z, -1.0f, 2.0f, 4));
    }
    return std::size_t(geom::mix64(key) %
                       std::uint64_t(cfg_.predictor_entries));
}

void
RtUnit::predictorSeed(WarpEntry &w, int tid)
{
    ThreadState &th = w.th[std::size_t(tid)];
    const std::uint32_t prim = (*predictor_)[predictorIndex(th.ray)];
    if (prim == 0xffffffffu || prim >= mesh_.size()) {
        stats_.predictor_misses++;
        return;
    }
    const float thit = mesh_.tri(prim).intersect(th.ray, th.ray.tmax);
    if (thit == kNoHit) {
        stats_.predictor_misses++;
        return;
    }
    // A confirmed prediction is a real intersection: it can seed
    // min_thit safely — traversal will still find anything closer.
    stats_.predictor_hits++;
    w.min_thit[std::size_t(tid)] = thit;
    geom::HitRecord &rec = w.hit[std::size_t(tid)];
    rec.thit = thit;
    rec.prim_id = prim;
    rec.normal = mesh_.tri(prim).shadingNormal(th.ray.dir);
    if (w.any_hit)
        w.min_thit[std::size_t(tid)] = 0.0f; // done immediately
    refreshStale(w, tid);
}

void
RtUnit::predictorLearn(const WarpEntry &w)
{
    for (std::uint32_t m = w.active; m != 0; m &= m - 1) {
        const std::size_t t = std::size_t(std::countr_zero(m));
        if (w.hit[t].hit())
            (*predictor_)[predictorIndex(w.th[t].ray)] = w.hit[t].prim_id;
    }
}

int
RtUnit::freeSlots() const
{
    return int(warps_.size()) - resident_;
}

void
RtUnit::pushResponse(Response r)
{
    if (cycles_mask_ != 0)
        trackResponse(r, true);
    // Exactly std::priority_queue<Response, vector, greater>::push.
    responses_.push_back(std::move(r));
    std::push_heap(responses_.begin(), responses_.end(),
                   std::greater<Response>{});
}

RtUnit::Response
RtUnit::popResponse()
{
    std::pop_heap(responses_.begin(), responses_.end(),
                  std::greater<Response>{});
    Response r = std::move(responses_.back());
    responses_.pop_back();
    if (cycles_mask_ != 0)
        trackResponse(r, false);
    return r;
}

void
RtUnit::trackResponse(const Response &r, bool queued)
{
    WaitTrack &t = waits_[std::size_t(r.slot)];
    const int head = std::countr_zero(r.consumers);
    if (queued) {
        t.head_ready[std::size_t(head)] = r.ready;
        t.head_level[std::size_t(head)] = r.level;
        t.heads |= 1u << head;
    } else {
        t.heads &= ~(1u << head);
    }
    // Rescan the slot's own responses for its earliest ready and
    // whether two of them tie there at different levels.
    t.ready = kNever;
    t.level = -1;
    bool tied = false;
    for (std::uint32_t m = t.heads; m != 0; m &= m - 1) {
        const std::size_t h = std::size_t(std::countr_zero(m));
        if (t.head_ready[h] < t.ready) {
            t.ready = t.head_ready[h];
            t.level = t.head_level[h];
            tied = false;
        } else if (t.head_ready[h] == t.ready &&
                   t.head_level[h] != t.level) {
            tied = true;
        }
    }
    const std::uint64_t bit = 1ull << std::uint64_t(r.slot);
    tied_ = tied ? tied_ | bit : tied_ & ~bit;
}

int
RtUnit::submit(const TraceJob &job, std::uint64_t now, RetireFn on_retire)
{
    int slot = -1;
    for (std::size_t i = 0; i < warps_.size(); ++i) {
        if (!warps_[i].valid) {
            slot = int(i);
            break;
        }
    }
    if (slot < 0)
        throw std::runtime_error("RtUnit::submit: warp buffer full");

    WarpEntry &w = warps_[std::size_t(slot)];
    w = WarpEntry{};
    w.valid = true;
    w.any_hit = job.any_hit;
    w.query = job.query;
    w.issue_cycle = now;
    w.on_retire = std::move(on_retire);
    w.cycles_from = now; // attribution starts at the submit cycle

    for (int t = 0; t < kWarpSize; ++t) {
        ThreadState &th = w.th[std::size_t(t)];
        th.main_tid = t; // paper: main_tid initialized to tid
        w.min_thit[std::size_t(t)] = kNoHit;
        if (!job.rays[std::size_t(t)])
            continue;
        w.active |= 1u << t;
        th.ray = *job.rays[std::size_t(t)];
        // Algorithm 1 lines 1-2: test the root AABB, push on hit.
        const float t_root = bvh_.rootBounds().intersect(
            th.ray, th.ray.tmax);
        if (t_root != kNoHit && bvh_.primCount() > 0)
            pushWork(w, t, {bvh_.root(), t_root, std::int8_t(t)});
        // Query rays have no meaningful triangle intersection: the
        // predictor would seed from (and later learn) degenerate
        // proxy hits, polluting the shared table.
        if (cfg_.intersection_predictor &&
            w.query == geom::QueryKind::None)
            predictorSeed(w, t);
    }
    resident_++;
    COOPRT_CHECK_ONLY(audit_submitted_++;)

    if (!obs_.empty()) {
        // Before maybeRetire, so a warp whose rays all missed the
        // scene box still reports its (instant) lifecycle.
        for (RtObserver *o : obs_)
            o->onSubmit(slot, w.active, w.work, now);
        for (std::size_t i = 0; i < obs_.size(); ++i)
            if (obs_[i]->watchesWarp(slot))
                w.watchers |= 1u << i;
    }

    // A warp whose rays all missed the scene box retires immediately.
    maybeRetire(slot, now);

    if (w.valid && cycles_mask_ != 0) {
        w.gap = cycleView(w, -1); // nothing in flight yet
        // When this cycle's end pass already ran (post-tick submits
        // from the SM), classify the submit cycle right away so it is
        // not lost from the conservation sum.
        if (accounted_ == now) {
            w.cycles_from = now + 1;
            notify(cycles_mask_, [&](RtObserver &o) {
                o.onWarpCycles(slot, w.gap.view, w.gap.phase, 1,
                               w.gap.lanes);
            });
        }
    }
    return slot;
}

float
RtUnit::searchLimit(const WarpEntry &w, int main) const
{
    const ThreadState &owner = w.th[std::size_t(main)];
    const float mt = w.min_thit[std::size_t(main)];
    return mt < owner.ray.tmax ? mt : owner.ray.tmax;
}

/** Pop the back (DFS TOS) or the front (BFS head, stack bottom). */
template <typename Stack>
static typename Stack::value_type
take(Stack &stack, bool back)
{
    typename Stack::value_type e;
    if (back) {
        e = stack.back();
        stack.pop_back();
    } else {
        e = stack.front();
        stack.pop_front();
    }
    return e;
}

bool
RtUnit::staleTos(const WarpEntry &w, const ThreadState &t) const
{
    // Written as "not fresh" so a NaN entry distance counts as stale.
    const StackEntry &top = peekWork(t);
    return !(top.entry_t < searchLimit(w, top.main));
}

void
RtUnit::syncLane(WarpEntry &w, int tid) const
{
    const std::uint32_t bit = 1u << tid;
    const ThreadState &t = w.th[std::size_t(tid)];
    const std::size_t n = t.stack.size();
    w.work = n > 0 ? w.work | bit : w.work & ~bit;
    w.deep = n > 1 ? w.deep | bit : w.deep & ~bit;
    w.stale = n > 0 && staleTos(w, t) ? w.stale | bit : w.stale & ~bit;
}

void
RtUnit::refreshStale(WarpEntry &w, int main) const
{
    const std::uint32_t scope =
        cfg_.coop ? subwarp(main / cfg_.subwarp_size) : 1u << main;
    for (std::uint32_t m = w.work & scope; m != 0; m &= m - 1)
        syncLane(w, std::countr_zero(m));
}

RtUnit::StackEntry
RtUnit::popWork(WarpEntry &w, int tid) const
{
    const StackEntry e = take(w.th[std::size_t(tid)].stack,
                              cfg_.order == TraversalOrder::Dfs);
    syncLane(w, tid);
    return e;
}

const RtUnit::StackEntry &
RtUnit::peekWork(const ThreadState &t) const
{
    return cfg_.order == TraversalOrder::Dfs ? t.stack.back()
                                             : t.stack.front();
}

RtUnit::StackEntry
RtUnit::popSteal(WarpEntry &w, int tid) const
{
    // Paper: the helper pops the main's TOS (or queue front for BFS);
    // the ablation steals the oldest (bottom) entry, the largest
    // subtree.
    std::deque<StackEntry> &stack = w.th[std::size_t(tid)].stack;
    const StackEntry e =
        take(stack, cfg_.order == TraversalOrder::Dfs &&
                        !cfg_.steal_from_bottom);
    // Seeded bug: the steal that empties or un-deepens the main's
    // stack leaves its lane bits stale.
    if (stack.size() < 2 && COOPRT_MUTATE(StaleLaneMask))
        return e;
    syncLane(w, tid);
    return e;
}

void
RtUnit::pushWork(WarpEntry &w, int tid, const StackEntry &e)
{
    std::deque<StackEntry> &stack = w.th[std::size_t(tid)].stack;
    stack.push_back(e);
    if (int(stack.size()) > cfg_.stack_capacity)
        stats_.stack_overflows++;
#if COOPRT_CHECK_ENABLED
    // Seeded bug: a runaway push loop floods the stack, the class of
    // defect rtunit.stack_depth_bound exists to catch.
    if (COOPRT_MUTATE(StackOverPush))
        for (std::size_t i = 0; i <= check_stack_bound_; ++i)
            stack.push_back(e);
#endif
    syncLane(w, tid);
}

void
RtUnit::dropStaleWork(int slot, WarpEntry &w, int tid,
                      std::uint64_t now)
{
    dropped_ |= 1ull << std::uint64_t(slot);
    // Each pop re-derives the lane's stale bit from its new TOS.
    while (((w.stale >> tid) & 1u) != 0) {
        const StackEntry dropped = popWork(w, tid);
        stats_.stale_pops++;
        notify(w.watchers, [&](RtObserver &o) {
            o.onStaleDrop(slot, tid, dropped.main, dropped.ref.raw(),
                          now);
        });
    }
}

bool
RtUnit::tryIssue(std::uint64_t now)
{
    const int n = int(warps_.size());
    // Warp selection order per the configured scheduler policy.
    std::array<int, 64> order;
    switch (cfg_.sched) {
      case WarpSchedPolicy::RoundRobin:
        for (int k = 0; k < n; ++k)
            order[std::size_t(k)] = (rr_next_ + k) % n;
        break;
      case WarpSchedPolicy::GreedyThenOldest:
      case WarpSchedPolicy::OldestFirst: {
        // Oldest = smallest issue_cycle among valid entries. Greedy
        // starts from the last-served slot instead.
        for (int k = 0; k < n; ++k)
            order[std::size_t(k)] = k;
        std::sort(order.begin(), order.begin() + n, [&](int a, int b) {
            const WarpEntry &wa = warps_[std::size_t(a)];
            const WarpEntry &wb = warps_[std::size_t(b)];
            if (wa.valid != wb.valid)
                return wa.valid;
            if (wa.issue_cycle != wb.issue_cycle)
                return wa.issue_cycle < wb.issue_cycle;
            return a < b; // equal age: slot order, for any n
        });
        if (cfg_.sched == WarpSchedPolicy::GreedyThenOldest &&
            warps_[std::size_t(rr_next_ % n)].valid) {
            // Move the last-served slot to the front.
            const int greedy = rr_next_ % n;
            auto it = std::find(order.begin(), order.begin() + n,
                                greedy);
            std::rotate(order.begin(), it, it + 1);
        }
        break;
      }
    }

    for (int k = 0; k < n; ++k) {
        const int slot = order[std::size_t(k)];
        WarpEntry &w = warps_[std::size_t(slot)];
        if (!w.valid)
            continue;

        // Pop-time elimination (paper Section 6.1) on the lanes whose
        // TOS is stale; the lowest ready lane then selects the address.
        for (std::uint32_t m = w.stale; m != 0; m &= m - 1)
            dropStaleWork(slot, w, std::countr_zero(m), now);
        const std::uint32_t ready = w.ready();
        if (ready == 0) {
            // Dropping stale entries may have finished this warp.
            maybeRetire(slot, now);
            continue;
        }

        // Coalesce: all ready threads whose next node matches the
        // selected unique address pop together and share the fetch.
        const NodeRef ref =
            peekWork(w.th[std::size_t(std::countr_zero(ready))]).ref;
        std::uint32_t consumers = 0;
        std::array<std::int8_t, kWarpSize> mains{};
        for (std::uint32_t m = ready; m != 0; m &= m - 1) {
            const int t = std::countr_zero(m);
            if (!(peekWork(w.th[std::size_t(t)]).ref == ref))
                continue;
            mains[std::size_t(t)] = popWork(w, t).main;
            consumers |= 1u << t;
        }
        w.pending |= consumers;

        const std::uint64_t data_ready =
            fetch_(bvh_.addressOf(ref), bvh_.fetchBytes(ref), now);
        progress_ |= 1ull << std::uint64_t(slot);
        // One const read of the level for every observer, stored in
        // the response for the stall attribution.
        const std::uint32_t fetch_obs = w.watchers | topology_mask_;
        std::int8_t level = 0;
        if (level_ && (fetch_obs | cycles_mask_) != 0)
            level = std::int8_t(level_());
        if (fetch_obs != 0) {
            FetchEvent f;
            f.slot = slot;
            f.ref = ref.raw();
            f.consumers = consumers;
            f.mains = mains;
            f.level = prof::MemLevel(level);
            if (topology_mask_ != 0) {
                f.node_id = bvh_.nodeIdOf(ref);
                f.depth = bvh_.depthOf(ref);
                f.bytes = bvh_.fetchBytes(ref);
                f.phase = prof::phaseOf(w.consumed, w.work != 0);
            }
            notify(fetch_obs,
                   [&](RtObserver &o) { o.onFetch(f, now); });
        }
        pushResponse(Response{data_ready + cfg_.math_latency, slot,
                              consumers, ref, mains, level});
        w.outstanding++;
        COOPRT_CHECK_ONLY(audit_issues_this_tick_++;)

        stats_.issue_cycles++;
        stats_.coalesced_threads +=
            std::uint64_t(std::popcount(consumers));
        if (ref.isLeaf())
            stats_.leaf_fetches++;
        else
            stats_.node_fetches++;
        emitLaneEdges(slot, w, now);

        // Round-robin rotates away; greedy keeps serving this warp.
        rr_next_ = cfg_.sched == WarpSchedPolicy::GreedyThenOldest
                       ? slot
                       : (slot + 1) % n;
        return true;
    }
    return false;
}

void
RtUnit::runLbu(std::uint64_t now)
{
    if (!cfg_.coop)
        return;

    // The LBU serves one warp per cycle: the first (round-robin) warp
    // that contains at least one helper/main pair. Within that warp,
    // every subwarp may move up to lbu_moves_per_cycle nodes (the
    // paper's "all subwarps processed together" variant).
    const int n = int(warps_.size());
    for (int k = 0; k < n; ++k) {
        const int slot = (rr_next_ + k) % n;
        WarpEntry &w = warps_[std::size_t(slot)];
        if (!w.valid)
            continue;

        bool any_move = false;
        for (int g = 0; g < kWarpSize / cfg_.subwarp_size; ++g) {
            const std::uint32_t sub = subwarp(g);
            for (int move = 0; move < cfg_.lbu_moves_per_cycle;
                 ++move) {
                // Priority encoders (Fig. 8): the lowest-index helper
                // and the lowest-index main of the subwarp.
                const std::uint32_t hs = helpers(w) & sub;
                const std::uint32_t ms = mains(w) & sub;
                if (hs == 0 || ms == 0)
                    break;
                int helper = std::countr_zero(hs);
                const int main = std::countr_zero(ms);

#if COOPRT_CHECK_ENABLED
                // Seeded bug: retarget a busy thread as the helper —
                // the steal then destroys that thread's own work.
                const std::uint32_t busy_other =
                    w.work & sub & ~(1u << main);
                if (busy_other != 0 && COOPRT_MUTATE(IllegalLbuHelper))
                    helper = std::countr_zero(busy_other);
                {
                    const ThreadState &hth = w.th[std::size_t(helper)];
                    const ThreadState &mth = w.th[std::size_t(main)];
                    const bool hp = (w.pending >> helper) & 1u;
                    const bool mp = (w.pending >> main) & 1u;
                    COOPRT_AUDIT(
                        check_label_, "rtunit.lbu_steal_legality", now,
                        helper != main &&
                            helper / cfg_.subwarp_size ==
                                main / cfg_.subwarp_size &&
                            hth.stack.empty() &&
                            (!cfg_.helper_requires_idle || !hp) &&
                            (mth.stack.size() >= 2 ||
                             (mp && !mth.stack.empty())),
                        "helper=" + std::to_string(helper) +
                            " (stack=" +
                            std::to_string(hth.stack.size()) +
                            " pending=" + std::to_string(hp) +
                            ") main=" + std::to_string(main) +
                            " (stack=" +
                            std::to_string(mth.stack.size()) +
                            " pending=" + std::to_string(mp) + ")");
                }
#endif

                const StackEntry stolen = popSteal(w, main);
                pushWork(w, helper, stolen);
                ThreadState &hth = w.th[std::size_t(helper)];
                notify(w.watchers, [&](RtObserver &o) {
                    o.onSteal(slot, main, helper, stolen.main,
                              hth.main_tid != stolen.main, now);
                });
                // The stolen entry carries its ray owner; the helper
                // records it as its current target (status/debug).
                hth.main_tid = stolen.main;
                stats_.steals++;
                stolen_ |= 1ull << std::uint64_t(slot);
                any_move = true;
                COOPRT_TRACE_INSTANT(tracer_, "rtunit.lbu", "steal",
                                     trace_pid_, slot, now);
                emitLaneEdges(slot, w, now);
            }
        }
        if (any_move)
            return; // one warp served per cycle
    }
}

void
RtUnit::processNode(int slot, WarpEntry &w, int tid, NodeRef ref,
                    int main, std::uint64_t now)
{
    const Ray &ray = w.th[std::size_t(main)].ray;

    if (ref.isLeaf()) {
        std::uint32_t tested = 0;
        bool hit = false;
        for (std::uint32_t k = 0; k < ref.primCount(); ++k) {
            const std::uint32_t prim = bvh_.primAt(ref.firstSlot() + k);
            stats_.tri_tests++;
            tested++;
            const float limit = searchLimit(w, main);
            const float thit =
                w.query == geom::QueryKind::None
                    ? mesh_.tri(prim).intersect(ray, limit)
                    : geom::queryLeafTest(w.query, mesh_.tri(prim),
                                          ray, limit);
            if (thit != kNoHit) {
                // Paper Section 5.3: helpers update the *main*
                // thread's min_thit register.
                hit = true;
                w.min_thit[std::size_t(main)] = thit;
                geom::HitRecord &rec = w.hit[std::size_t(main)];
                rec.thit = thit;
                rec.prim_id = prim;
                // Proxy triangles are degenerate; their shading
                // normal is undefined (0/0), so query hits carry
                // none.
                rec.normal = w.query == geom::QueryKind::None
                                 ? mesh_.tri(prim).shadingNormal(
                                       ray.dir)
                                 : geom::Vec3{};
                if (w.any_hit) {
                    // Any-hit: this ray is done. Collapsing the
                    // search limit to zero makes every remaining
                    // stack entry of this ray stale, so the drops
                    // happen for free at pop time.
                    w.min_thit[std::size_t(main)] = 0.0f;
                    break;
                }
            }
        }
        // Seeded bug: a min_thit write leaves the owner's stale bits
        // behind, so a TOS it made stale escapes pop-time elimination.
        if (hit && !COOPRT_MUTATE(StaleTosMask))
            refreshStale(w, main);
        notify(w.watchers, [&](RtObserver &o) {
            o.onLeafTests(slot, tid, main, tested, now);
        });
        return;
    }

    const int n = bvh_.childCount(ref);
    for (int i = 0; i < n; ++i) {
        const bvh::ChildInfo c = bvh_.child(ref, i);
        stats_.box_tests++;
        const float limit = searchLimit(w, main);
        const float thit = c.box.intersect(ray, limit);
        if (thit != kNoHit) {
            pushWork(w, tid, {c.ref, thit, std::int8_t(main)});
            notify(w.watchers, [&](RtObserver &o) {
                o.onPush(slot, tid, main, c.ref.raw(), now);
            });
            if (cfg_.child_prefetch) {
                // Treelet-style prefetch: warm the hierarchy with
                // the child's record so the demand fetch hits L1 or
                // merges with this fill. The ready time is ignored;
                // the bandwidth cost is real.
                fetch_(bvh_.addressOf(c.ref), bvh_.fetchBytes(c.ref),
                       now);
                stats_.prefetches++;
            }
        }
    }
}

bool
RtUnit::processOneResponse(std::uint64_t now)
{
    if (responses_.empty() || responses_.front().ready > now)
        return false;

    const Response r = popResponse();

    WarpEntry &w = warps_[std::size_t(r.slot)];
#if COOPRT_CHECK_ENABLED
    // Seeded bug: the response is accounted for but its data never
    // delivered — the consuming threads stay pending forever.
    if (COOPRT_MUTATE(DropResponse)) {
        // cooprt-lint: allow(check-purity) seeded-bug mutation:
        // deliberately corrupts state, armed only under --mutate
        w.outstanding--;
        return true;
    }
#endif
    // A thread has at most one fetch in flight: this one.
    w.pending &= ~r.consumers;
    for (std::uint32_t m = r.consumers; m != 0; m &= m - 1) {
        const int t = std::countr_zero(m);
        notify(w.watchers, [&](RtObserver &o) {
            o.onConsume(r.slot, t, r.mains[std::size_t(t)], r.ref.raw(),
                        prof::MemLevel(r.level), now);
        });
        processNode(r.slot, w, t, r.ref, r.mains[std::size_t(t)], now);
    }
    w.outstanding--;
    // Seeded bug: one response consumed, accounted for twice.
    if (COOPRT_MUTATE(DoubleConsumeResponse))
        w.outstanding--;

    progress_ |= 1ull << std::uint64_t(r.slot);
    w.consumed = true;
    emitLaneEdges(r.slot, w, now);

    maybeRetire(r.slot, now);
    return true;
}

void
RtUnit::maybeRetire(int slot, std::uint64_t now)
{
    WarpEntry &w = warps_[std::size_t(slot)];
    if (!w.valid || w.outstanding > 0 || w.busy() != 0)
        return;

    TraceResult result;
    result.hits = w.hit;
    result.issue_cycle = w.issue_cycle;
    result.retire_cycle = now;

    if (cfg_.intersection_predictor &&
        w.query == geom::QueryKind::None)
        predictorLearn(w);

    if (cfg_.model_hit_stores) {
        // Store-queue writes of the hit records (Section 5.1); the
        // closest-hit shader reads them back. Buffered: they consume
        // bandwidth but do not delay the retire.
        for (std::uint32_t m = w.active; m != 0; m &= m - 1) {
            const int t = std::countr_zero(m);
            if (!w.hit[std::size_t(t)].hit())
                continue;
            const std::uint64_t addr =
                kHitBufferBase +
                std::uint64_t(slot * kWarpSize + t) *
                    cfg_.hit_record_bytes;
            fetch_(addr, cfg_.hit_record_bytes, now);
            stats_.hit_stores++;
        }
    }

    // The warp's lazily credited span, before observers see it go.
    if (cycles_mask_ != 0)
        creditGap(std::size_t(slot), now);

    stats_.retired_warps++;
    const std::uint64_t lat = result.latency();
    stats_.retired_trace_latency += lat;
    if (lat > stats_.max_trace_latency)
        stats_.max_trace_latency = lat;

    for (RtObserver *o : obs_)
        o->onRetire(slot, now);

    RetireFn cb = std::move(w.on_retire);
    w = WarpEntry{};
    // Seeded bug: the slot is recycled but the residency ledger keeps
    // counting it (use-after-free of the warp-buffer entry class).
    if (!COOPRT_MUTATE(LeakWarpSlot))
        resident_--;
    if (cb)
        cb(slot, result);
}

void
RtUnit::emitLaneEdges(int slot, const WarpEntry &w, std::uint64_t now)
{
    const std::uint32_t mask = w.watchers & lane_edges_mask_;
    if (mask == 0)
        return;
    // The whole busy mask at every state-changing site; a timeline
    // registers transitions only (fig11).
    notify(mask,
           [&](RtObserver &o) { o.onLaneEdges(slot, w.busy(), now); });
}

void
RtUnit::tick(std::uint64_t now)
{
    COOPRT_AUDIT(check_label_, "rtunit.monotone_tick", now,
                 now >= last_tick_,
                 "tick at " + std::to_string(now) + " after " +
                     std::to_string(last_tick_));
    last_tick_ = now;

    COOPRT_CHECK_ONLY(audit_issues_this_tick_ = 0;)
#if COOPRT_CHECK_ENABLED
    if (cycles_mask_ != 0)
        auditGapViews(now);
#endif
    // Collect this tick's per-slot events for the end pass.
    progress_ = 0;
    stolen_ = 0;
    dropped_ = 0;
    tryIssue(now);
    runLbu(now);
    processOneResponse(now);
    if (cycles_mask_ != 0)
        attributeTick(now);
#if COOPRT_CHECK_ENABLED
    auditInvariants(now);
#endif
}

void
RtUnit::attributeTick(std::uint64_t now)
{
    const std::uint64_t touched = progress_ | stolen_ | dropped_ | tied_;
    for (std::uint64_t m = touched; m != 0; m &= m - 1) {
        const std::size_t slot = std::size_t(std::countr_zero(m));
        WarpEntry &w = warps_[slot];
        if (!w.valid || w.cycles_from > now)
            continue; // retired, or this cycle is already attributed
        const CycleView fresh = cycleView(w, waitLevel(slot));
#if COOPRT_CHECK_ENABLED
        // Seeded bug: a warp whose only event was a stale drop keeps
        // the view from before it — prof.gap_view_frozen catches it.
        const std::uint64_t other = progress_ | stolen_ | tied_;
        if (((other >> slot) & 1) == 0 && !(fresh == w.gap) &&
            COOPRT_MUTATE(UntouchedStaleDrop))
            continue;
#endif
        creditGap(slot, now);
        w.cycles_from = now + 1;
        w.gap = fresh;
        prof::WarpView v = w.gap.view;
        v.progressed = ((progress_ >> slot) & 1) != 0;
        v.stole = ((stolen_ >> slot) & 1) != 0;
        // Seeded bug (check builds): the stored view keeps this
        // cycle's progress bit — prof.gap_view_frozen catches it.
        if (v.progressed && COOPRT_MUTATE(StaleGapView))
            w.gap.view.progressed = true;
        if (COOPRT_MUTATE(ProfMisattribution))
            continue;
        notify(cycles_mask_, [&](RtObserver &o) {
            o.onWarpCycles(int(slot), v, w.gap.phase, 1, w.gap.lanes);
        });
    }
    accounted_ = now;
}

void
RtUnit::creditGap(std::size_t slot, std::uint64_t until)
{
    WarpEntry &w = warps_[slot];
    if (w.cycles_from >= until)
        return;
    const std::uint64_t weight = until - w.cycles_from;
    w.cycles_from = until;
    // Seeded bug (check builds): this warp's cycles silently vanish
    // from the attribution — the class of defect
    // prof.bucket_conservation exists to catch.
    if (COOPRT_MUTATE(ProfMisattribution))
        return;
    notify(cycles_mask_, [&](RtObserver &o) {
        o.onWarpCycles(int(slot), w.gap.view, w.gap.phase, weight,
                       w.gap.lanes);
    });
}

void
RtUnit::flushCycles()
{
    if (cycles_mask_ == 0 || accounted_ == kNever)
        return;
    for (std::size_t slot = 0; slot < warps_.size(); ++slot)
        if (warps_[slot].valid)
            creditGap(slot, accounted_ + 1);
}

std::int8_t
RtUnit::waitLevel(std::size_t slot) const
{
    const WaitTrack &t = waits_[slot];
    if (((tied_ >> slot) & 1) == 0)
        return t.level;
    for (const Response &r : responses_) {
        if (std::size_t(r.slot) != slot || r.ready != t.ready)
            continue;
        // Seeded bug: the tie goes to the tracked level, not to the
        // heap's array order — prof.gap_view_frozen catches it.
        if (r.level != t.level && COOPRT_MUTATE(LevelTieIgnored))
            return t.level;
        return r.level;
    }
    return t.level;
}

RtUnit::CycleView
RtUnit::cycleView(const WarpEntry &w, std::int8_t level) const
{
    CycleView c;
    prof::WarpView &v = c.view;
    v.coop = cfg_.coop;
    v.outstanding = w.outstanding;
    const std::uint32_t ready = w.ready();
    v.any_stack_work = w.work != 0;
    v.has_ready = ready != 0;
    v.has_idle_lane = ~w.busy() != 0;
    v.ready_all_stale = v.has_ready && (ready & ~w.stale) == 0;
    if (cfg_.coop && !v.has_ready) {
        // LBU-only progress: a helper/main pair in some subwarp
        // (exactly the runLbu selection criteria).
        const std::uint32_t hs = helpers(w), ms = mains(w);
        for (int g = 0;
             g < kWarpSize / cfg_.subwarp_size && !v.lbu_eligible; ++g)
            v.lbu_eligible = (hs & subwarp(g)) != 0 &&
                             (ms & subwarp(g)) != 0;
    }
    if (w.outstanding > 0 && level >= 0)
        v.wait_level = prof::MemLevel(level);
    c.phase = prof::phaseOf(w.consumed, v.any_stack_work);
    c.lanes = laneStatus(w); // Fig. 4 axes
    return c;
}

std::uint64_t
RtUnit::nextEventCycle(std::uint64_t now) const
{
    if (resident_ == 0)
        return kNever;

    for (const WarpEntry &w : warps_) {
        if (!w.valid)
            continue;
        if (w.ready() != 0)
            return now; // issueable (or stale-droppable) work
        // A helper and a main anywhere in the warp, not per subwarp:
        // a tick also runs the pop-time drops.
        if (cfg_.coop && helpers(w) != 0 && mains(w) != 0)
            return now; // LBU can move a node
    }

    if (!responses_.empty()) {
        const std::uint64_t r = responses_.front().ready;
        return r > now ? r : now;
    }

    // Resident warps with no work and no responses should have been
    // retired already; let the next tick clean them up.
    return now;
}

ThreadStatusCounts
RtUnit::laneStatus(const WarpEntry &w)
{
    ThreadStatusCounts c;
    c.busy = std::uint64_t(std::popcount(w.busy()));
    c.waiting = std::uint64_t(std::popcount(w.active & ~w.busy()));
    c.inactive = std::uint64_t(std::popcount(~(w.active | w.busy())));
    return c;
}

ThreadStatusCounts
RtUnit::threadStatus() const
{
    ThreadStatusCounts c;
    for (const WarpEntry &w : warps_) {
        if (!w.valid)
            continue;
        const ThreadStatusCounts l = laneStatus(w);
        c.busy += l.busy;
        c.waiting += l.waiting;
        c.inactive += l.inactive;
    }
    return c;
}

void
RtUnit::sharePredictor(const RtUnit &other)
{
    if (cfg_.intersection_predictor && other.predictor_)
        predictor_ = other.predictor_;
}

#if COOPRT_CHECK_ENABLED
void
RtUnit::waitLevels(WaitLevels &level) const
{
    std::array<std::uint64_t, 64> best;
    std::fill_n(best.begin(), warps_.size(), kNever);
    std::fill_n(level.begin(), warps_.size(), std::int8_t(-1));
    for (const Response &r : responses_) {
        if (r.ready < best[std::size_t(r.slot)]) {
            best[std::size_t(r.slot)] = r.ready;
            level[std::size_t(r.slot)] = r.level;
        }
    }
}

void
RtUnit::auditGapViews(std::uint64_t now) const
{
    auto show = [](const CycleView &c) {
        const prof::WarpView &v = c.view;
        return "{progressed=" + std::to_string(v.progressed) +
               " stole=" + std::to_string(v.stole) +
               " ready=" + std::to_string(v.has_ready) +
               " all_stale=" + std::to_string(v.ready_all_stale) +
               " lbu=" + std::to_string(v.lbu_eligible) +
               " outstanding=" + std::to_string(v.outstanding) +
               " level=" + std::to_string(int(v.wait_level)) +
               " work=" + std::to_string(v.any_stack_work) +
               " idle_lane=" + std::to_string(v.has_idle_lane) +
               " phase=" + std::to_string(int(c.phase)) +
               " lanes=" + std::to_string(c.lanes.busy) + "/" +
               std::to_string(c.lanes.waiting) + "/" +
               std::to_string(c.lanes.inactive) + "}";
    };
    WaitLevels level;
    waitLevels(level);
    for (std::size_t slot = 0; slot < warps_.size(); ++slot) {
        const WarpEntry &w = warps_[slot];
        if (!w.valid)
            continue;
        const CycleView fresh = cycleView(w, level[slot]);
        COOPRT_AUDIT(check_label_, "prof.gap_view_frozen", now,
                     w.gap == fresh,
                     "slot " + std::to_string(slot) + ": stored " +
                         show(w.gap) + " recomputed " + show(fresh));
    }
}

void
RtUnit::auditInvariants(std::uint64_t now) const
{
    // Fig. 7 step 1: one coalesced node fetch per RT unit per cycle.
    COOPRT_AUDIT(check_label_, "rtunit.single_issue_per_cycle", now,
                 audit_issues_this_tick_ <= 1,
                 std::to_string(audit_issues_this_tick_) +
                     " fetches issued in one cycle");

    // Warp-buffer residency ledger and trace_ray conservation.
    int valid = 0;
    for (const WarpEntry &w : warps_)
        valid += w.valid ? 1 : 0;
    COOPRT_AUDIT(check_label_, "rtunit.resident_count", now,
                 valid == resident_,
                 "resident_=" + std::to_string(resident_) + " but " +
                     std::to_string(valid) + " valid entries");
    COOPRT_AUDIT(check_label_, "rtunit.warp_conservation", now,
                 audit_submitted_ ==
                     stats_.retired_warps + std::uint64_t(valid),
                 "submitted=" + std::to_string(audit_submitted_) +
                     " retired=" +
                     std::to_string(stats_.retired_warps) +
                     " resident=" + std::to_string(valid));

    // Response FIFO vs warp bookkeeping: every in-flight response
    // targets a live slot, per-slot outstanding counts match, and the
    // pending threads are exactly the consumers awaiting data.
    std::vector<int> fifo(warps_.size(), 0);
    std::vector<std::uint32_t> consumers(warps_.size(), 0);
    for (const Response &r : responses_) {
        const bool slot_ok = r.slot >= 0 &&
                             r.slot < int(warps_.size()) &&
                             warps_[std::size_t(r.slot)].valid;
        COOPRT_AUDIT(check_label_, "rtunit.response_slot_valid", now,
                     slot_ok,
                     "response (ready " + std::to_string(r.ready) +
                         ") targets dead slot " +
                         std::to_string(r.slot));
        if (!slot_ok)
            continue;
        fifo[std::size_t(r.slot)]++;
        consumers[std::size_t(r.slot)] |= r.consumers;
    }

    for (std::size_t i = 0; i < warps_.size(); ++i) {
        const WarpEntry &w = warps_[i];
        if (!w.valid) {
            COOPRT_AUDIT(check_label_,
                         "rtunit.outstanding_matches_fifo", now,
                         fifo[i] == 0,
                         "slot " + std::to_string(i) +
                             " invalid but has " +
                             std::to_string(fifo[i]) + " responses");
            continue;
        }
        COOPRT_AUDIT(check_label_, "rtunit.outstanding_matches_fifo",
                     now, w.outstanding == fifo[i],
                     "slot " + std::to_string(i) + " outstanding=" +
                         std::to_string(w.outstanding) + " but " +
                         std::to_string(fifo[i]) +
                         " responses in flight");

        COOPRT_AUDIT(check_label_, "rtunit.pending_matches_responses",
                     now, w.pending == consumers[i],
                     "slot " + std::to_string(i) + " pending mask " +
                         std::to_string(w.pending) +
                         " != consumer union " +
                         std::to_string(consumers[i]));

        // The stack bits against the stacks themselves, and the stale
        // bits against each TOS and its owner's search limit.
        std::uint32_t work = 0;
        std::uint32_t deep = 0;
        std::uint32_t stale = 0;
        for (int t = 0; t < kWarpSize; ++t) {
            const ThreadState &th = w.th[std::size_t(t)];
            const std::size_t depth = th.stack.size();
            work |= std::uint32_t(depth > 0) << t;
            deep |= std::uint32_t(depth > 1) << t;
            if (depth > 0)
                stale |= std::uint32_t(staleTos(w, th)) << t;
        }
        COOPRT_AUDIT(check_label_, "rtunit.lane_masks_consistent", now,
                     w.work == work && w.deep == deep &&
                         w.stale == stale,
                     "slot " + std::to_string(i) +
                         " work/deep/stale masks " +
                         std::to_string(w.work) + "/" +
                         std::to_string(w.deep) + "/" +
                         std::to_string(w.stale) + " but stacks give " +
                         std::to_string(work) + "/" +
                         std::to_string(deep) + "/" +
                         std::to_string(stale));

        for (int t = 0; t < kWarpSize; ++t) {
            const ThreadState &th = w.th[std::size_t(t)];
            const bool active = ((w.active >> t) & 1u) != 0;

            COOPRT_AUDIT(check_label_, "rtunit.stack_depth_bound",
                         now, th.stack.size() <= check_stack_bound_,
                         "slot " + std::to_string(i) + " thread " +
                             std::to_string(t) + " stack depth " +
                             std::to_string(th.stack.size()) +
                             " > bound " +
                             std::to_string(check_stack_bound_));

            for (const StackEntry &e : th.stack) {
                const int m = e.main;
                // Helpers may only hold work of an active ray owned
                // inside their own subwarp (their own tid when the
                // LBU is off).
                const bool scope_ok =
                    m >= 0 && m < kWarpSize &&
                    ((w.active >> m) & 1u) != 0 &&
                    (cfg_.coop ? m / cfg_.subwarp_size ==
                                     t / cfg_.subwarp_size
                               : m == t);
                COOPRT_AUDIT(check_label_, "rtunit.stack_owner_scope",
                             now, scope_ok,
                             "slot " + std::to_string(i) +
                                 " thread " + std::to_string(t) +
                                 " holds entry owned by " +
                                 std::to_string(m));
                const bool ref_ok =
                    e.ref.isLeaf()
                        ? e.ref.firstSlot() + e.ref.primCount() <=
                              bvh_.primCount()
                        : e.ref.nodeIndex() < bvh_.nodeCount();
                COOPRT_AUDIT(check_label_, "rtunit.stack_ref_valid",
                             now, ref_ok,
                             "slot " + std::to_string(i) +
                                 " thread " + std::to_string(t) +
                                 " ref raw " +
                                 std::to_string(e.ref.raw()));
            }

            // Hit-state consistency: the min_thit register and the
            // hit record move together (Section 5.3's invariant that
            // helpers update the main thread's registers).
            const float mt = w.min_thit[std::size_t(t)];
            const geom::HitRecord &rec = w.hit[std::size_t(t)];
            const bool hit_ok =
                active ? (rec.hit() == (mt != geom::kNoHit) &&
                          (!rec.hit() || mt <= rec.thit))
                       : (!rec.hit() && mt == geom::kNoHit);
            COOPRT_AUDIT(check_label_, "rtunit.hit_state_consistent",
                         now, hit_ok,
                         "slot " + std::to_string(i) + " thread " +
                             std::to_string(t) + " min_thit=" +
                             std::to_string(mt) + " rec.thit=" +
                             std::to_string(rec.thit));
        }
    }
}
#endif // COOPRT_CHECK_ENABLED

} // namespace cooprt::rtunit
