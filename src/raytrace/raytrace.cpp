#include "raytrace/raytrace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <utility>

#include "geom/rng.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/json.hpp"
#include "trace/registry.hpp"

namespace cooprt::raytrace {

namespace {

constexpr const char *kEventNames[kNumEventKinds] = {
    "launch",        "node_pop",       "node_push",
    "fetch_issued",  "fetch_consumed", "leaf_test",
    "steal_donated", "steal_received", "subwarp_reform",
    "retire",
};

/** Static-lifetime slice name for a fetch served at @p level. */
const char *
fetchSliceName(int level)
{
    switch (level) {
    case 0: return "fetch_l1";
    case 1: return "fetch_l2";
    default: return "fetch_dram";
    }
}

prof::Bucket
starvedBucket(int level)
{
    switch (level) {
    case 0: return prof::Bucket::StarvedL1;
    case 1: return prof::Bucket::StarvedL2;
    default: return prof::Bucket::StarvedDram;
    }
}

} // namespace

const char *
eventName(EventKind k)
{
    return kEventNames[std::size_t(k)];
}

std::uint64_t
RayRecord::lastEventCycle() const
{
    // The closing Retire event lands on every ray at the same cycle;
    // skip it so "latest event" still discriminates between rays.
    for (auto it = events.rbegin(); it != events.rend(); ++it)
        if (it->kind != EventKind::Retire)
            return it->cycle;
    return launch_cycle;
}

const RayRecord *
WarpRecord::rayAt(int lane) const
{
    for (const auto &r : rays)
        if (r.lane == lane)
            return &r;
    return nullptr;
}

// ---------------------------------------------------------------------------
// UnitRecorder
// ---------------------------------------------------------------------------

UnitRecorder::UnitRecorder(int sm, const RecorderConfig *cfg)
    : sm_(sm), cfg_(cfg)
{
    live_rec_.fill(-1);
    last_rec_.fill(-1);
    for (auto &lanes : lane_ray_)
        lanes.fill(-1);
}

void
UnitRecorder::reset()
{
    warps_seen_ = 0;
    warps_sampled_ = 0;
    live_rec_.fill(-1);
    last_rec_.fill(-1);
    for (auto &lanes : lane_ray_)
        lanes.fill(-1);
    records_.clear();
    stats_ = RecorderStats{};
}

bool
UnitRecorder::append(RayRecord &ray, const RayEvent &ev)
{
    if (ray.events.size() >= cfg_->max_events_per_ray) {
        ray.events_dropped++;
        stats_.events_dropped++;
        return false;
    }
    ray.events.push_back(ev);
    stats_.events_recorded++;
    return true;
}

int
UnitRecorder::rayIndex(int slot, int lane) const
{
    if (lane < 0 || lane >= kLanes)
        return -1;
    return lane_ray_[std::size_t(slot)][std::size_t(lane)];
}

RayRecord *
UnitRecorder::liveRay(int slot, int owner)
{
    const std::int32_t rec = live_rec_[std::size_t(slot)];
    if (rec < 0)
        return nullptr;
    const int ri = rayIndex(slot, owner);
    if (ri < 0)
        return nullptr;
    return &records_[std::size_t(rec)].rays[std::size_t(ri)];
}

void
UnitRecorder::onSubmit(int slot, std::uint32_t active_mask,
                       std::uint32_t root_mask, std::uint64_t now)
{
    live_rec_[std::size_t(slot)] = -1;
    last_rec_[std::size_t(slot)] = -1;
    const std::uint64_t ordinal = warps_seen_++;
    stats_.warps_seen++;
    if (ordinal < cfg_->warp_skip)
        return;
    if (cfg_->max_warps_per_unit > 0 &&
        warps_sampled_ >= cfg_->max_warps_per_unit)
        return;
    if (active_mask == 0)
        return;

    // Deterministic lane selection: rank the active lanes by a hash
    // of (seed, sm, submission ordinal, lane) and keep the K
    // smallest. Nothing here depends on host threading, so records
    // are byte-identical for every --jobs value.
    std::uint32_t sampled = 0;
    if (cfg_->sample_k >= kLanes) {
        sampled = active_mask;
    } else if (cfg_->sample_k > 0) {
        const std::uint64_t base = geom::mix64(
            cfg_->seed ^
            geom::mix64((std::uint64_t(sm_) << 40) | ordinal));
        std::array<std::pair<std::uint64_t, int>, kLanes> rank;
        int n = 0;
        for (int lane = 0; lane < kLanes; ++lane)
            if (active_mask & (1u << lane))
                rank[std::size_t(n++)] = {
                    geom::mix64(base + std::uint64_t(lane)), lane};
        std::sort(rank.begin(), rank.begin() + n);
        for (int i = 0; i < n && i < cfg_->sample_k; ++i)
            sampled |= 1u << rank[std::size_t(i)].second;
    }
    if (sampled == 0)
        return;

    WarpRecord w;
    w.sm = sm_;
    w.ordinal = ordinal;
    w.slot = slot;
    w.submit_cycle = now;
    w.active_mask = active_mask;
    w.sampled_mask = sampled;
    auto &lanes = lane_ray_[std::size_t(slot)];
    lanes.fill(-1);
    for (int lane = 0; lane < kLanes; ++lane) {
        if (!(sampled & (1u << lane)))
            continue;
        lanes[std::size_t(lane)] = std::int8_t(w.rays.size());
        RayRecord r;
        r.lane = lane;
        r.launch_cycle = now;
        const bool rooted = (root_mask & (1u << lane)) != 0;
        r.live_entries = rooted ? 1 : 0;
        r.stats.stack_hwm = std::uint64_t(r.live_entries);
        append(r, RayEvent{now, 0, EventKind::Launch, std::int8_t(lane),
                           std::int8_t(rooted ? 1 : 0)});
        w.rays.push_back(std::move(r));
        stats_.rays_sampled++;
    }
    if (cfg_->lane_timeline)
        for (int lane = 0; lane < kLanes; ++lane)
            w.lane_edges.push_back({now, std::int8_t(lane),
                                    (root_mask & (1u << lane)) != 0});
    warps_sampled_++;
    stats_.warps_sampled++;
    records_.push_back(std::move(w));
    live_rec_[std::size_t(slot)] = std::int32_t(records_.size() - 1);
    last_rec_[std::size_t(slot)] = live_rec_[std::size_t(slot)];
}

void
UnitRecorder::onWarpId(int slot, int warp_id)
{
    const std::int32_t rec = last_rec_[std::size_t(slot)];
    if (rec >= 0)
        records_[std::size_t(rec)].warp_id = warp_id;
}

void
UnitRecorder::onFetch(const rtunit::FetchEvent &f, std::uint64_t now)
{
    if (live_rec_[std::size_t(f.slot)] < 0)
        return;
    // Per consumer lane, in lane order: its pop, then the fetch.
    const int level = int(f.level);
    for (int lane = 0; lane < kLanes; ++lane) {
        if (!(f.consumers & (1u << lane)))
            continue;
        RayRecord *r = liveRay(f.slot, f.mains[std::size_t(lane)]);
        if (r == nullptr)
            continue;
        r->live_entries--;
        r->stats.node_pops++;
        append(*r, RayEvent{now, f.ref, EventKind::NodePop,
                            std::int8_t(lane), 0});
        if (level >= 0 && level < 3)
            r->stats.level_hist[std::size_t(level)]++;
        append(*r, RayEvent{now, f.ref, EventKind::FetchIssued,
                            std::int8_t(lane), std::int8_t(level)});
    }
}

void
UnitRecorder::onStaleDrop(int slot, int lane, int owner,
                          std::uint32_t ref, std::uint64_t now)
{
    RayRecord *r = liveRay(slot, owner);
    if (r == nullptr)
        return;
    r->live_entries--;
    r->stats.stale_pops++;
    append(*r, RayEvent{now, ref, EventKind::NodePop, std::int8_t(lane),
                        1});
}

void
UnitRecorder::onConsume(int slot, int lane, int owner, std::uint32_t ref,
                        prof::MemLevel level, std::uint64_t now)
{
    RayRecord *r = liveRay(slot, owner);
    if (r == nullptr)
        return;
    r->stats.node_visits++;
    append(*r, RayEvent{now, ref, EventKind::FetchConsumed,
                        std::int8_t(lane), std::int8_t(level)});
}

void
UnitRecorder::onPush(int slot, int lane, int owner, std::uint32_t ref,
                     std::uint64_t now)
{
    RayRecord *r = liveRay(slot, owner);
    if (r == nullptr)
        return;
    r->live_entries++;
    r->stats.node_pushes++;
    r->stats.stack_hwm =
        std::max(r->stats.stack_hwm, std::uint64_t(r->live_entries));
    append(*r, RayEvent{now, ref, EventKind::NodePush, std::int8_t(lane),
                        -1});
}

void
UnitRecorder::onLeafTests(int slot, int lane, int owner,
                          std::uint32_t tests, std::uint64_t now)
{
    RayRecord *r = tests == 0 ? nullptr : liveRay(slot, owner);
    if (r == nullptr)
        return;
    r->stats.leaf_tests += tests;
    append(*r, RayEvent{now, tests, EventKind::LeafTest,
                        std::int8_t(lane), -1});
}

void
UnitRecorder::onSteal(int slot, int donor, int recipient, int owner,
                      bool reform, std::uint64_t now)
{
    const std::int32_t rec = live_rec_[std::size_t(slot)];
    if (rec < 0)
        return;
    WarpRecord &w = records_[std::size_t(rec)];

    // The steal-event conservation ledger (ray.event_conservation):
    // every appendable steal event bumps the expected count before
    // the mutation gate, so a RayProvenanceDrop — the recorder
    // "forgetting" an event — is caught at warp retirement.
    const auto appendSteal = [&](RayRecord &r, const RayEvent &ev) {
        if (r.events.size() >= cfg_->max_events_per_ray) {
            r.events_dropped++;
            stats_.events_dropped++;
            return;
        }
        COOPRT_CHECK_ONLY(w.audit_steal_expected++;)
        if (COOPRT_MUTATE(RayProvenanceDrop))
            return;
        r.events.push_back(ev);
        stats_.events_recorded++;
    };

    const int oi = rayIndex(slot, owner);
    const int hi = rayIndex(slot, recipient);
    if (oi >= 0 || hi >= 0)
        stats_.steal_events++;
    if (oi >= 0) {
        RayRecord &r = w.rays[std::size_t(oi)];
        r.stats.steals_out++;
        appendSteal(r, RayEvent{now, 0, EventKind::StealDonated,
                                std::int8_t(donor),
                                std::int8_t(recipient)});
        if (reform)
            append(r, RayEvent{now, 0, EventKind::SubwarpReform,
                               std::int8_t(recipient),
                               std::int8_t(donor)});
    }
    if (hi >= 0) {
        RayRecord &h = w.rays[std::size_t(hi)];
        h.stats.steals_in++;
        appendSteal(h, RayEvent{now, 0, EventKind::StealReceived,
                                std::int8_t(recipient),
                                std::int8_t(donor)});
    }
}

void
UnitRecorder::onLaneEdges(int slot, std::uint32_t busy_mask,
                          std::uint64_t now)
{
    const std::int32_t rec = live_rec_[std::size_t(slot)];
    if (rec < 0)
        return;
    for (int lane = 0; lane < kLanes; ++lane)
        records_[std::size_t(rec)].lane_edges.push_back(
            {now, std::int8_t(lane), (busy_mask & (1u << lane)) != 0});
}

void
UnitRecorder::onRetire(int slot, std::uint64_t now)
{
    const std::int32_t rec = live_rec_[std::size_t(slot)];
    if (rec < 0)
        return;
    WarpRecord &w = records_[std::size_t(rec)];
    w.retire_cycle = now;
    w.retired = true;
    for (auto &r : w.rays) {
        r.retire_cycle = now;
        append(r, RayEvent{now, 0, EventKind::Retire,
                           std::int8_t(r.lane), -1});
    }
    if (cfg_->lane_timeline)
        for (int lane = 0; lane < kLanes; ++lane)
            w.lane_edges.push_back({now, std::int8_t(lane), false});
    stats_.warps_retired++;

#if COOPRT_CHECK_ENABLED
    std::uint64_t recorded = 0;
    for (const auto &r : w.rays)
        for (const auto &ev : r.events)
            if (ev.kind == EventKind::StealDonated ||
                ev.kind == EventKind::StealReceived)
                recorded++;
    COOPRT_AUDIT(label_, "ray.event_conservation", now,
                 recorded == w.audit_steal_expected,
                 "steal events recorded " + std::to_string(recorded) +
                     " != expected " +
                     std::to_string(w.audit_steal_expected) + " (warp ord " +
                     std::to_string(w.ordinal) + ")");
#endif

    live_rec_[std::size_t(slot)] = -1;
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

const CriticalPathEntry *
CriticalPathReport::slowest() const
{
    const CriticalPathEntry *best = nullptr;
    for (const auto &e : per_sm)
        if (best == nullptr || e.latency() > best->latency())
            best = &e;
    return best;
}

const CriticalPathEntry *
Summary::slowest() const
{
    const CriticalPathEntry *best = nullptr;
    for (const auto &e : critical)
        if (best == nullptr || e.latency() > best->latency())
            best = &e;
    return best;
}

CriticalPathEntry
attributeCriticalPath(const WarpRecord &w)
{
    CriticalPathEntry e;
    e.sm = w.sm;
    e.ordinal = w.ordinal;
    e.warp_id = w.warp_id;
    e.submit_cycle = w.submit_cycle;
    e.retire_cycle = w.retire_cycle;

    // The retirement-blocking ray: among the sampled rays, the one
    // whose provenance log reaches furthest (with K < kLanes this is
    // a sampling approximation of the true blocker — see DESIGN §13).
    const RayRecord *blocking = nullptr;
    for (const auto &r : w.rays)
        if (blocking == nullptr ||
            r.lastEventCycle() > blocking->lastEventCycle())
            blocking = &r;
    const std::uint64_t n = e.latency();
    if (blocking == nullptr) {
        e.buckets[std::size_t(prof::Bucket::IdleNoRay)] = n;
        return e;
    }
    e.blocking_lane = blocking->lane;
    e.blocking_last_event = blocking->lastEventCycle();
    e.ray_node_visits = blocking->stats.node_visits;
    e.ray_steals_in = blocking->stats.steals_in;
    e.ray_steals_out = blocking->stats.steals_out;
    if (n == 0)
        return e;

    // One bucket per warp-latency cycle, painted lowest priority
    // first so later passes win: fetch_queued (default: the ray has
    // work but the unit serves other lanes) -> starved_l1/l2/dram
    // over in-flight fetch intervals (deepest level painted last) ->
    // lbu_steal on steal-event cycles -> issue_compute on progress
    // cycles -> idle_no_ray for the tail after the last event.
    std::vector<std::uint8_t> cls(
        n, std::uint8_t(prof::Bucket::FetchQueued));
    const auto mark = [&](std::uint64_t cycle, prof::Bucket b) {
        if (cycle >= w.submit_cycle && cycle < w.retire_cycle)
            cls[cycle - w.submit_cycle] = std::uint8_t(b);
    };
    constexpr std::uint64_t kNone = ~0ULL;
    for (int level = 0; level < 3; ++level) {
        std::array<std::uint64_t, kLanes> open;
        open.fill(kNone);
        for (const auto &ev : blocking->events) {
            const std::size_t lane = std::size_t(ev.lane);
            if (ev.kind == EventKind::FetchIssued &&
                int(ev.aux) == level) {
                open[lane] = ev.cycle;
            } else if (ev.kind == EventKind::FetchConsumed &&
                       int(ev.aux) == level && open[lane] != kNone) {
                for (std::uint64_t c = open[lane]; c < ev.cycle; ++c)
                    mark(c, starvedBucket(level));
                open[lane] = kNone;
            }
        }
        for (std::size_t lane = 0; lane < kLanes; ++lane)
            if (open[lane] != kNone)
                for (std::uint64_t c = open[lane]; c < w.retire_cycle;
                     ++c)
                    mark(c, starvedBucket(level));
    }
    for (const auto &ev : blocking->events)
        switch (ev.kind) {
        case EventKind::StealDonated:
        case EventKind::StealReceived:
        case EventKind::SubwarpReform:
            mark(ev.cycle, prof::Bucket::LbuSteal);
            break;
        default:
            break;
        }
    for (const auto &ev : blocking->events)
        switch (ev.kind) {
        case EventKind::Launch:
        case EventKind::NodePop:
        case EventKind::NodePush:
        case EventKind::FetchIssued:
        case EventKind::FetchConsumed:
        case EventKind::LeafTest:
            mark(ev.cycle, prof::Bucket::IssueCompute);
            break;
        default:
            break;
        }
    for (std::uint64_t c = e.blocking_last_event + 1;
         c < w.retire_cycle; ++c)
        mark(c, prof::Bucket::IdleNoRay);

    for (std::uint64_t c = 0; c < n; ++c)
        e.buckets[std::size_t(cls[std::size_t(c)])]++;
    return e;
}

void
writeCriticalPath(std::ostream &os, const CriticalPathReport &r)
{
    os << "critical path: slowest sampled warp per SM, cycles "
          "attributed along its blocking ray\n";
    os << std::left << std::setw(4) << "sm" << std::right
       << std::setw(6) << "warp" << std::setw(9) << "latency"
       << std::setw(6) << "lane" << std::setw(8) << "visits"
       << std::setw(6) << "s.in" << std::setw(7) << "s.out";
    for (int b = 0; b < prof::kNumBuckets; ++b)
        os << std::setw(17) << prof::bucketName(prof::Bucket(b));
    os << '\n';
    for (const auto &e : r.per_sm) {
        os << std::left << std::setw(4) << e.sm << std::right
           << std::setw(6) << e.warp_id << std::setw(9) << e.latency()
           << std::setw(6) << e.blocking_lane << std::setw(8)
           << e.ray_node_visits << std::setw(6) << e.ray_steals_in
           << std::setw(7) << e.ray_steals_out;
        for (int b = 0; b < prof::kNumBuckets; ++b)
            os << std::setw(17) << e.buckets[std::size_t(b)];
        os << '\n';
    }
    if (const CriticalPathEntry *s = r.slowest())
        os << "slowest: sm" << s->sm << " warp " << s->warp_id << " ("
           << s->latency() << " cycles, blocking lane "
           << s->blocking_lane << ")\n";
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

Recorder::~Recorder()
{
    if (registry_ != nullptr)
        registry_->unregisterOwner(this);
}

UnitRecorder &
Recorder::unit(int sm)
{
    if (sm >= int(units_.size()))
        units_.resize(std::size_t(sm) + 1);
    auto &u = units_[std::size_t(sm)];
    if (u == nullptr) {
        u = std::make_unique<UnitRecorder>(sm, &cfg_);
        u->setCheckLabel("raytrace.sm" + std::to_string(sm));
    }
    return *u;
}

void
Recorder::reset()
{
    for (auto &u : units_)
        if (u != nullptr)
            u->reset();
}

RecorderStats
Recorder::stats() const
{
    RecorderStats s;
    for (const auto &u : units_) {
        if (u == nullptr)
            continue;
        const RecorderStats &us = u->stats();
        s.warps_seen += us.warps_seen;
        s.warps_sampled += us.warps_sampled;
        s.warps_retired += us.warps_retired;
        s.rays_sampled += us.rays_sampled;
        s.events_recorded += us.events_recorded;
        s.events_dropped += us.events_dropped;
        s.steal_events += us.steal_events;
    }
    return s;
}

std::vector<const WarpRecord *>
Recorder::warps() const
{
    std::vector<const WarpRecord *> out;
    for (const auto &u : units_)
        if (u != nullptr)
            for (const auto &w : u->warps())
                out.push_back(&w);
    return out;
}

const WarpRecord *
Recorder::slowestWarp(int sm) const
{
    if (sm < 0 || sm >= int(units_.size()) ||
        units_[std::size_t(sm)] == nullptr)
        return nullptr;
    const WarpRecord *best = nullptr;
    for (const auto &w : units_[std::size_t(sm)]->warps())
        if (w.retired && (best == nullptr || w.latency() > best->latency()))
            best = &w;
    return best;
}

void
Recorder::registerMetrics(trace::Registry &reg)
{
    registry_ = &reg;
    reg.probe("ray.warps_seen",
              [this] { return double(stats().warps_seen); }, this);
    reg.probe("ray.warps_sampled",
              [this] { return double(stats().warps_sampled); }, this);
    reg.probe("ray.warps_retired",
              [this] { return double(stats().warps_retired); }, this);
    reg.probe("ray.rays_sampled",
              [this] { return double(stats().rays_sampled); }, this);
    reg.probe("ray.events_recorded",
              [this] { return double(stats().events_recorded); }, this);
    reg.probe("ray.events_dropped",
              [this] { return double(stats().events_dropped); }, this);
    reg.probe("ray.steal_events",
              [this] { return double(stats().steal_events); }, this);
}

void
Recorder::emitPerfetto(trace::Tracer &tracer) const
{
    // Track ids: pids are SM ids (shared with the SM trace tracks);
    // tids start far above the GPU warp-id range so ray tracks never
    // collide with the per-warp "trace_ray" slices from the SMs.
    constexpr int kTrackBase = 1000000;
    for (const WarpRecord *wp : warps()) {
        const WarpRecord &w = *wp;
        if (!w.retired)
            continue;
        const int tid0 = kTrackBase + int(w.ordinal) * (kLanes + 1);
        std::string label = "rays ";
        if (w.warp_id >= 0) {
            label += 'w';
            label += std::to_string(w.warp_id);
        } else {
            label += "ord";
            label += std::to_string(w.ordinal);
        }
        tracer.threadName(w.sm, tid0, label);
        tracer.complete("ray", "warp", w.sm, tid0, w.submit_cycle,
                        w.latency());
        for (const auto &r : w.rays) {
            const int tid = tid0 + 1 + r.lane;
            tracer.threadName(w.sm, tid,
                              label + " lane " + std::to_string(r.lane));
            tracer.complete("ray", "ray", w.sm, tid, r.launch_cycle,
                            r.retire_cycle - r.launch_cycle);
            std::array<const RayEvent *, kLanes> open{};
            for (const auto &ev : r.events) {
                const std::size_t lane = std::size_t(ev.lane);
                switch (ev.kind) {
                case EventKind::FetchIssued:
                    open[lane] = &ev;
                    break;
                case EventKind::FetchConsumed:
                    if (const RayEvent *is = open[lane]) {
                        tracer.complete("ray", fetchSliceName(is->aux),
                                        w.sm, tid, is->cycle,
                                        ev.cycle - is->cycle);
                        open[lane] = nullptr;
                    }
                    break;
                case EventKind::LeafTest:
                    tracer.instant("ray", "leaf_test", w.sm, tid,
                                   ev.cycle);
                    break;
                case EventKind::StealDonated:
                    tracer.instant("ray", "steal_out", w.sm, tid,
                                   ev.cycle);
                    break;
                case EventKind::StealReceived:
                    tracer.instant("ray", "steal_in", w.sm, tid,
                                   ev.cycle);
                    break;
                case EventKind::SubwarpReform:
                    tracer.instant("ray", "reform", w.sm, tid,
                                   ev.cycle);
                    break;
                default:
                    break;
                }
            }
        }
    }
}

CriticalPathReport
Recorder::criticalPath() const
{
    CriticalPathReport report;
    for (int sm = 0; sm < int(units_.size()); ++sm)
        if (const WarpRecord *w = slowestWarp(sm))
            report.per_sm.push_back(attributeCriticalPath(*w));
    return report;
}

void
Recorder::writeRayStatsJson(std::ostream &os,
                            const std::string &scene) const
{
    trace::JsonWriter w(os);
    w.open();
    trace::writeSchemaVersion(w);
    if (run_key_.valid())
        trace::writeRunKey(w, run_key_);
    w.field("scene", scene);
    w.field("sample_k", cfg_.sample_k);
    w.field("seed", cfg_.seed);
    const RecorderStats s = stats();
    w.field("warps_seen", s.warps_seen);
    w.field("warps_sampled", s.warps_sampled);
    w.field("warps_retired", s.warps_retired);
    w.field("rays_sampled", s.rays_sampled);
    w.field("events_recorded", s.events_recorded);
    w.field("events_dropped", s.events_dropped);
    w.field("steal_events", s.steal_events);
    w.openArray("warps");
    for (const WarpRecord *wp : warps()) {
        const WarpRecord &wr = *wp;
        w.open();
        w.field("sm", wr.sm);
        w.field("ordinal", wr.ordinal);
        w.field("warp_id", wr.warp_id);
        w.field("submit", wr.submit_cycle);
        w.field("retire", wr.retire_cycle);
        w.field("retired", wr.retired ? "true" : "false");
        w.field("sampled_mask", wr.sampled_mask);
        w.openArray("rays");
        for (const auto &r : wr.rays) {
            w.open();
            w.field("lane", r.lane);
            w.field("launch", r.launch_cycle);
            w.field("retire", r.retire_cycle);
            w.field("node_visits", r.stats.node_visits);
            w.field("node_pops", r.stats.node_pops);
            w.field("stale_pops", r.stats.stale_pops);
            w.field("node_pushes", r.stats.node_pushes);
            w.field("leaf_tests", r.stats.leaf_tests);
            w.field("steals_in", r.stats.steals_in);
            w.field("steals_out", r.stats.steals_out);
            w.field("stack_hwm", r.stats.stack_hwm);
            w.openArray("levels");
            for (const std::uint64_t lv : r.stats.level_hist)
                w.value(lv);
            w.closeArray();
            w.field("events", r.events.size());
            w.field("events_dropped", r.events_dropped);
            w.close();
        }
        w.closeArray();
        w.close();
    }
    w.closeArray();
    w.close();
    os << '\n';
}

void
Recorder::writeRayStatsCsv(std::ostream &os) const
{
    os << "sm,ordinal,warp_id,lane,launch,retire,node_visits,"
          "node_pops,stale_pops,node_pushes,leaf_tests,steals_in,"
          "steals_out,stack_hwm,l1,l2,dram,events\n";
    for (const WarpRecord *wp : warps())
        for (const auto &r : wp->rays)
            os << wp->sm << ',' << wp->ordinal << ',' << wp->warp_id
               << ',' << r.lane << ',' << r.launch_cycle << ','
               << r.retire_cycle << ',' << r.stats.node_visits << ','
               << r.stats.node_pops << ',' << r.stats.stale_pops << ','
               << r.stats.node_pushes << ',' << r.stats.leaf_tests
               << ',' << r.stats.steals_in << ',' << r.stats.steals_out
               << ',' << r.stats.stack_hwm << ','
               << r.stats.level_hist[0] << ',' << r.stats.level_hist[1]
               << ',' << r.stats.level_hist[2] << ','
               << r.events.size() << '\n';
}

Summary
Recorder::summary() const
{
    Summary s;
    s.enabled = true;
    s.stats = stats();
    s.critical = criticalPath().per_sm;
    return s;
}

stats::TimelineRecorder
laneTimeline(const WarpRecord &w)
{
    stats::TimelineRecorder rec(kLanes);
    for (const auto &e : w.lane_edges)
        rec.setBusy(e.lane, e.cycle, e.busy);
    return rec;
}

} // namespace cooprt::raytrace
