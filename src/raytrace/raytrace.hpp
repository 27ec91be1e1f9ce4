/**
 * @file
 * Ray-level provenance tracing (`cooprt::raytrace`).
 *
 * The trace/prof layers (DESIGN.md §9/§11) aggregate counters and
 * MECE cycle buckets; they can say *how many* cycles the RT units
 * spent starved on DRAM, but not *which ray* a warp was waiting on
 * when it became the slowest warp of Fig. 14, nor what that ray's
 * walk through the BVH looked like. This subsystem closes the gap:
 * a compile-always, runtime-enabled recorder samples K rays per
 * warp and logs every lifecycle event of each sampled ray inside
 * `RtUnit` (as an `rtunit::RtObserver`) — launch, node pop/push,
 * fetch issued (with the serving memory level), fetch response
 * consumed, leaf test, LBU steal donated/received, subwarp reform,
 * retirement — each stamped with the cycle it happened on.
 *
 * Three exports are derived from the records:
 *   1. per-warp Perfetto tracks through `trace::Tracer`
 *      (`Recorder::emitPerfetto`) — one track group per sampled
 *      warp, one sub-track per sampled ray, slices per phase;
 *   2. a critical-path report (`Recorder::criticalPath`) naming the
 *      slowest sampled warp per SM, its retirement-blocking ray,
 *      and that ray's cycles attributed to the `prof` bucket
 *      taxonomy;
 *   3. a `raystats` JSON/CSV summary (`writeRayStatsJson`/`Csv`)
 *      with per-ray node-visit counts, stack high-water mark,
 *      steal in/out counts and a memory-level histogram.
 *
 * Determinism contract: whether a (warp, lane) pair is sampled
 * depends only on (config seed, SM id, the warp's per-unit
 * submission ordinal, lane) — never on wall clock, host thread or
 * `--jobs`, so records are bit-stable across campaign worker
 * counts. When no observer is attached the hot paths pay one empty
 * loop per event site (pinned-cycle tests prove bit-identity).
 */

#ifndef COOPRT_RAYTRACE_RAYTRACE_HPP
#define COOPRT_RAYTRACE_RAYTRACE_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "prof/prof.hpp"
#include "rtunit/rt_observer.hpp"
#include "stats/timeline.hpp"
#include "trace/json.hpp"

namespace cooprt::trace {
class Tracer;
class Registry;
} // namespace cooprt::trace

namespace cooprt::raytrace {

/** SIMD width (lanes per warp). */
constexpr int kLanes = rtunit::kWarpSize;

/** Lifecycle event kinds of one sampled ray (DESIGN.md §13 schema). */
enum class EventKind : std::uint8_t {
    /** Ray entered the warp buffer; root pushed on its stack. */
    Launch = 0,
    /** Stack entry popped; `aux` 0 = issued for traversal, 1 = stale. */
    NodePop,
    /** Child node pushed (by any lane working for this ray). */
    NodePush,
    /** Node fetch issued to memory; `aux` = serving level (0/1/2). */
    FetchIssued,
    /** Fetch response consumed; `aux` = serving level (0/1/2). */
    FetchConsumed,
    /** Leaf reached; `value` = triangles intersected this visit. */
    LeafTest,
    /** TOS entry of this ray donated; lane = donor, `aux` = recipient. */
    StealDonated,
    /** This lane received a stolen entry; `aux` = donor lane. */
    StealReceived,
    /** Helper retargeted to this ray; lane = helper, `aux` = donor. */
    SubwarpReform,
    /** Ray's warp retired; closing event. */
    Retire,
};

constexpr int kNumEventKinds = 10;

/** Stable lower-case name for @p k (export/report keys). */
const char *eventName(EventKind k);

/** One cycle-stamped lifecycle event (16 bytes). */
struct RayEvent
{
    std::uint64_t cycle = 0;
    /** Node reference (raw) or triangle-test count; see EventKind. */
    std::uint32_t value = 0;
    EventKind kind = EventKind::Launch;
    /** Lane that executed the event (helpers differ from the owner). */
    std::int8_t lane = -1;
    /** Kind-specific payload: peer lane, memory level, or stale flag. */
    std::int8_t aux = -1;
};

/** Per-ray aggregate counters (the raystats export rows). */
struct RayStats
{
    /** Fetch responses consumed on behalf of this ray. */
    std::uint64_t node_visits = 0;
    /** Stack pops that issued traversal work. */
    std::uint64_t node_pops = 0;
    /** Stack pops eliminated as stale (t_entry >= min_thit). */
    std::uint64_t stale_pops = 0;
    /** Child nodes pushed (root launch excluded). */
    std::uint64_t node_pushes = 0;
    /** Triangles intersected at leaves for this ray. */
    std::uint64_t leaf_tests = 0;
    /** Stolen entries this *lane* received as an LBU helper. */
    std::uint64_t steals_in = 0;
    /** Entries of this *ray* donated to helper lanes. */
    std::uint64_t steals_out = 0;
    /** Stack high-water mark in live entries (wherever they reside). */
    std::uint64_t stack_hwm = 0;
    /** Node fetches by serving level (L1 / L2 / DRAM). */
    std::array<std::uint64_t, 3> level_hist{};
};

/** Full record of one sampled ray, identified by its origin lane. */
struct RayRecord
{
    int lane = -1;
    std::uint64_t launch_cycle = 0;
    std::uint64_t retire_cycle = 0;
    RayStats stats;
    std::vector<RayEvent> events;
    /** Events lost to the per-ray cap (conservation excludes them). */
    std::uint64_t events_dropped = 0;
    /** Live stack entries while recording (HWM bookkeeping). */
    std::int64_t live_entries = 0;

    /** Cycle of the last recorded event (launch_cycle when empty). */
    std::uint64_t lastEventCycle() const;
};

/** One lane busy/idle transition (fig11 timeline reconstruction). */
struct LaneEdge
{
    std::uint64_t cycle = 0;
    std::int8_t lane = -1;
    bool busy = false;
};

/** Everything recorded about one sampled warp. */
struct WarpRecord
{
    int sm = 0;
    /** Per-unit submission ordinal (sampling key; 0-based). */
    std::uint64_t ordinal = 0;
    /** GPU-wide warp id (set post-submit by the SM; -1 in unit tests). */
    int warp_id = -1;
    int slot = -1;
    std::uint64_t submit_cycle = 0;
    std::uint64_t retire_cycle = 0;
    bool retired = false;
    std::uint32_t active_mask = 0;
    std::uint32_t sampled_mask = 0;
    /** One record per sampled lane, ascending lane order. */
    std::vector<RayRecord> rays;
    /** All-lane busy edges (only with RecorderConfig::lane_timeline). */
    std::vector<LaneEdge> lane_edges;
#if COOPRT_CHECK_ENABLED
    /** Steal events that must appear in the logs (conservation). */
    std::uint64_t audit_steal_expected = 0;
#endif

    std::uint64_t latency() const { return retire_cycle - submit_cycle; }
    /** Record of the sampled ray at @p lane, or nullptr. */
    const RayRecord *rayAt(int lane) const;
};

/** Runtime knobs; all defaults are cheap enough for campaigns. */
struct RecorderConfig
{
    /** Rays sampled per warp; >= kLanes samples every active lane. */
    int sample_k = 4;
    /** Mixed into the per-lane sampling hash (determinism contract). */
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    /** Skip the first N warps per unit (fig11 picks a mid-run warp). */
    std::uint64_t warp_skip = 0;
    /** Stop sampling after N warps per unit; 0 = unlimited. */
    std::uint64_t max_warps_per_unit = 0;
    /** Per-ray event cap; excess counted in events_dropped. */
    std::uint64_t max_events_per_ray = 1u << 20;
    /** Record all-lane busy edges (fig11 timelines; costs memory). */
    bool lane_timeline = false;
};

/** Aggregate recorder counters, exported as `ray.*` probes. */
struct RecorderStats
{
    std::uint64_t warps_seen = 0;
    std::uint64_t warps_sampled = 0;
    std::uint64_t warps_retired = 0;
    std::uint64_t rays_sampled = 0;
    std::uint64_t events_recorded = 0;
    std::uint64_t events_dropped = 0;
    std::uint64_t steal_events = 0;
};

/**
 * Per-RT-unit recording surface: it observes one `RtUnit` and keeps
 * the records of the warps it samples; the owning `Recorder`
 * aggregates the results. Unsampled warps are not watched, so the
 * unit sends them no per-lane events. Not thread-safe — one unit is always ticked by one host
 * thread.
 */
class UnitRecorder : public rtunit::RtObserver
{
  public:
    UnitRecorder(int sm, const RecorderConfig *cfg);

    int sm() const { return sm_; }

    /** All-lane busy edges, with RecorderConfig::lane_timeline. */
    bool wantsLaneEdges() const override { return cfg_->lane_timeline; }
    /** Only sampled warps need their per-lane events. */
    bool
    watchesWarp(int slot) const override
    {
        return live_rec_[std::size_t(slot)] >= 0;
    }

    /** Decides sampling for the whole warp and logs the launches. */
    void onSubmit(int slot, std::uint32_t active_mask,
                  std::uint32_t root_mask, std::uint64_t now) override;
    /** Names the warp's record (valid even after an instant retire). */
    void onWarpId(int slot, int warp_id) override;
    void onFetch(const rtunit::FetchEvent &f, std::uint64_t now) override;
    void onStaleDrop(int slot, int lane, int owner, std::uint32_t ref,
                     std::uint64_t now) override;
    void onPush(int slot, int lane, int owner, std::uint32_t ref,
                std::uint64_t now) override;
    void onSteal(int slot, int donor, int recipient, int owner,
                 bool reform, std::uint64_t now) override;
    void onConsume(int slot, int lane, int owner, std::uint32_t ref,
                   prof::MemLevel level, std::uint64_t now) override;
    void onLeafTests(int slot, int lane, int owner, std::uint32_t tests,
                     std::uint64_t now) override;
    void onLaneEdges(int slot, std::uint32_t busy_mask,
                     std::uint64_t now) override;
    /** Closes the warp's records. */
    void onRetire(int slot, std::uint64_t now) override;

    /** Invariant-audit label, e.g. "raytrace.sm0" (check builds). */
    void setCheckLabel(std::string label) { label_ = std::move(label); }

    const std::vector<WarpRecord> &warps() const { return records_; }
    const RecorderStats &stats() const { return stats_; }

    void reset();

  private:
    /** Append @p ev to @p ray honouring the cap; false when dropped. */
    bool append(RayRecord &ray, const RayEvent &ev);
    /** Ray index of @p lane in the slot's live record, or -1. */
    int rayIndex(int slot, int lane) const;
    /** Live record of sampled ray @p owner in @p slot, or nullptr. */
    RayRecord *liveRay(int slot, int owner);

    int sm_ = 0;
    const RecorderConfig *cfg_;
    std::string label_ = "raytrace";
    std::uint64_t warps_seen_ = 0;
    std::uint64_t warps_sampled_ = 0;
    /** slot -> live record index (-1 = not sampled / retired). */
    std::array<std::int32_t, 64> live_rec_{};
    /** slot -> last record index, surviving retire (onWarpId). */
    std::array<std::int32_t, 64> last_rec_{};
    /** slot x lane -> index into the record's rays (-1 = unsampled). */
    std::array<std::array<std::int8_t, kLanes>, 64> lane_ray_{};
    std::vector<WarpRecord> records_;
    RecorderStats stats_;
};

/** Critical-path attribution for one warp (prof bucket keys). */
struct CriticalPathEntry
{
    int sm = 0;
    std::uint64_t ordinal = 0;
    int warp_id = -1;
    std::uint64_t submit_cycle = 0;
    std::uint64_t retire_cycle = 0;
    /** Lane of the retirement-blocking sampled ray. */
    int blocking_lane = -1;
    /** Cycle of that ray's last recorded event. */
    std::uint64_t blocking_last_event = 0;
    std::uint64_t ray_node_visits = 0;
    std::uint64_t ray_steals_in = 0;
    std::uint64_t ray_steals_out = 0;
    /** Warp-latency cycles per prof bucket; sums to latency(). */
    std::array<std::uint64_t, prof::kNumBuckets> buckets{};

    std::uint64_t latency() const { return retire_cycle - submit_cycle; }
};

/** Slowest *sampled* warp per SM (ascending SM id). */
struct CriticalPathReport
{
    std::vector<CriticalPathEntry> per_sm;

    /** Globally slowest entry, or nullptr when empty. */
    const CriticalPathEntry *slowest() const;
};

/**
 * Attribute @p w's latency to prof buckets along its blocking ray:
 * the sampled ray with the latest recorded event. Every cycle in
 * [submit, retire) lands in exactly one bucket — fetch intervals
 * become starved_l1/l2/dram (deepest level wins on overlap), steal
 * cycles lbu_steal, event cycles issue_compute, the tail after the
 * last event idle_no_ray, and everything else fetch_queued (work
 * exists, the unit is busy elsewhere).
 */
CriticalPathEntry attributeCriticalPath(const WarpRecord &w);

/** Fixed-width attribution table (the fig14 companion output). */
void writeCriticalPath(std::ostream &os, const CriticalPathReport &r);

/** Copy-out snapshot carried in GpuRunResult / RunOutcome. */
struct Summary
{
    bool enabled = false;
    RecorderStats stats;
    /** Slowest sampled warp per SM with bucket attribution. */
    std::vector<CriticalPathEntry> critical;

    const CriticalPathEntry *slowest() const;
};

/**
 * Whole-GPU recorder: owns one UnitRecorder per SM, registers
 * `ray.*` probes, and produces the three exports. Attach via
 * `RunConfig::ray_recorder` (or `Gpu::setRayTrace` directly).
 */
class Recorder
{
  public:
    Recorder() = default;
    explicit Recorder(RecorderConfig cfg) : cfg_(cfg) {}
    ~Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    const RecorderConfig &config() const { return cfg_; }

    /** Per-SM recording surface; created on first use. */
    UnitRecorder &unit(int sm);

    /** Drop all records/counters; unit addresses stay valid. */
    void reset();

    /** Counters summed over all units. */
    RecorderStats stats() const;

    /** All sampled warps, SM-major, submission order within an SM. */
    std::vector<const WarpRecord *> warps() const;

    /** Sampled warp of @p sm with the largest latency, or nullptr. */
    const WarpRecord *slowestWarp(int sm) const;

    /** Register `ray.*` probes (owner-tagged; idempotent). */
    void registerMetrics(trace::Registry &reg);

    /** Emit per-warp / per-ray tracks into @p tracer (export 1). */
    void emitPerfetto(trace::Tracer &tracer) const;

    /** Critical-path report over all SMs (export 2). */
    CriticalPathReport criticalPath() const;

    /** raystats JSON document (export 3); @p scene tags the run. */
    void writeRayStatsJson(std::ostream &os,
                           const std::string &scene) const;

    /** raystats CSV: one row per sampled ray. */
    void writeRayStatsCsv(std::ostream &os) const;

    /** Snapshot for GpuRunResult (stats + critical path). */
    Summary summary() const;

    /** Stamp the run identity (called by `Simulation::run`); emitted
     *  into writeRayStatsJson. Metadata only — survives reset(). */
    void setRunKey(const cooprt::trace::RunKeyFields &key)
    { run_key_ = key; }
    const cooprt::trace::RunKeyFields &runKey() const
    { return run_key_; }

  private:
    RecorderConfig cfg_;
    std::vector<std::unique_ptr<UnitRecorder>> units_;
    trace::Registry *registry_ = nullptr;
    cooprt::trace::RunKeyFields run_key_;
};

/**
 * Rebuild a fig11-style busy timeline from @p w's lane edges
 * (requires RecorderConfig::lane_timeline); the fig11 golden in
 * tests/raytrace pins the rendering.
 */
stats::TimelineRecorder laneTimeline(const WarpRecord &w);

} // namespace cooprt::raytrace

#endif // COOPRT_RAYTRACE_RAYTRACE_HPP
