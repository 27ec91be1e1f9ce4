/**
 * @file
 * The warp stall-attribution profiler (`cooprt::prof`).
 *
 * Every figure in the paper that argues *why* CoopRT wins — the
 * opening stall breakdown (Fig. 1), the thread-status distribution
 * (Fig. 4), the warp timeline (Fig. 11) — needs a per-cycle answer to
 * one question: what was each resident warp waiting for? This layer
 * answers it with a mutually-exclusive, collectively-exhaustive
 * taxonomy: every cycle a warp spends resident in an RT unit lands in
 * exactly one `Bucket`, so the bucket totals sum to the warp's trace
 * latency exactly and GPU-wide to the aggregated
 * `RtUnitStats::retired_trace_latency` (the conservation identity the
 * `prof.bucket_conservation` audit enforces in check builds).
 *
 * The layer is compile-always and runtime-enabled: attach a
 * `Profiler` through `core::RunConfig::profiler` (or `--profile` on
 * simulate_cli) to collect; each SM's `RtUnitProfile` then observes
 * its RT unit (`rtunit::RtObserver`). Leave it null and no per-cycle
 * work runs at all — simulated cycle counts are bit-identical either
 * way (the pinned-cycle tests prove it).
 *
 * Three export views:
 *   - hierarchical JSON summary (`Profiler::writeJson`, also embedded
 *     in the `core::writeJson` report as the "prof" object);
 *   - folded-stack flamegraph lines `scene;sm<i>;rtunit;<bucket> N`
 *     (`Profiler::writeFolded`) for flamegraph.pl / speedscope;
 *   - per-interval CSV columns: `registerMetrics()` publishes every
 *     bucket as a `prof.*` probe into the trace registry, so the
 *     MetricsSampler time series picks them up alongside the PR-1
 *     counters.
 */

#ifndef COOPRT_PROF_PROF_HPP
#define COOPRT_PROF_PROF_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "rtunit/rt_observer.hpp"
#include "trace/registry.hpp"

namespace cooprt::prof {

/**
 * The stall taxonomy. Classification is by strict priority (the
 * order below); `classify()` is the single authority, so exclusivity
 * and exhaustiveness are properties of one pure function.
 */
enum class Bucket : int
{
    /** Progress: issued a coalesced fetch or consumed a response. */
    IssueCompute = 0,
    /** Had issueable work but lost the single-issue arbitration. */
    FetchQueued,
    /** Only stale stack entries ready (pop-time elimination debt). */
    StackBound,
    /** Progress only possible through the LBU (served or waiting). */
    LbuSteal,
    /** All remaining work in flight; earliest response is an L1 hit. */
    StarvedL1,
    /** ... earliest outstanding response is served by the L2. */
    StarvedL2,
    /** ... earliest outstanding response is served by DRAM. */
    StarvedDram,
    /** CoopRT terminal drain: stacks empty, idle helper lanes, final
        fetches in flight — no stealable work left to give them. */
    SubwarpDrain,
    /** SM-side: trace issued but no free warp-buffer slot (counted
        per SM at submit, outside the RT-resident conservation sum). */
    WarpBufferFull,
    /** Resident with nothing to do (retire pending this tick). */
    IdleNoRay,
};

constexpr int kNumBuckets = 10;

/** Stable snake_case name of @p b (flamegraph / CSV / JSON key). */
const char *bucketName(Bucket b);

/** Memory level that ultimately serves a fetch (response-starved
    attribution). L1 MSHR merges are attributed to the L2 fill they
    merged into. */
enum class MemLevel : int
{
    L1 = 0,
    L2 = 1,
    Dram = 2,
};

/** Traversal phase of a warp (the warp axis of the hierarchy). */
enum class Phase : int
{
    /** Submit until the first node response is consumed. */
    Ramp = 0,
    /** Stack work exists somewhere in the warp. */
    Traverse,
    /** Stacks empty; only in-flight responses remain. */
    Drain,
};

constexpr int kNumPhases = 3;

/** Stable name of @p p ("ramp" / "traverse" / "drain"). */
const char *phaseName(Phase p);

/**
 * One warp's classification inputs, snapshotted by the RT unit. Kept
 * as plain flags so `classify()` is a pure, exhaustively testable
 * function (tests/prof/test_taxonomy.cpp enumerates this space).
 */
struct WarpView
{
    /** Issued a fetch or consumed a response this cycle. */
    bool progressed = false;
    /** The LBU moved a node within this warp this cycle. */
    bool stole = false;
    /** Some thread is issueable (!pending && non-empty stack). */
    bool has_ready = false;
    /** Every issueable thread's next pop is stale (entry_t past the
        search limit) — the warp is waiting on pop-time elimination. */
    bool ready_all_stale = false;
    /** CoopRT: some subwarp holds a legal helper/main pair. */
    bool lbu_eligible = false;
    /** In-flight responses for this warp. */
    int outstanding = 0;
    /** Level serving the earliest-ready outstanding response. */
    MemLevel wait_level = MemLevel::L1;
    /** CoopRT configuration (gates SubwarpDrain). */
    bool coop = false;
    /** Some thread's stack is non-empty (even if not issueable). */
    bool any_stack_work = false;
    /** Some lane is fully idle (no stack, no fetch in flight). */
    bool has_idle_lane = false;

    bool operator==(const WarpView &) const = default;
};

/**
 * Classify one resident-warp cycle. Total: every input maps to
 * exactly one bucket (never WarpBufferFull, which is SM-side).
 */
Bucket classify(const WarpView &v);

/** Phase of a warp given its progress state (see Phase). */
Phase phaseOf(bool consumed_any_response, bool any_stack_work);

/** Exact thread-status cycle totals (the Fig. 4 axes). */
struct ThreadStatusCycles
{
    std::uint64_t inactive = 0; ///< lane had no ray at submit
    std::uint64_t busy = 0;     ///< stack work or fetch in flight
    std::uint64_t waiting = 0;  ///< had a ray, finished early

    std::uint64_t total() const { return inactive + busy + waiting; }
};

/**
 * Per-RT-unit accumulation: bucket totals, the phase-resolved
 * breakdown, and exact thread-status cycles, fed by the unit's
 * onWarpCycles events and the SM's warp-buffer waits. Addresses are
 * stable for the lifetime of the owning Profiler (registry probes
 * read them live).
 */
struct RtUnitProfile : rtunit::RtObserver
{
    std::array<std::uint64_t, kNumBuckets> buckets{};
    /** buckets split by traversal phase (RT-resident cycles only). */
    std::array<std::array<std::uint64_t, kNumBuckets>, kNumPhases>
        phase_buckets{};
    /** Warp-resident cycle total == sum of non-WarpBufferFull
        buckets (the conservation invariant). */
    std::uint64_t resident_cycles = 0;
    ThreadStatusCycles threads;
    /** Invariant-audit label, e.g. "prof.sm0" (check builds). */
    std::string check_label = "prof";

    /** Account @p weight resident-warp cycles to (@p b, @p p). */
    void add(Bucket b, Phase p, std::uint64_t weight);
    /** Sum over the RT-resident buckets (everything but
        WarpBufferFull); equals resident_cycles by construction. */
    std::uint64_t residentBucketSum() const;
    void reset();

    bool wantsWarpCycles() const override { return true; }
    bool watchesWarp(int) const override { return false; }
    /** Classify and account one resident warp's cycles. */
    void onWarpCycles(int slot, const WarpView &v, Phase p,
                      std::uint64_t weight,
                      const rtunit::ThreadStatusCounts &lanes) override;
    /** SM-side warp-buffer-full wait (outside resident_cycles). */
    void onBufferWait(std::uint64_t cycles) override;
#if COOPRT_CHECK_ENABLED
    /** Per-slot conservation ledger: the bucket increments of every
        warp's cycles must sum to its trace latency at retire. */
    void onSubmit(int slot, std::uint32_t, std::uint32_t,
                  std::uint64_t now) override;
    void onRetire(int slot, std::uint64_t now) override;
    std::array<std::uint64_t, 64> audit_submit{};
    std::array<std::uint64_t, 64> audit_cycles{};
#endif
};

/**
 * The GPU-wide profiler: one RtUnitProfile per SM's RT unit, stable
 * addresses, hierarchical export. Attach through
 * `core::RunConfig::profiler`; each run resets collected data.
 */
class Profiler
{
  public:
    Profiler() = default;
    ~Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** The per-unit accumulator for SM @p sm_id (created on first
        use; the address stays valid until the Profiler dies). */
    RtUnitProfile &unit(int sm_id);
    int unitCount() const { return int(units_.size()); }
    const RtUnitProfile &unitAt(int i) const { return *units_[std::size_t(i)]; }

    /** Zero all collected data, keeping unit addresses stable. */
    void reset();

    /** GPU-level bucket totals (sum over units). */
    std::array<std::uint64_t, kNumBuckets> totals() const;
    /** GPU-level phase x bucket totals. */
    std::array<std::array<std::uint64_t, kNumBuckets>, kNumPhases>
    phaseTotals() const;
    /** GPU-level warp-resident cycles (== non-bufful bucket sum). */
    std::uint64_t residentCycles() const;
    /** GPU-level SM-side warp-buffer-full wait cycles. */
    std::uint64_t warpBufferFullCycles() const;
    /** GPU-level exact thread-status cycles (Fig. 4). */
    ThreadStatusCycles threadStatus() const;

    /**
     * Publish every bucket as `prof.sm<i>.<bucket>` plus GPU-level
     * `prof.gpu.<bucket>` probes into @p registry, so metric CSV
     * snapshots carry the taxonomy per interval. Idempotent; probes
     * are dropped in the destructor (the registry must outlive this
     * object). Call after the units exist (the Gpu attaches units
     * first, then registers).
     */
    void registerMetrics(cooprt::trace::Registry &registry);

    /** Hierarchical JSON summary (GPU -> phases -> per-SM units). */
    void writeJson(std::ostream &os, const std::string &scene) const;

    /**
     * Folded-stack flamegraph lines, one per non-zero (unit, bucket):
     *
     *     <scene>;sm<i>;rtunit;<bucket> <count>
     *
     * directly consumable by flamegraph.pl or speedscope.
     */
    void writeFolded(std::ostream &os, const std::string &scene) const;

  private:
    std::vector<std::unique_ptr<RtUnitProfile>> units_;
    cooprt::trace::Registry *registry_ = nullptr;
};

/**
 * Flat roll-up of a run's profile, copied into `gpu::GpuRunResult`
 * so reports and benches can consume the taxonomy without holding
 * the Profiler. `enabled` is false (and everything zero) when no
 * profiler was attached.
 */
struct Summary
{
    bool enabled = false;
    std::array<std::uint64_t, kNumBuckets> buckets{};
    std::uint64_t resident_cycles = 0;
    ThreadStatusCycles threads;

    /** buckets[b] accessor by enum for readability. */
    std::uint64_t of(Bucket b) const
    { return buckets[std::size_t(b)]; }
    /** Total RT-class stall cycles: resident + warp-buffer-full
        (equals the SM's class-level `stalls.rt` exactly). */
    std::uint64_t rtStallCycles() const
    { return resident_cycles + of(Bucket::WarpBufferFull); }
};

} // namespace cooprt::prof

#endif // COOPRT_PROF_PROF_HPP
