#include "prof/prof.hpp"

#include <ostream>
#include <string>

#include "trace/json.hpp"

namespace cooprt::prof {

namespace {

/** Indexed by Bucket; cooprt_lint (registry-authority) checks this table
    against the enum and the DESIGN.md taxonomy, so the three cannot
    drift. */
constexpr std::array<const char *, kNumBuckets> kBucketNames = {
    "issue_compute",    // IssueCompute
    "fetch_queued",     // FetchQueued
    "stack_bound",      // StackBound
    "lbu_steal",        // LbuSteal
    "starved_l1",       // StarvedL1
    "starved_l2",       // StarvedL2
    "starved_dram",     // StarvedDram
    "subwarp_drain",    // SubwarpDrain
    "warp_buffer_full", // WarpBufferFull
    "idle_no_ray",      // IdleNoRay
};

constexpr std::array<const char *, kNumPhases> kPhaseNames = {
    "ramp",
    "traverse",
    "drain",
};

void
writeBuckets(std::ostream &os,
             const std::array<std::uint64_t, kNumBuckets> &b)
{
    os << '{';
    for (int i = 0; i < kNumBuckets; ++i) {
        if (i)
            os << ',';
        os << trace::quoteJson(kBucketNames[std::size_t(i)]) << ':'
           << b[std::size_t(i)];
    }
    os << '}';
}

} // namespace

const char *
bucketName(Bucket b)
{
    return kBucketNames[std::size_t(b)];
}

const char *
phaseName(Phase p)
{
    return kPhaseNames[std::size_t(p)];
}

Bucket
classify(const WarpView &v)
{
    // Strict priority; first match wins. Progress beats everything,
    // then direct-issue states, then LBU-only progress, then memory
    // waits, then the retire-pending residue. The order is part of
    // the taxonomy definition (DESIGN.md section 11).
    if (v.progressed)
        return Bucket::IssueCompute;
    if (v.stole)
        return Bucket::LbuSteal;
    if (v.has_ready)
        return v.ready_all_stale ? Bucket::StackBound
                                 : Bucket::FetchQueued;
    if (v.lbu_eligible)
        return Bucket::LbuSteal;
    if (v.outstanding > 0) {
        if (v.coop && !v.any_stack_work && v.has_idle_lane)
            return Bucket::SubwarpDrain;
        switch (v.wait_level) {
          case MemLevel::L1: return Bucket::StarvedL1;
          case MemLevel::L2: return Bucket::StarvedL2;
          case MemLevel::Dram: return Bucket::StarvedDram;
        }
        return Bucket::StarvedL1; // unreachable; keeps -Wreturn-type quiet
    }
    return Bucket::IdleNoRay;
}

Phase
phaseOf(bool consumed_any_response, bool any_stack_work)
{
    if (!consumed_any_response)
        return Phase::Ramp;
    return any_stack_work ? Phase::Traverse : Phase::Drain;
}

void
RtUnitProfile::add(Bucket b, Phase p, std::uint64_t weight)
{
    buckets[std::size_t(b)] += weight;
    phase_buckets[std::size_t(p)][std::size_t(b)] += weight;
    resident_cycles += weight;
}

void
RtUnitProfile::onWarpCycles(int slot, const WarpView &v, Phase p,
                            std::uint64_t weight,
                            const rtunit::ThreadStatusCounts &lanes)
{
    COOPRT_CHECK_ONLY(const std::uint64_t before = residentBucketSum();)
    add(classify(v), p, weight);
    threads.busy += lanes.busy * weight;
    threads.waiting += lanes.waiting * weight;
    threads.inactive += lanes.inactive * weight;
    COOPRT_CHECK_ONLY(audit_cycles[std::size_t(slot)] +=
                      residentBucketSum() - before;)
    (void)slot;
}

#if COOPRT_CHECK_ENABLED
void
RtUnitProfile::onSubmit(int slot, std::uint32_t, std::uint32_t,
                        std::uint64_t now)
{
    audit_submit[std::size_t(slot)] = now;
    audit_cycles[std::size_t(slot)] = 0;
}

void
RtUnitProfile::onRetire(int slot, std::uint64_t now)
{
    // Conservation: exactly one bucket increment per resident cycle,
    // so the buckets credited to a warp sum to its trace latency.
    const std::uint64_t latency = now - audit_submit[std::size_t(slot)];
    COOPRT_AUDIT(check_label, "prof.bucket_conservation", now,
                 audit_cycles[std::size_t(slot)] == latency,
                 "slot " + std::to_string(slot) + " attributed " +
                     std::to_string(audit_cycles[std::size_t(slot)]) +
                     " cycles over a " + std::to_string(latency) +
                     "-cycle trace");
}
#endif

void
RtUnitProfile::onBufferWait(std::uint64_t cycles)
{
    // SM-side wait: the warp is not resident in the RT unit yet, so
    // this bucket stays outside resident_cycles and the phase matrix.
    buckets[std::size_t(Bucket::WarpBufferFull)] += cycles;
}

std::uint64_t
RtUnitProfile::residentBucketSum() const
{
    std::uint64_t sum = 0;
    for (int i = 0; i < kNumBuckets; ++i)
        if (Bucket(i) != Bucket::WarpBufferFull)
            sum += buckets[std::size_t(i)];
    return sum;
}

void
RtUnitProfile::reset()
{
    std::string label = std::move(check_label);
    *this = RtUnitProfile{};
    check_label = std::move(label);
}

Profiler::~Profiler()
{
    if (registry_ != nullptr)
        registry_->unregisterOwner(this);
}

RtUnitProfile &
Profiler::unit(int sm_id)
{
    while (int(units_.size()) <= sm_id) {
        units_.push_back(std::make_unique<RtUnitProfile>());
        units_.back()->check_label =
            "prof.sm" + std::to_string(units_.size() - 1);
    }
    return *units_[std::size_t(sm_id)];
}

void
Profiler::reset()
{
    for (auto &u : units_)
        u->reset();
}

std::array<std::uint64_t, kNumBuckets>
Profiler::totals() const
{
    std::array<std::uint64_t, kNumBuckets> t{};
    for (const auto &u : units_)
        for (int i = 0; i < kNumBuckets; ++i)
            t[std::size_t(i)] += u->buckets[std::size_t(i)];
    return t;
}

std::array<std::array<std::uint64_t, kNumBuckets>, kNumPhases>
Profiler::phaseTotals() const
{
    std::array<std::array<std::uint64_t, kNumBuckets>, kNumPhases> t{};
    for (const auto &u : units_)
        for (int p = 0; p < kNumPhases; ++p)
            for (int i = 0; i < kNumBuckets; ++i)
                t[std::size_t(p)][std::size_t(i)] +=
                    u->phase_buckets[std::size_t(p)][std::size_t(i)];
    return t;
}

std::uint64_t
Profiler::residentCycles() const
{
    std::uint64_t sum = 0;
    for (const auto &u : units_)
        sum += u->resident_cycles;
    return sum;
}

std::uint64_t
Profiler::warpBufferFullCycles() const
{
    std::uint64_t sum = 0;
    for (const auto &u : units_)
        sum += u->buckets[std::size_t(Bucket::WarpBufferFull)];
    return sum;
}

ThreadStatusCycles
Profiler::threadStatus() const
{
    ThreadStatusCycles t;
    for (const auto &u : units_) {
        t.inactive += u->threads.inactive;
        t.busy += u->threads.busy;
        t.waiting += u->threads.waiting;
    }
    return t;
}

void
Profiler::registerMetrics(cooprt::trace::Registry &registry)
{
    registry_ = &registry;
    for (std::size_t i = 0; i < units_.size(); ++i) {
        const RtUnitProfile *u = units_[i].get();
        const std::string p = "prof.sm" + std::to_string(i) + ".";
        for (int b = 0; b < kNumBuckets; ++b) {
            const std::uint64_t *src = &u->buckets[std::size_t(b)];
            registry.probe(p + kBucketNames[std::size_t(b)],
                           [src] { return double(*src); }, this);
        }
        registry.probe(p + "resident_cycles",
                       [u] { return double(u->resident_cycles); },
                       this);
    }
    for (int b = 0; b < kNumBuckets; ++b) {
        const Bucket bucket = Bucket(b);
        registry.probe(
            std::string("prof.gpu.") + kBucketNames[std::size_t(b)],
            [this, bucket] {
                return double(totals()[std::size_t(bucket)]);
            },
            this);
    }
}

void
Profiler::writeJson(std::ostream &os, const std::string &scene) const
{
    os << "{\"scene\":" << trace::quoteJson(scene)
       << ",\"buckets\":";
    writeBuckets(os, totals());
    os << ",\"resident_cycles\":" << residentCycles();
    const ThreadStatusCycles ts = threadStatus();
    os << ",\"thread_status\":{\"inactive\":" << ts.inactive
       << ",\"busy\":" << ts.busy << ",\"waiting\":" << ts.waiting
       << '}';
    const auto phases = phaseTotals();
    os << ",\"phases\":{";
    for (int p = 0; p < kNumPhases; ++p) {
        if (p)
            os << ',';
        os << trace::quoteJson(kPhaseNames[std::size_t(p)]) << ':';
        writeBuckets(os, phases[std::size_t(p)]);
    }
    os << "},\"units\":[";
    for (std::size_t i = 0; i < units_.size(); ++i) {
        if (i)
            os << ',';
        os << "{\"sm\":" << i << ",\"buckets\":";
        writeBuckets(os, units_[i]->buckets);
        os << ",\"resident_cycles\":" << units_[i]->resident_cycles
           << '}';
    }
    os << "]}";
}

void
Profiler::writeFolded(std::ostream &os, const std::string &scene) const
{
    for (std::size_t i = 0; i < units_.size(); ++i)
        for (int b = 0; b < kNumBuckets; ++b) {
            const std::uint64_t n =
                units_[i]->buckets[std::size_t(b)];
            if (n == 0)
                continue;
            os << scene << ";sm" << i << ";rtunit;"
               << kBucketNames[std::size_t(b)] << ' ' << n << '\n';
        }
}

} // namespace cooprt::prof
