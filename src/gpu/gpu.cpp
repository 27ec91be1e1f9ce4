#include "gpu/gpu.hpp"

#include <cassert>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace cooprt::gpu {

std::uint64_t
GpuRunResult::slowestWarpLatency() const
{
    std::uint64_t worst = 0;
    for (const auto &c : completions)
        if (c.latency() > worst)
            worst = c.latency();
    return worst;
}

Gpu::Gpu(const bvh::FlatBvh &bvh, const scene::Mesh &mesh,
         const GpuConfig &config)
    : bvh_(bvh), mesh_(mesh), cfg_(config), memsys_(config.mem),
      sampler_(config.sample_interval)
{
    if (cfg_.num_sms != cfg_.mem.num_sms)
        throw std::invalid_argument(
            "GpuConfig.num_sms must match mem.num_sms");
    if (cfg_.sample_interval == 0)
        throw std::invalid_argument(
            "GpuConfig.sample_interval must be > 0");
}

Gpu::~Gpu()
{
    if (session_ != nullptr)
        session_->registry().unregisterOwner(this);
}

void
Gpu::sampleActivity(std::uint64_t cycle)
{
    cooprt::trace::Tracer *tracer =
        session_ != nullptr ? session_->tracer() : nullptr;
    cooprt::trace::MetricsSampler *metrics =
        session_ != nullptr ? session_->metrics() : nullptr;

    if (telem_ != nullptr) {
        // Live progress for the run heartbeat: simulated values
        // only, published on the same deterministic boundaries as
        // the activity sampler (reads never perturb the run).
        std::uint64_t retired = 0;
        for (const auto &sm : sms_)
            retired += sm->rtUnit().stats().retired_warps;
        telem_->publishProgress(cycle, retired);
    }

    rtunit::ThreadStatusCounts total;
    for (std::size_t i = 0; i < sms_.size(); ++i) {
        const auto c = sms_[i]->rtUnit().threadStatus();
        total.inactive += c.inactive;
        total.busy += c.busy;
        total.waiting += c.waiting;
        if (tracer != nullptr && c.total() != 0) {
            COOPRT_TRACE_COUNTER(tracer, "rtunit", "busy_threads",
                                 int(i), cycle, double(c.busy));
            COOPRT_TRACE_COUNTER(tracer, "rtunit", "waiting_threads",
                                 int(i), cycle, double(c.waiting));
        }
    }
    if (total.total() == 0) {
        sampler_.skip(cycle); // nothing resident; no empty samples
        return;
    }
    sampler_.sample(cycle, total.busy, total.total());

    // The registry snapshot rides the very same boundaries as the
    // activity sampler, so the exported `rtunit.thread_utilization`
    // CSV column reproduces ActivitySampler::series() exactly.
    util_now_ = double(total.busy) / double(total.total());
    if (metrics != nullptr) {
        // The RT units credit untouched warps' cycles lazily: bring
        // every unit's prof.* totals up to its last tick first.
        for (auto &sm : sms_)
            sm->rtUnit().flushCycles();
        metrics->sample(cycle);
    }
    COOPRT_TRACE_COUNTER(tracer, "rtunit", "thread_utilization",
                         cfg_.num_sms, cycle, util_now_);
    if (mscope_ != nullptr && tracer != nullptr) {
        // Memscope counter tracks: cumulative node-fetch traffic and
        // its serving-level split, sampled on the same boundaries.
        const memscope::NodeCounters &t = mscope_->nodeTotals();
        COOPRT_TRACE_COUNTER(tracer, "memscope", "node_bytes",
                             cfg_.num_sms, cycle, double(t.bytes));
        COOPRT_TRACE_COUNTER(tracer, "memscope", "fetches_l1",
                             cfg_.num_sms, cycle, double(t.level[0]));
        COOPRT_TRACE_COUNTER(tracer, "memscope", "fetches_l2",
                             cfg_.num_sms, cycle, double(t.level[1]));
        COOPRT_TRACE_COUNTER(tracer, "memscope", "fetches_dram",
                             cfg_.num_sms, cycle, double(t.level[2]));
    }
}

GpuRunResult
Gpu::run(const std::vector<WarpProgram *> &programs, bool warm_memory)
{
    // Fresh machine state per run (optionally keeping cache contents
    // warm; timing/statistics always restart with the clock).
    if (warm_memory)
        memsys_.resetTiming();
    else
        memsys_.reset();
    sampler_.reset();
    sms_.clear();
    for (int i = 0; i < cfg_.num_sms; ++i) {
        sms_.push_back(std::make_unique<StreamingMultiprocessor>(
            i, cfg_, bvh_, mesh_,
            [this, i](std::uint64_t addr, std::uint32_t bytes,
                      std::uint64_t now) {
                return memsys_.fetch(i, addr, bytes, now);
            }));
    }
    if (prof_ != nullptr)
        prof_->reset();
    if (ray_ != nullptr)
        ray_->reset();
    if (mscope_ != nullptr)
        mscope_->reset();
    // The memscope cache and DRAM scopes hook the hierarchy at its
    // fetch choke point (where the conservation identity is audited
    // in check builds); null detaches a prior run's collector.
    memsys_.attachMemscope(mscope_);
    for (std::size_t i = 0; i < sms_.size(); ++i) {
        std::vector<rtunit::RtObserver *> observers;
        if (prof_ != nullptr)
            observers.push_back(&prof_->unit(int(i)));
        if (mscope_ != nullptr)
            observers.push_back(&mscope_->unit(int(i)));
        if (ray_ != nullptr)
            observers.push_back(&ray_->unit(int(i)));
        // Read right after issue, while lastFetchDepth() still refers
        // to the fetch just issued.
        sms_[i]->attachObservers(std::move(observers), [this] {
            return cooprt::prof::MemLevel(memsys_.lastFetchDepth());
        });
    }
    if (session_ != nullptr) {
        // Each run restarts the session's collected data; component
        // registrations are idempotent (overwrite by name).
        session_->resetData();
        if (prof_ != nullptr)
            prof_->registerMetrics(session_->registry());
        if (ray_ != nullptr)
            ray_->registerMetrics(session_->registry());
        if (mscope_ != nullptr)
            mscope_->registerMetrics(session_->registry());
        if (telem_ != nullptr)
            telem_->registerMetrics(session_->registry());
        memsys_.registerMetrics(session_->registry());
        session_->registry().probe(
            "rtunit.thread_utilization",
            [this] { return util_now_; }, this);
        for (auto &sm : sms_)
            sm->attachTrace(session_);
        if (session_->tracer() != nullptr)
            session_->tracer()->processName(cfg_.num_sms, "GPU");
    }
    // One GPU-wide intersection-predictor table (see RtUnit docs).
    for (std::size_t i = 1; i < sms_.size(); ++i)
        sms_[i]->rtUnit().sharePredictor(sms_[0]->rtUnit());

    // Gigathread engine: thread blocks round-robin over SMs.
    for (std::size_t w = 0; w < programs.size(); ++w)
        sms_[w % sms_.size()]->assign(int(w), programs[w]);

    // Event-driven main loop with cached per-SM next-event times.
    // An SM's state only changes when it ticks (memory completion
    // times are computed at issue), so a non-ticked SM's cached next
    // event stays valid.
    std::uint64_t now = 0;
    std::vector<std::uint64_t> next_event(sms_.size());
    for (std::size_t i = 0; i < sms_.size(); ++i)
        next_event[i] = sms_[i]->nextEventCycle(0);

    while (true) {
        std::uint64_t next = rtunit::kNever;
        for (const std::uint64_t e : next_event)
            if (e < next)
                next = e;
        if (next == rtunit::kNever)
            break; // all SMs drained

        // Emit one activity sample per boundary crossed before the
        // next event; RT-unit state is constant between ticks, so
        // sampling the current state at each boundary is exact.
        while (sampler_.nextDue() <= next)
            sampleActivity(sampler_.nextDue());
        now = next;

        for (std::size_t i = 0; i < sms_.size(); ++i) {
            if (next_event[i] > now)
                continue;
            sms_[i]->tick(now);
            next_event[i] = sms_[i]->nextEventCycle(now + 1);
        }
        now += 1;
    }

    GpuRunResult res;
    res.cycles = now;
    for (const auto &sm : sms_) {
        res.rt += sm->rtUnit().stats();

        res.stalls.rt += sm->stalls().rt;
        res.stalls.mem += sm->stalls().mem;
        res.stalls.alu += sm->stalls().alu;
        res.stalls.sfu += sm->stalls().sfu;

        for (const auto &c : sm->completions())
            res.completions.push_back(c);
    }

#if COOPRT_CHECK_ENABLED
    // Aggregate re-summation: RtUnitStats::operator+= above must not
    // drop an SM or a field, nor double-count one. Recompute all 16
    // fields independently and pin them against the published
    // aggregate.
    {
        rtunit::RtUnitStats audit_rt;
        for (const auto &sm : sms_) {
            const auto &rs = sm->rtUnit().stats();
            audit_rt.node_fetches += rs.node_fetches;
            audit_rt.leaf_fetches += rs.leaf_fetches;
            audit_rt.box_tests += rs.box_tests;
            audit_rt.tri_tests += rs.tri_tests;
            audit_rt.steals += rs.steals;
            audit_rt.coalesced_threads += rs.coalesced_threads;
            audit_rt.stale_pops += rs.stale_pops;
            audit_rt.stack_overflows += rs.stack_overflows;
            audit_rt.retired_warps += rs.retired_warps;
            audit_rt.retired_trace_latency += rs.retired_trace_latency;
            if (rs.max_trace_latency > audit_rt.max_trace_latency)
                audit_rt.max_trace_latency = rs.max_trace_latency;
            audit_rt.issue_cycles += rs.issue_cycles;
            audit_rt.prefetches += rs.prefetches;
            audit_rt.predictor_hits += rs.predictor_hits;
            audit_rt.predictor_misses += rs.predictor_misses;
            audit_rt.hit_stores += rs.hit_stores;
        }
        COOPRT_AUDIT("gpu", "gpu.rt_stats_aggregation", now,
                     audit_rt.node_fetches == res.rt.node_fetches &&
                         audit_rt.leaf_fetches == res.rt.leaf_fetches &&
                         audit_rt.box_tests == res.rt.box_tests &&
                         audit_rt.tri_tests == res.rt.tri_tests &&
                         audit_rt.steals == res.rt.steals &&
                         audit_rt.coalesced_threads ==
                             res.rt.coalesced_threads &&
                         audit_rt.stale_pops == res.rt.stale_pops &&
                         audit_rt.stack_overflows ==
                             res.rt.stack_overflows &&
                         audit_rt.retired_warps ==
                             res.rt.retired_warps &&
                         audit_rt.retired_trace_latency ==
                             res.rt.retired_trace_latency &&
                         audit_rt.max_trace_latency ==
                             res.rt.max_trace_latency &&
                         audit_rt.issue_cycles == res.rt.issue_cycles &&
                         audit_rt.prefetches == res.rt.prefetches &&
                         audit_rt.predictor_hits ==
                             res.rt.predictor_hits &&
                         audit_rt.predictor_misses ==
                             res.rt.predictor_misses &&
                         audit_rt.hit_stores == res.rt.hit_stores,
                     "per-SM RT-unit counters must re-sum to the "
                     "published aggregate");
    }

    // End-of-run conservation: the event loop only exits when every
    // SM drained, so every launched warp must have a completion
    // record with a sane lifetime.
    COOPRT_AUDIT("gpu", "gpu.warp_conservation", now,
                 res.completions.size() == programs.size(),
                 std::to_string(programs.size()) +
                     " warps launched but " +
                     std::to_string(res.completions.size()) +
                     " completed");
    for (const auto &c : res.completions)
        COOPRT_AUDIT("gpu", "gpu.completion_time_sane", now,
                     c.start_cycle <= c.finish_cycle &&
                         c.finish_cycle <= now,
                     "warp " + std::to_string(c.warp_id) + " [" +
                         std::to_string(c.start_cycle) + ", " +
                         std::to_string(c.finish_cycle) +
                         "] vs end cycle " + std::to_string(now));
#endif

    res.l1 = memsys_.l1StatsTotal();
    res.l2 = memsys_.l2Stats();
    res.dram = memsys_.dramStats();
    res.mem_sys = memsys_.stats();
    res.avg_thread_utilization = sampler_.averageRatio();
    res.utilization_series = sampler_.series();
    if (prof_ != nullptr) {
        res.prof_summary.enabled = true;
        res.prof_summary.buckets = prof_->totals();
        res.prof_summary.resident_cycles = prof_->residentCycles();
        res.prof_summary.threads = prof_->threadStatus();
    }
    if (ray_ != nullptr) {
        if (session_ != nullptr && session_->tracer() != nullptr)
            ray_->emitPerfetto(*session_->tracer());
        res.ray_summary = ray_->summary();
    }
    if (mscope_ != nullptr)
        res.memscope_summary = mscope_->summary();
    if (session_ != nullptr)
        res.trace_summary = session_->summary();
    res.dram_utilization =
        res.dram.utilization(res.cycles, memsys_.dramChannels());
    return res;
}

} // namespace cooprt::gpu
