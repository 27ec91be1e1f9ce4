#include "replay.hpp"

#include <chrono>
#include <stdexcept>

#include "stats/sampler.hpp"

namespace cooprt::hostbench {

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::int64_t
ReplayResult::unattributedNs() const
{
    const std::uint64_t layers = frame_build.ns + program.ns +
                                 sm_tick.ns + next_event.ns + fetch.ns +
                                 oracle.ns;
    return std::int64_t(frame_ns) - std::int64_t(layers);
}

namespace {

/**
 * Runs @p call, adding its duration to @p layer and to @p nested, the
 * frame's ledger of time spent in leaf layers (fetch, program) that
 * `SM::tick` subtracts to keep only its own.
 */
template <typename F>
auto
timedLeaf(LayerTime &layer, std::uint64_t &nested, F &&call)
{
    const std::uint64_t t0 = nowNs();
    auto out = call();
    const std::uint64_t dt = nowNs() - t0;
    layer.ns += dt;
    layer.calls += 1;
    nested += dt;
    return out;
}

/** Forwards to the real warp program, timing the call and counting the
 *  rays of every trace_ray it issues. */
class CountingProgram final : public gpu::WarpProgram
{
  public:
    CountingProgram(gpu::WarpProgram &inner, ReplayResult &res,
                    std::uint64_t &nested)
        : inner_(inner), res_(res), nested_(nested)
    {}

    gpu::WarpAction
    start() override
    {
        return count([&] { return inner_.start(); });
    }

    gpu::WarpAction
    resume(const rtunit::TraceResult &result) override
    {
        return count([&] { return inner_.resume(result); });
    }

  private:
    template <typename F>
    gpu::WarpAction
    count(F &&call)
    {
        const gpu::WarpAction a = timedLeaf(res_.program, nested_, call);
        if (a.kind == gpu::WarpAction::Kind::Trace) {
            res_.trace_rays += 1;
            res_.rays += std::uint64_t(a.trace.activeCount());
        }
        return a;
    }

    gpu::WarpProgram &inner_;
    ReplayResult &res_;
    std::uint64_t &nested_;
};

query::Workload
queryWorkload(core::ShaderKind k)
{
    return k == core::ShaderKind::QueryRadius ? query::Workload::Radius
           : k == core::ShaderKind::QueryContain
               ? query::Workload::Contain
               : query::Workload::Knn;
}

void
addRt(rtunit::RtUnitStats &sum, const rtunit::RtUnitStats &rs)
{
    sum.node_fetches += rs.node_fetches;
    sum.leaf_fetches += rs.leaf_fetches;
    sum.box_tests += rs.box_tests;
    sum.tri_tests += rs.tri_tests;
    sum.steals += rs.steals;
    sum.coalesced_threads += rs.coalesced_threads;
    sum.stale_pops += rs.stale_pops;
    sum.stack_overflows += rs.stack_overflows;
    sum.retired_warps += rs.retired_warps;
    sum.retired_trace_latency += rs.retired_trace_latency;
    sum.issue_cycles += rs.issue_cycles;
    sum.prefetches += rs.prefetches;
    sum.predictor_hits += rs.predictor_hits;
    sum.predictor_misses += rs.predictor_misses;
    sum.hit_stores += rs.hit_stores;
    if (rs.max_trace_latency > sum.max_trace_latency)
        sum.max_trace_latency = rs.max_trace_latency;
}

} // namespace

ReplayResult
replayFrame(const core::Simulation &sim, const core::RunConfig &config)
{
    ReplayResult res;
    std::uint64_t nested = 0;
    const std::uint64_t frame_t0 = nowNs();
    const scene::Scene &scene = sim.scene();
    const gpu::GpuConfig &gcfg = config.gpu;
    if (gcfg.num_sms != gcfg.mem.num_sms)
        throw std::invalid_argument(
            "GpuConfig.num_sms must match mem.num_sms");
    const int px = config.resolution > 0 ? config.resolution
                                         : scene.default_resolution;

    // Shader layer: the frame's warp programs.
    const query::Workload qwl = queryWorkload(config.shader);
    std::unique_ptr<query::ResultStore> qstore;
    std::vector<std::unique_ptr<gpu::WarpProgram>> programs;
    auto build = [&] {
        if (config.shader == core::ShaderKind::PathTracing) {
            programs = shaders::makePathTracerFrame(scene, nullptr, px,
                                                    px, config.pt);
        } else if (core::isQueryShader(config.shader)) {
            qstore = std::make_unique<query::ResultStore>(
                std::size_t(px) * std::size_t(px));
            programs = query::makeQueryFrame(scene, qwl, *qstore, px, px,
                                             config.query);
        } else {
            throw std::invalid_argument(
                "the traced driver replays pt and query frames only");
        }
        return 0;
    };
    timedLeaf(res.frame_build, nested, build);

    std::vector<std::unique_ptr<CountingProgram>> wrapped;
    wrapped.reserve(programs.size());
    for (auto &p : programs)
        wrapped.push_back(std::make_unique<CountingProgram>(*p, res, nested));

    // GPU layer: Gpu::run's machine, rebuilt from public parts.
    mem::MemorySystem memsys(gcfg.mem);
    std::vector<std::unique_ptr<gpu::StreamingMultiprocessor>> sms;
    for (int i = 0; i < gcfg.num_sms; ++i) {
        rtunit::RtUnit::FetchFn fetch = [&memsys, &res, &nested,
                                         i](std::uint64_t addr,
                                            std::uint32_t bytes,
                                            std::uint64_t now) {
            return timedLeaf(res.fetch, nested, [&] {
                return memsys.fetch(i, addr, bytes, now);
            });
        };
        sms.push_back(std::make_unique<gpu::StreamingMultiprocessor>(
            i, gcfg, sim.bvh(), scene.mesh, std::move(fetch)));
    }
    for (std::size_t i = 1; i < sms.size(); ++i)
        sms[i]->rtUnit().sharePredictor(sms[0]->rtUnit());
    for (std::size_t w = 0; w < wrapped.size(); ++w)
        sms[w % sms.size()]->assign(int(w), wrapped[w].get());

    auto nextEvent = [&](std::size_t i, std::uint64_t now) {
        const std::uint64_t t0 = nowNs();
        const std::uint64_t e = sms[i]->nextEventCycle(now);
        res.next_event.ns += nowNs() - t0;
        res.next_event.calls += 1;
        return e;
    };
    auto tick = [&](std::size_t i, std::uint64_t now) {
        const std::uint64_t nested0 = nested;
        const std::uint64_t t0 = nowNs();
        sms[i]->tick(now);
        const std::uint64_t dt = nowNs() - t0;
        res.sm_tick.ns += dt - (nested - nested0);
        res.sm_tick.calls += 1;
    };

    // The activity sampler rides the same boundaries as in Gpu::run, so
    // the replay carries the same per-boundary host work.
    stats::ActivitySampler sampler(gcfg.sample_interval);
    auto sampleActivity = [&](std::uint64_t cycle) {
        rtunit::ThreadStatusCounts total;
        for (const auto &sm : sms) {
            const auto c = sm->rtUnit().threadStatus();
            total.inactive += c.inactive;
            total.busy += c.busy;
            total.waiting += c.waiting;
        }
        if (total.total() == 0)
            sampler.skip(cycle);
        else
            sampler.sample(cycle, total.busy, total.total());
    };

    std::uint64_t now = 0;
    std::vector<std::uint64_t> next_event(sms.size());
    for (std::size_t i = 0; i < sms.size(); ++i)
        next_event[i] = nextEvent(i, 0);
    while (true) {
        std::uint64_t next = rtunit::kNever;
        for (const std::uint64_t e : next_event)
            if (e < next)
                next = e;
        if (next == rtunit::kNever)
            break;
        while (sampler.nextDue() <= next)
            sampleActivity(sampler.nextDue());
        now = next;
        for (std::size_t i = 0; i < sms.size(); ++i) {
            if (next_event[i] > now)
                continue;
            tick(i, now);
            next_event[i] = nextEvent(i, now + 1);
        }
        now += 1;
    }

    gpu::GpuRunResult &g = res.gpu;
    g.cycles = now;
    for (const auto &sm : sms) {
        addRt(g.rt, sm->rtUnit().stats());
        g.stalls.rt += sm->stalls().rt;
        g.stalls.mem += sm->stalls().mem;
        g.stalls.alu += sm->stalls().alu;
        g.stalls.sfu += sm->stalls().sfu;
        for (const auto &c : sm->completions())
            g.completions.push_back(c);
    }
    g.l1 = memsys.l1StatsTotal();
    g.l2 = memsys.l2Stats();
    g.dram = memsys.dramStats();
    g.mem_sys = memsys.stats();
    g.avg_thread_utilization = sampler.averageRatio();
    g.dram_utilization = g.dram.utilization(g.cycles, memsys.dramChannels());

    // Query layer: summary plus the brute-force oracle.
    if (qstore != nullptr) {
        res.query = query::summarize(qwl, *qstore);
        if (config.query.verify) {
            auto verify = [&] {
                return query::verifyAgainstOracle(scene, qwl, config.query,
                                                  px, px, *qstore);
            };
            const query::OracleCheck chk =
                timedLeaf(res.oracle, nested, verify);
            res.query.verified = true;
            res.query.oracle_checked = chk.checked;
            res.query.oracle_mismatches = chk.mismatches;
        }
    }
    res.frame_ns = nowNs() - frame_t0;
    return res;
}

} // namespace cooprt::hostbench
