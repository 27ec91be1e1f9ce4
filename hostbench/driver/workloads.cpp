#include "workloads.hpp"

#include <sstream>

namespace cooprt::hostbench {

namespace {

bool
sameRt(const rtunit::RtUnitStats &a, const rtunit::RtUnitStats &b)
{
    return a.node_fetches == b.node_fetches &&
           a.leaf_fetches == b.leaf_fetches &&
           a.box_tests == b.box_tests && a.tri_tests == b.tri_tests &&
           a.steals == b.steals &&
           a.coalesced_threads == b.coalesced_threads &&
           a.stale_pops == b.stale_pops &&
           a.stack_overflows == b.stack_overflows &&
           a.retired_warps == b.retired_warps &&
           a.retired_trace_latency == b.retired_trace_latency &&
           a.max_trace_latency == b.max_trace_latency &&
           a.issue_cycles == b.issue_cycles &&
           a.prefetches == b.prefetches &&
           a.predictor_hits == b.predictor_hits &&
           a.predictor_misses == b.predictor_misses &&
           a.hit_stores == b.hit_stores;
}

bool
sameCache(const mem::CacheStats &a, const mem::CacheStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.mshr_merges == b.mshr_merges &&
           a.sector_misses == b.sector_misses;
}

} // namespace

bool
Digest::operator==(const Digest &o) const
{
    return cycles == o.cycles && sameRt(rt, o.rt) && sameCache(l1, o.l1) &&
           sameCache(l2, o.l2) && dram.requests == o.dram.requests &&
           dram.bytes == o.dram.bytes &&
           dram.busy_cycles == o.dram.busy_cycles &&
           query_checksum == o.query_checksum;
}

Digest
digestOf(const gpu::GpuRunResult &gpu, const query::Summary &query)
{
    Digest d;
    d.cycles = gpu.cycles;
    d.rt = gpu.rt;
    d.l1 = gpu.l1;
    d.l2 = gpu.l2;
    d.dram = gpu.dram;
    d.query_checksum = query.checksum;
    return d;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "pt_coop_fox", "pt_base_fox", "pt_coop_ship_observed",
        "knn_coop_ptsc"};
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::optional<std::uint64_t> seed)
{
    Workload w;
    w.name = name;
    core::RunConfig &cfg = w.config;
    // Every workload renders at its scene's bench-default resolution
    // (resolution 0) with the Table 1 GPU; the pinned digests were
    // measured at the default frame seeds.
    if (name == "pt_coop_fox") {
        w.scene = "fox";
        cfg.gpu.trace.coop = true;
        w.pinned = {589678, 519822, 111647};
    } else if (name == "pt_base_fox") {
        w.scene = "fox";
        w.pinned = {2191886, 502831, 0};
    } else if (name == "pt_coop_ship_observed") {
        w.scene = "ship";
        cfg.gpu.trace.coop = true;
        w.pinned = {84150, 100942, 42219};
        w.observed = true;
    } else if (name == "knn_coop_ptsc") {
        w.scene = "ptsc";
        cfg.shader = core::ShaderKind::QueryKnn;
        cfg.gpu.trace.coop = true;
        w.pinned = {88820, 192778, 25858};
    } else {
        return std::nullopt;
    }
    std::uint64_t &frame_seed = core::isQueryShader(cfg.shader)
                                    ? cfg.query.frame_seed
                                    : cfg.pt.frame_seed;
    w.default_seed = frame_seed;
    w.seed = seed.value_or(frame_seed);
    frame_seed = w.seed;
    return w;
}

namespace {

trace::SessionOptions
metricsOnly(const core::RunConfig &config)
{
    trace::SessionOptions opt;
    opt.metrics = true;
    opt.metrics_interval = config.gpu.sample_interval;
    return opt;
}

} // namespace

ObserverSet::ObserverSet(const core::RunConfig &config)
    : session_(metricsOnly(config))
{
}

void
ObserverSet::attach(core::RunConfig &config, unsigned bits)
{
    config.profiler = (bits & kProf) != 0 ? &prof_ : nullptr;
    config.memscope = (bits & kMemscope) != 0 ? &memscope_ : nullptr;
    config.ray_recorder = (bits & kRayTrace) != 0 ? &ray_ : nullptr;
    config.trace_session =
        (bits & kTraceSession) != 0 ? &session_ : nullptr;
    config.telemetry = (bits & kTelemetry) != 0 ? &telemetry_ : nullptr;
}

std::size_t
ObserverSet::exportSinks(unsigned bits, const std::string &scene) const
{
    std::ostringstream os;
    if ((bits & kProf) != 0) {
        prof_.writeFolded(os, scene);
        prof_.writeJson(os, scene);
    }
    if ((bits & kMemscope) != 0) {
        memscope_.writeFolded(os, scene);
        memscope_.writeJson(os, scene);
    }
    if ((bits & kRayTrace) != 0)
        ray_.writeRayStatsJson(os, scene);
    if ((bits & kTraceSession) != 0)
        session_.writeMetricsCsv(os);
    if ((bits & kTelemetry) != 0)
        telemetry_.writeJson(os, scene);
    return os.str().size();
}

} // namespace cooprt::hostbench
