/**
 * @file
 * The whole-GPU timing simulator: an array of SMs over a shared
 * memory hierarchy, with the global idle-skipping event loop and the
 * activity sampling the paper's figures are built from.
 */

#ifndef COOPRT_GPU_GPU_HPP
#define COOPRT_GPU_GPU_HPP

#include <memory>
#include <vector>

#include "gpu/sm.hpp"
#include "mem/memory_system.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"
#include "stats/sampler.hpp"
#include "trace/session.hpp"

namespace cooprt::telemetry {
class Recorder;
} // namespace cooprt::telemetry

namespace cooprt::gpu {

/** Everything a simulation run reports. */
struct GpuRunResult
{
    std::uint64_t cycles = 0;

    rtunit::RtUnitStats rt;        ///< aggregated over all RT units
    mem::CacheStats l1;            ///< aggregated over all L1s
    mem::CacheStats l2;
    mem::DramStats dram;
    mem::MemSystemStats mem_sys;
    StallBreakdown stalls;

    /** Average busy-thread ratio in the RT units (Fig. 10). */
    double avg_thread_utilization = 0.0;
    /** Busy-thread ratio time series, one per sample (Fig. 2). */
    std::vector<double> utilization_series;

    /**
     * Stall-attribution roll-up (zero / disabled unless a
     * `cooprt::prof::Profiler` was attached via setProf). Supersedes
     * the old sampled thread-status accumulator: `prof_summary.threads`
     * is the exact per-cycle Fig.-4 distribution.
     */
    cooprt::prof::Summary prof_summary;

    /** Per-warp completion records; max latency drives Fig. 14. */
    std::vector<WarpCompletion> completions;

    /**
     * Ray-provenance roll-up (disabled unless a
     * `cooprt::raytrace::Recorder` was attached via setRayTrace):
     * recorder totals plus the per-SM critical-path attribution of
     * each SM's slowest sampled warp.
     */
    cooprt::raytrace::Summary ray_summary;

    /**
     * Memory & BVH-topology attribution roll-up (disabled unless a
     * `cooprt::memscope::Collector` was attached via setMemscope):
     * node-heatmap totals, per-depth hit/miss/divergence rows, the
     * interconnect traffic tallies and reuse-distance summaries.
     */
    cooprt::memscope::Summary memscope_summary;

    /** Observability collection totals (zero when tracing is off). */
    cooprt::trace::RunTraceSummary trace_summary;

    std::uint64_t slowestWarpLatency() const;
    /** DRAM bandwidth utilization in [0,1] (Section 7.4). */
    double dram_utilization = 0.0;
    /** L2<->interconnect bytes per cycle (Fig. 12). */
    double l2BytesPerCycle() const
    { return cycles ? double(mem_sys.l2_bytes) / double(cycles) : 0.0; }
    /** DRAM bytes per cycle (Fig. 12). */
    double dramBytesPerCycle() const
    { return cycles ? double(dram.bytes) / double(cycles) : 0.0; }
};

/**
 * The GPU. Construct once per (scene BVH, config); `run()` executes
 * one frame's warps to completion and reports the statistics.
 */
class Gpu
{
  public:
    Gpu(const bvh::FlatBvh &bvh, const scene::Mesh &mesh,
        const GpuConfig &config);
    ~Gpu();

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    const GpuConfig &config() const { return cfg_; }

    /**
     * Attach an observability session for subsequent run() calls
     * (null = tracing off, the default). The memory hierarchy, SMs
     * and RT units register their counters into the session registry
     * under hierarchical names (`rtunit.sm0.*`, `mem.l2.*`, ...);
     * when the session has event tracing / metrics sampling enabled,
     * runs emit Chrome-trace events and periodic registry snapshots.
     * The session must outlive this Gpu. Purely observational:
     * reported cycle counts are identical with and without it.
     */
    void setTrace(cooprt::trace::Session *session)
    { session_ = session; }

    /**
     * Attach a stall-attribution profiler for subsequent run() calls
     * (null = profiling off, the default). Each run resets the
     * profiler, wires one `RtUnitProfile` per SM and attributes
     * response-starved cycles to the memory level that served the
     * fetch. When a trace session is also attached, the `prof.*`
     * bucket probes join its metrics registry (CSV columns). Purely
     * observational: simulated cycle counts are bit-identical with
     * and without it. The profiler must outlive this Gpu.
     */
    void setProf(cooprt::prof::Profiler *profiler)
    { prof_ = profiler; }

    /**
     * Attach a ray-level provenance recorder for subsequent run()
     * calls (null = recording off, the default). Each run resets the
     * recorder, wires one `raytrace::UnitRecorder` per SM, and the
     * RT units log the lifecycle events of the rays the recorder's
     * deterministic sampler selects. When a trace session is also
     * attached, sampled rays get their own Perfetto tracks and the
     * `ray.*` probes join the metrics registry. Purely observational:
     * simulated cycle counts are bit-identical with and without it.
     * The recorder must outlive this Gpu.
     */
    void setRayTrace(cooprt::raytrace::Recorder *recorder)
    { ray_ = recorder; }

    /**
     * Attach a memory & BVH-topology profiler for subsequent run()
     * calls (null = profiling off, the default). Each run resets the
     * collector, wires one `memscope::UnitScope` per SM, attaches
     * the collector to the memory hierarchy's fetch path, and tags every
     * node fetch with its node id, tree depth and serving level. When
     * a trace session is also attached, the `memscope.*` probes join
     * the metrics registry and Perfetto gets memscope counter tracks.
     * Purely observational: simulated cycle counts are bit-identical
     * with and without it. The collector must outlive this Gpu.
     */
    void setMemscope(cooprt::memscope::Collector *collector)
    { mscope_ = collector; }

    /**
     * Attach a host-side telemetry recorder for subsequent run()
     * calls (null = telemetry off, the default). The run publishes
     * live simulated progress (cycle, retired trace_rays warps) at
     * activity-sampling boundaries so the run heartbeat can read
     * it, and registers the deterministic `telemetry.*` probes when a
     * trace session is also attached. Purely observational: simulated
     * cycle counts are bit-identical with and without it. The
     * recorder must outlive this Gpu.
     */
    void setTelemetry(cooprt::telemetry::Recorder *recorder)
    { telem_ = recorder; }

    /**
     * Run @p programs (one per warp / thread block) to completion.
     * Thread blocks are assigned to SMs round-robin, as the
     * Gigathread engine does. The Gpu instance can be reused; state
     * is reset at the start of each run.
     *
     * @param warm_memory Keep cache/DRAM state from the previous
     *        run() (used by multi-pass schedulers like per-bounce
     *        compaction, where the machine is not actually reset
     *        between passes). Statistics still restart.
     */
    GpuRunResult run(const std::vector<WarpProgram *> &programs,
                     bool warm_memory = false);

  private:
    void sampleActivity(std::uint64_t cycle);

    const bvh::FlatBvh &bvh_;
    const scene::Mesh &mesh_;
    GpuConfig cfg_;
    mem::MemorySystem memsys_;
    std::vector<std::unique_ptr<StreamingMultiprocessor>> sms_;
    stats::ActivitySampler sampler_;

    cooprt::trace::Session *session_ = nullptr;
    cooprt::prof::Profiler *prof_ = nullptr;
    cooprt::raytrace::Recorder *ray_ = nullptr;
    cooprt::memscope::Collector *mscope_ = nullptr;
    cooprt::telemetry::Recorder *telem_ = nullptr;
    /** Busy-thread ratio at the latest sample (metrics probe src). */
    double util_now_ = 0.0;
};

} // namespace cooprt::gpu

#endif // COOPRT_GPU_GPU_HPP
