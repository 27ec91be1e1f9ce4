/**
 * @file
 * The top-level CoopRT library API: configure a GPU, pick a scene and
 * a shader workload, run the cycle-level simulation, get cycles /
 * power / bandwidth / utilization back.
 *
 * This is the layer every example and bench binary uses:
 *
 *     const auto &scene = scene::SceneRegistry::get("crnvl");
 *     core::Simulation sim(scene);
 *     core::RunConfig cfg;               // baseline RT unit
 *     auto base = sim.run(cfg);
 *     cfg.gpu.trace.coop = true;         // CoopRT
 *     auto coop = sim.run(cfg);
 *     double speedup = double(base.gpu.cycles) / coop.gpu.cycles;
 */

#ifndef COOPRT_CORE_SIMULATION_HPP
#define COOPRT_CORE_SIMULATION_HPP

#include <memory>
#include <string>

#include "bvh/flat_bvh.hpp"
#include "gpu/gpu.hpp"
#include "power/energy_model.hpp"
#include "query/query.hpp"
#include "scene/registry.hpp"
#include "shaders/ao.hpp"
#include "shaders/path_tracer.hpp"
#include "shaders/shadow.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/json.hpp"
#include "trace/session.hpp"

namespace cooprt::core {

/**
 * Which workload to run: the paper's three raygen shaders (Sections
 * 6.2 / 7.3) or one of the non-rendering `cooprt::query` workloads
 * (k-NN / radius search over point-cloud scenes, point containment
 * over AMR scenes — see query/query.hpp).
 */
enum class ShaderKind
{
    PathTracing,
    AmbientOcclusion,
    Shadow,
    QueryKnn,
    QueryRadius,
    QueryContain,
};

/** True for the `cooprt::query` workloads. */
inline bool
isQueryShader(ShaderKind k)
{
    return k == ShaderKind::QueryKnn || k == ShaderKind::QueryRadius ||
           k == ShaderKind::QueryContain;
}

/** Stable CLI token for @p k (pt|ao|sh|knn|radius|contain) — the
 *  same spelling every CLI's --shader flag accepts, and the spelling
 *  run keys are stamped with. */
const char *shaderToken(ShaderKind k);

/** Everything configurable about one simulation run. */
struct RunConfig
{
    gpu::GpuConfig gpu = gpu::GpuConfig::rtx2060Bench();
    ShaderKind shader = ShaderKind::PathTracing;
    /** Frame resolution (square); 0 = the scene's bench default. */
    int resolution = 0;
    shaders::PtParams pt;
    shaders::AoParams ao;
    shaders::ShadowParams sh;
    /** Parameters of the Query* workloads (k, radius, steps, oracle
     *  verification). */
    query::QueryParams query;
    power::EnergyCoefficients energy;

    /**
     * Optional observability session (see trace/session.hpp): when
     * set, the run registers every component's counters into the
     * session registry and — per the session's options — records
     * Chrome-trace events and periodic metric snapshots. The session
     * is borrowed, must outlive the run, and has its collected data
     * restarted by each run that uses it. Null = tracing off (the
     * default, with zero timing impact).
     */
    cooprt::trace::Session *trace_session = nullptr;

    /**
     * Optional stall-attribution profiler (see prof/prof.hpp): when
     * set, the run classifies every warp-resident RT-unit cycle into
     * the taxonomy and fills `GpuRunResult::prof_summary`. Borrowed,
     * must outlive the run, reset by each run that uses it. Null =
     * profiling off (the default, bit-identical timing).
     */
    cooprt::prof::Profiler *profiler = nullptr;

    /**
     * Optional ray-level provenance recorder (see
     * raytrace/raytrace.hpp): when set, the run deterministically
     * samples K rays per warp, logs their lifecycle events and fills
     * `GpuRunResult::ray_summary`; the recorder keeps the full
     * per-warp records for raystats / Perfetto export. Borrowed, must
     * outlive the run, reset by each run that uses it. Null =
     * recording off (the default, bit-identical timing).
     */
    cooprt::raytrace::Recorder *ray_recorder = nullptr;

    /**
     * Optional memory & BVH-topology profiler (see
     * memscope/memscope.hpp): when set, the run tags every node fetch
     * with node id / tree depth / serving level, measures cache-line
     * reuse distance and DRAM row locality, and fills
     * `GpuRunResult::memscope_summary`; the collector keeps the full
     * heatmaps for JSON / folded-stack export. Borrowed, must outlive
     * the run, reset by each run that uses it. Null = profiling off
     * (the default, bit-identical timing).
     */
    cooprt::memscope::Collector *memscope = nullptr;

    /**
     * Optional host-side telemetry recorder (see
     * telemetry/telemetry.hpp): when set, the run records phase-
     * scoped wall-clock spans (scene load, BVH build, warmup, sim
     * loop), samples RSS and fills `RunOutcome::telemetry`.
     * Unlike its observer peers it measures the simulator process,
     * not the simulated GPU; like them it is borrowed, must outlive
     * the run, is reset by each run that uses it, and is purely
     * observational — simulated results are bit-identical with and
     * without it. Null = telemetry off (the default, zero overhead).
     */
    cooprt::telemetry::Recorder *telemetry = nullptr;

    /**
     * Canonical 64-bit configuration fingerprint: an FNV-1a hash over
     * every *deterministic* value field — the GPU/memory/RT-unit
     * configuration, shader kind, resolution, workload parameters and
     * energy coefficients — and over none of the borrowed observer
     * pointers (attaching observers never changes simulated results,
     * so it must not change the identity either). Two RunConfigs with
     * equal fingerprints produce bit-identical simulated outcomes on
     * the same scene; the fingerprint is stamped into every report/
     * sink as part of the run key (DESIGN.md section 18).
     */
    std::uint64_t fingerprint() const;
};

/** The run key `Simulation::run` stamps into outcomes and attached
 *  observers: scene + shader token + resolved resolution +
 *  fingerprint (see trace::RunKeyFields). */
cooprt::trace::RunKeyFields makeRunKey(const RunConfig &config,
                                       const std::string &scene,
                                       int resolved_resolution);

/** The result of one run: timing, power and all collected stats. */
struct RunOutcome
{
    std::string scene;
    int resolution = 0;

    /** Canonical run identity (scene, shader, resolution,
     *  config fingerprint), stamped by `Simulation::run` and written
     *  into every JSON report (`core::writeJson`) so cross-run
     *  tooling can align reports (src/diff/, DESIGN.md §18). */
    cooprt::trace::RunKeyFields run_key;
    gpu::GpuRunResult gpu;
    power::PowerReport power;

    /** Host-side telemetry summary (enabled == false unless a
     *  `telemetry::Recorder` was attached via RunConfig). */
    cooprt::telemetry::Summary telemetry;

    /** Query-workload summary (enabled == false unless the run's
     *  shader was one of the Query* kinds): deterministic counts and
     *  checksum, plus the oracle cross-check when
     *  `RunConfig::query.verify` is set. */
    query::Summary query;

    /** Shorthand for the run's observability totals. */
    const cooprt::trace::RunTraceSummary &traceSummary() const
    { return gpu.trace_summary; }
};

/**
 * A scene prepared for simulation: BVH built once, reusable across
 * many runs/configurations.
 */
class Simulation
{
  public:
    /** Build the 6-wide quantized BVH for @p scene. */
    explicit Simulation(const scene::Scene &scene);

    const scene::Scene &scene() const { return scene_; }
    const bvh::FlatBvh &bvh() const { return flat_; }
    /** Wall-clock cost of the one-time BVH build (telemetry's
     *  bvh_build phase; re-reported by every run on this object). */
    double bvhBuildSeconds() const { return bvh_build_seconds_; }
    /** Table 2 columns for this scene. */
    bvh::TreeStats treeStats() const { return flat_.stats(); }

    /** Run one configuration; @p film is an optional output image. */
    RunOutcome run(const RunConfig &config,
                   shaders::Film *film = nullptr) const;

  private:
    /** buildWideBvh timed with telemetry's wall clock; fills
     *  @p seconds (declared before flat_ so the ctor init list can
     *  write through it). */
    static bvh::FlatBvh timedBuild(const scene::Scene &scene,
                                   double *seconds);

    const scene::Scene &scene_;
    double bvh_build_seconds_ = 0.0;
    bvh::FlatBvh flat_;
};

/**
 * Process-wide cache: one prepared Simulation per registry label, so
 * bench binaries that sweep many configurations build each BVH once.
 */
const Simulation &simulationFor(const std::string &label);

/** Baseline-vs-CoopRT comparison for one scene (Fig. 9 row). */
struct Comparison
{
    RunOutcome base;
    RunOutcome coop;

    double speedup() const
    { return double(base.gpu.cycles) / double(coop.gpu.cycles); }
    double powerRatio() const
    { return coop.power.avgWatts() / base.power.avgWatts(); }
    double energyRatio() const
    { return coop.power.totalJoules() / base.power.totalJoules(); }
    /** EDP improvement factor (paper Fig. 15; > 1 is better). */
    double edpImprovement() const
    { return base.power.edp() / coop.power.edp(); }
};

/**
 * Run @p config twice on @p label — coop off then on — holding
 * everything else fixed.
 */
Comparison compareCoop(const std::string &label, RunConfig config);

} // namespace cooprt::core

#endif // COOPRT_CORE_SIMULATION_HPP
