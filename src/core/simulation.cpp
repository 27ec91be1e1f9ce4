#include "core/simulation.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>

namespace cooprt::core {

const char *
shaderToken(ShaderKind k)
{
    switch (k) {
      case ShaderKind::PathTracing:
        return "pt";
      case ShaderKind::AmbientOcclusion:
        return "ao";
      case ShaderKind::Shadow:
        return "sh";
      case ShaderKind::QueryKnn:
        return "knn";
      case ShaderKind::QueryRadius:
        return "radius";
      case ShaderKind::QueryContain:
        return "contain";
    }
    return "?";
}

namespace {

/**
 * Field-by-field FNV-1a mixer for RunConfig::fingerprint(). Every
 * field is mixed through its byte representation with a fixed width,
 * so the hash is stable across platforms with identical field values
 * and changes whenever any single knob changes. Floating-point
 * fields mix their IEEE-754 bits — the configs compared by the diff
 * tooling come from the same literals, never from arithmetic, so
 * bit-equality is the right notion of "same configuration".
 */
class Fnv
{
  public:
    void
    mixBytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    mix(T v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        // Widen integers/enums/bools to a fixed 8 bytes so the hash
        // does not depend on the declared field width.
        if constexpr (std::is_floating_point_v<T>) {
            double d = double(v);
            std::uint64_t bits = 0;
            std::memcpy(&bits, &d, sizeof(bits));
            mixBytes(&bits, sizeof(bits));
        } else {
            const std::uint64_t wide = std::uint64_t(std::int64_t(v));
            mixBytes(&wide, sizeof(wide));
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void
mixCache(Fnv &f, const mem::CacheConfig &c)
{
    f.mix(c.size_bytes);
    f.mix(c.assoc);
    f.mix(c.line_bytes);
    f.mix(c.latency);
    f.mix(c.sector_bytes);
}

void
mixShadingCost(Fnv &f, const gpu::ShadingCost &c)
{
    f.mix(c.alu);
    f.mix(c.sfu);
    f.mix(c.mem);
}

} // namespace

std::uint64_t
RunConfig::fingerprint() const
{
    Fnv f;
    // GPU shell.
    f.mix(gpu.num_sms);
    f.mix(gpu.max_warps_per_sm);
    f.mix(gpu.alu_latency);
    f.mix(gpu.sfu_latency);
    f.mix(gpu.mem_latency);
    f.mix(gpu.sample_interval);
    // Memory hierarchy.
    f.mix(gpu.mem.num_sms);
    mixCache(f, gpu.mem.l1);
    mixCache(f, gpu.mem.l2);
    f.mix(gpu.mem.l1_sector_bytes);
    f.mix(gpu.mem.l2_banks);
    f.mix(gpu.mem.l2_bytes_per_cycle);
    f.mix(gpu.mem.dram.channels);
    f.mix(gpu.mem.dram.latency);
    f.mix(gpu.mem.dram.bytes_per_cycle);
    f.mix(gpu.mem.dram.interleave_bytes);
    // RT unit.
    f.mix(gpu.trace.coop);
    f.mix(gpu.trace.subwarp_size);
    f.mix(gpu.trace.warp_buffer_entries);
    f.mix(gpu.trace.lbu_moves_per_cycle);
    f.mix(gpu.trace.steal_from_bottom);
    f.mix(gpu.trace.order);
    f.mix(gpu.trace.sched);
    f.mix(gpu.trace.helper_requires_idle);
    f.mix(gpu.trace.math_latency);
    f.mix(gpu.trace.stack_capacity);
    f.mix(gpu.trace.model_hit_stores);
    f.mix(gpu.trace.hit_record_bytes);
    f.mix(gpu.trace.child_prefetch);
    f.mix(gpu.trace.intersection_predictor);
    f.mix(gpu.trace.predictor_entries);
    // Workload.
    f.mix(shader);
    f.mix(resolution);
    f.mix(pt.max_bounces);
    f.mix(pt.frame_seed);
    mixShadingCost(f, pt.bounce_cost);
    f.mix(ao.samples);
    f.mix(ao.radius_fraction);
    f.mix(ao.frame_seed);
    mixShadingCost(f, ao.shade_cost);
    f.mix(sh.samples);
    f.mix(sh.frame_seed);
    mixShadingCost(f, sh.shade_cost);
    f.mix(query.k);
    f.mix(query.radius);
    f.mix(query.steps);
    f.mix(query.frame_seed);
    f.mix(query.max_rounds);
    f.mix(query.verify);
    mixShadingCost(f, query.shade_cost);
    // Energy model (reported joules/EDP are part of the outcome).
    f.mix(energy.box_test_nj);
    f.mix(energy.tri_test_nj);
    f.mix(energy.lbu_move_nj);
    f.mix(energy.stack_op_nj);
    f.mix(energy.l1_access_nj);
    f.mix(energy.l2_access_nj);
    f.mix(energy.dram_access_nj);
    f.mix(energy.shade_cycle_nj);
    f.mix(energy.static_w_per_sm);
    // Observer pointers are deliberately NOT mixed: attaching them
    // never changes simulated results (the determinism contract), so
    // it must not change the run identity either.
    return f.value();
}

cooprt::trace::RunKeyFields
makeRunKey(const RunConfig &config, const std::string &scene,
           int resolved_resolution)
{
    cooprt::trace::RunKeyFields key;
    key.scene = scene;
    key.shader = shaderToken(config.shader);
    key.resolution = resolved_resolution;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(
                      config.fingerprint()));
    key.fingerprint = buf;
    return key;
}

Simulation::Simulation(const scene::Scene &scene)
    : scene_(scene), flat_(timedBuild(scene, &bvh_build_seconds_))
{
}

bvh::FlatBvh
Simulation::timedBuild(const scene::Scene &scene, double *seconds)
{
    const double t0 = telemetry::monotonicSeconds();
    bvh::FlatBvh flat(bvh::buildWideBvh(scene.mesh));
    *seconds = telemetry::monotonicSeconds() - t0;
    return flat;
}

RunOutcome
Simulation::run(const RunConfig &config, shaders::Film *film) const
{
    const int res = config.resolution > 0
                        ? config.resolution
                        : scene_.default_resolution;

    if (config.telemetry != nullptr) {
        config.telemetry->reset();
        // Scene and BVH construction are one-time, process-cached
        // costs; every run that uses the cache re-reports them so a
        // run's telemetry is self-contained (DESIGN.md §16.2).
        config.telemetry->recordPhase(telemetry::Phase::SceneLoad,
                                      scene_.build_seconds);
        config.telemetry->recordPhase(telemetry::Phase::BvhBuild,
                                      bvh_build_seconds_);
    }

    std::vector<std::unique_ptr<gpu::WarpProgram>> programs;
    // Kept alive for the whole run (Shadow programs reference it).
    std::unique_ptr<shaders::LightSampler> lights;
    // Query-workload result sink (query programs write into it).
    std::unique_ptr<query::ResultStore> qstore;
    const query::Workload qwl =
        config.shader == ShaderKind::QueryRadius ? query::Workload::Radius
        : config.shader == ShaderKind::QueryContain
            ? query::Workload::Contain
            : query::Workload::Knn;
    {
        const auto warmup = telemetry::Recorder::span(
            config.telemetry, telemetry::Phase::Warmup);
        switch (config.shader) {
          case ShaderKind::PathTracing:
            programs = shaders::makePathTracerFrame(scene_, film, res,
                                                    res, config.pt);
            break;
          case ShaderKind::AmbientOcclusion:
            programs = shaders::makeAmbientOcclusionFrame(
                scene_, film, res, res, config.ao);
            break;
          case ShaderKind::Shadow:
            lights = std::make_unique<shaders::LightSampler>(scene_);
            programs = shaders::makeShadowFrame(scene_, *lights, film,
                                                res, res, config.sh);
            break;
          case ShaderKind::QueryKnn:
          case ShaderKind::QueryRadius:
          case ShaderKind::QueryContain:
            qstore = std::make_unique<query::ResultStore>(
                std::size_t(res) * std::size_t(res));
            if (config.trace_session != nullptr)
                qstore->registerMetrics(
                    config.trace_session->registry());
            programs = query::makeQueryFrame(scene_, qwl, *qstore,
                                             res, res, config.query);
            break;
        }
    }

    std::vector<gpu::WarpProgram *> ptrs;
    ptrs.reserve(programs.size());
    for (auto &p : programs)
        ptrs.push_back(p.get());

    gpu::Gpu g(flat_, scene_.mesh, config.gpu);
    g.setTrace(config.trace_session);
    g.setProf(config.profiler);
    g.setRayTrace(config.ray_recorder);
    g.setMemscope(config.memscope);
    g.setTelemetry(config.telemetry);
    RunOutcome out;
    out.scene = scene_.name;
    out.resolution = res;
    out.run_key = makeRunKey(config, scene_.name, res);
    // Stamp the key onto the attached observers so every sink they
    // later export carries the same identity block. setRunKey is
    // metadata-only and does not perturb the observers' collected
    // data (and run() has already reset the ones it uses).
    if (config.trace_session != nullptr)
        config.trace_session->setRunKey(out.run_key);
    if (config.ray_recorder != nullptr)
        config.ray_recorder->setRunKey(out.run_key);
    if (config.memscope != nullptr)
        config.memscope->setRunKey(out.run_key);
    if (config.telemetry != nullptr)
        config.telemetry->setRunKey(out.run_key);
    {
        const auto simloop = telemetry::Recorder::span(
            config.telemetry, telemetry::Phase::SimLoop);
        out.gpu = g.run(ptrs);
    }

    power::EnergyModel energy(config.energy);
    out.power = energy.evaluate(out.gpu, config.gpu.num_sms);
#if COOPRT_CHECK_ENABLED
    COOPRT_AUDIT("core.simulation", "core.outcome_sane",
                 out.gpu.cycles,
                 (ptrs.empty() || out.gpu.cycles > 0) &&
                     out.gpu.completions.size() == ptrs.size() &&
                     out.power.totalJoules() >= 0.0,
                 "scene " + out.scene + ": cycles=" +
                     std::to_string(out.gpu.cycles) + " warps=" +
                     std::to_string(ptrs.size()) + " completed=" +
                     std::to_string(out.gpu.completions.size()));
#endif
    if (qstore != nullptr) {
        out.query = query::summarize(qwl, *qstore);
        if (config.query.verify) {
            const query::OracleCheck chk = query::verifyAgainstOracle(
                scene_, qwl, config.query, res, res, *qstore);
            out.query.verified = true;
            out.query.oracle_checked = chk.checked;
            out.query.oracle_mismatches = chk.mismatches;
#if COOPRT_CHECK_ENABLED
            COOPRT_AUDIT("core.simulation", "core.query_oracle_agrees",
                         chk.mismatches, chk.mismatches == 0,
                         "scene " + out.scene + " workload " +
                             out.query.workload + ": " +
                             std::to_string(chk.mismatches) + " of " +
                             std::to_string(chk.checked) +
                             " queries disagree with the brute-force "
                             "oracle");
#endif
        }
    }
    if (config.telemetry != nullptr) {
        config.telemetry->finishRun(out.gpu.cycles,
                                    out.gpu.rt.retired_warps);
        out.telemetry = config.telemetry->summary();
    }
    return out;
}

const Simulation &
simulationFor(const std::string &label)
{
    // Mirrors SceneRegistry::get: the map is created once with every
    // label pre-inserted (immutable structure, lock-free lookups) and
    // each BVH builds under its own once_flag, so campaign workers
    // prepare different scenes concurrently without serializing on a
    // global lock.
    struct Slot
    {
        std::once_flag once;
        std::unique_ptr<Simulation> sim;
    };
    static std::map<std::string, Slot> cache;
    static std::once_flag init;
    std::call_once(init, [] {
        for (const auto &l : scene::SceneRegistry::allLabels())
            cache.try_emplace(l);
        for (const auto &l : scene::SceneRegistry::queryLabels())
            cache.try_emplace(l);
    });
    auto it = cache.find(label);
    if (it == cache.end())
        throw std::out_of_range("unknown scene label: " + label);
    Slot &slot = it->second;
    std::call_once(slot.once, [&] {
        slot.sim = std::make_unique<Simulation>(
            scene::SceneRegistry::get(label));
    });
    return *slot.sim;
}

Comparison
compareCoop(const std::string &label, RunConfig config)
{
    const Simulation &sim = simulationFor(label);
    Comparison cmp;
    config.gpu.trace.coop = false;
    cmp.base = sim.run(config);
    config.gpu.trace.coop = true;
    cmp.coop = sim.run(config);
    return cmp;
}

} // namespace cooprt::core
