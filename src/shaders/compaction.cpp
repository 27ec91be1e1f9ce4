#include "shaders/compaction.hpp"

namespace cooprt::shaders {

using geom::HitRecord;
using geom::Pcg32;
using geom::Ray;
using geom::Vec3;
using rtunit::kWarpSize;

namespace {

/** One path's state across bounces. */
struct PathState
{
    bool alive = true;
    int px = 0, py = 0;
    Ray ray;
    Vec3 throughput{1, 1, 1};
    Pcg32 rng;
};

/**
 * A warp program that performs exactly one trace_ray over a packed
 * set of paths and finishes; the compaction loop re-packs between
 * passes.
 */
class OneTraceProgram : public gpu::WarpProgram
{
  public:
    OneTraceProgram(std::vector<PathState *> paths,
                    const gpu::ShadingCost &cost)
        : paths_(std::move(paths)), cost_(cost)
    {}

    gpu::WarpAction
    start() override
    {
        gpu::WarpAction a;
        a.cost = cost_;
        a.kind = gpu::WarpAction::Kind::Finish;
        for (std::size_t t = 0; t < paths_.size(); ++t) {
            a.trace.rays[t] = paths_[t]->ray;
            a.kind = gpu::WarpAction::Kind::Trace;
        }
        return a;
    }

    gpu::WarpAction
    resume(const rtunit::TraceResult &result) override
    {
        hits = result.hits;
        gpu::WarpAction done;
        done.cost = cost_;
        done.kind = gpu::WarpAction::Kind::Finish;
        return done;
    }

    const std::vector<PathState *> &paths() const { return paths_; }
    std::array<HitRecord, kWarpSize> hits{};

  private:
    std::vector<PathState *> paths_;
    gpu::ShadingCost cost_;
};

} // namespace

CompactionResult
runCompactedPathTrace(const scene::Scene &sc, const bvh::FlatBvh &flat,
                      const gpu::GpuConfig &config, int res,
                      const PtParams &params, Film *film)
{
    CompactionResult out;

    // Initialize every pixel's path exactly as PathTracerProgram does
    // (same RNG streams, so the image matches the uncompacted run).
    std::vector<PathState> paths(std::size_t(res) * std::size_t(res));
    for (int pixel = 0; pixel < res * res; ++pixel) {
        PathState &p = paths[std::size_t(pixel)];
        p.px = pixel % res;
        p.py = pixel / res;
        p.rng = Pcg32(geom::mix64(std::uint64_t(pixel) * 2654435761u ^
                                  params.frame_seed),
                      std::uint64_t(pixel));
        p.ray = sc.camera.primaryRay(p.px, p.py, res, res,
                                     p.rng.nextFloat(),
                                     p.rng.nextFloat());
    }

    auto terminate = [&](PathState &p, const Vec3 &radiance) {
        if (film != nullptr)
            film->add(p.px, p.py, radiance);
        p.alive = false;
    };

    gpu::Gpu g(flat, sc.mesh, config);

    for (int bounce = 0; bounce < params.max_bounces; ++bounce) {
        // Compact: gather the whole frame's alive paths, pack full
        // warps (this is the global reorganization barrier).
        std::vector<PathState *> alive;
        for (auto &p : paths)
            if (p.alive)
                alive.push_back(&p);
        if (alive.empty())
            break;

        std::vector<std::unique_ptr<OneTraceProgram>> programs;
        for (std::size_t first = 0; first < alive.size();
             first += kWarpSize) {
            const std::size_t last =
                std::min(alive.size(), first + kWarpSize);
            programs.push_back(std::make_unique<OneTraceProgram>(
                std::vector<PathState *>(alive.begin() + first,
                                         alive.begin() + last),
                params.bounce_cost));
        }

        std::vector<gpu::WarpProgram *> ptrs;
        for (auto &p : programs)
            ptrs.push_back(p.get());
        // Later bounces run on a warm machine: only the clock
        // restarts at the pass boundary.
        const gpu::GpuRunResult pass =
            g.run(ptrs, bounce > 0);
        out.cycles += pass.cycles;
        out.bounce_cycles.push_back(pass.cycles);
        out.bounce_warps.push_back(programs.size());
        out.traces += pass.rt.retired_warps;

        // Shade: process hits exactly like the uncompacted tracer.
        for (auto &prog : programs) {
            const auto &ps = prog->paths();
            for (std::size_t t = 0; t < ps.size(); ++t) {
                PathState &p = *ps[t];
                const HitRecord &hit = prog->hits[t];
                if (!hit.hit()) {
                    terminate(p, p.throughput * sc.sky_emission);
                    continue;
                }
                const scene::Material &mat =
                    sc.materialOf(hit.prim_id);
                if (mat.isLight()) {
                    terminate(p, p.throughput * mat.emission);
                    continue;
                }
                if (p.rng.nextFloat() >= mat.scatter_prob) {
                    terminate(p, Vec3{0, 0, 0});
                    continue;
                }
                p.throughput = p.throughput * mat.albedo;
                p.ray = Ray(p.ray.at(hit.thit),
                            p.rng.nextCosineHemisphere(hit.normal));
            }
        }
    }

    // Paths that survived the bounce limit contribute nothing.
    for (auto &p : paths)
        if (p.alive)
            terminate(p, Vec3{0, 0, 0});
    return out;
}

} // namespace cooprt::shaders
