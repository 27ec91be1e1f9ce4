/**
 * @file
 * Paper Fig. 11: per-thread trace_ray execution timeline of one warp
 * in the bath scene, baseline vs CoopRT. A '#' column means the lane
 * has a non-empty traversal stack (or a node in flight). CoopRT fills
 * idle lanes with stolen work and shortens the whole trace.
 *
 * Built on the ray-provenance recorder (src/raytrace/): it samples
 * one late warp (all 32 lanes, SM 0, 60 trace_rays skipped) and
 * raytrace::laneTimeline renders its lane-edge log.
 */

#include "bench_util.hpp"
#include "raytrace/raytrace.hpp"

int
main(int argc, char **argv)
{
    using namespace cooprt;
    auto opt = benchutil::parse(argc, argv);
    const std::string label = "bath"; // the paper's Fig. 11 scene
    const int columns = 100;
    // Skip the coherent primary traces; record a divergent bounce.
    const int skip = 60;

    const auto &sim = core::simulationFor(label);
    prof::Profiler profiler;
    stats::Table t({"variant", "trace cycles", "lane util %",
                    "issue %", "starved %", "steal %"});

    for (bool coop : {false, true}) {
        benchutil::note(std::string("fig11 ") +
                        (coop ? "coop" : "baseline"));
        core::RunConfig cfg;
        cfg.gpu.trace.coop = coop;
        cfg.profiler = &profiler;
        raytrace::RecorderConfig rcfg;
        rcfg.sample_k = rtunit::kWarpSize;
        rcfg.warp_skip = std::uint64_t(skip);
        rcfg.max_warps_per_unit = 1;
        rcfg.lane_timeline = true;
        raytrace::Recorder ray(rcfg);
        cfg.ray_recorder = &ray;
        core::RunOutcome out = sim.run(cfg);

        const raytrace::WarpRecord *warp = nullptr;
        for (const raytrace::WarpRecord *w : ray.warps())
            if (w->sm == 0)
                warp = w;
        if (warp == nullptr) {
            std::fprintf(stderr,
                         "fig11: recorder captured no warp on SM 0\n");
            return 1;
        }
        stats::TimelineRecorder rec = raytrace::laneTimeline(*warp);

        if (!opt.csv) {
            std::printf("\nFig. 11%s — %s, scene %s, one late "
                        "trace_ray on SM 0:\n",
                        coop ? "b" : "a",
                        coop ? "CoopRT" : "baseline", label.c_str());
            std::fputs(rec.render(columns).c_str(), stdout);
        }
        // Whole-run taxonomy shares explain what the rendered
        // timeline shows: CoopRT converts starved lanes into steals.
        using prof::Bucket;
        const auto &p = out.gpu.prof_summary;
        const double resident = double(p.resident_cycles);
        const double starved = double(p.of(Bucket::StarvedL1) +
                                      p.of(Bucket::StarvedL2) +
                                      p.of(Bucket::StarvedDram));
        t.row()
            .cell(coop ? "CoopRT" : "baseline")
            .cell(rec.lastCycle() - rec.firstCycle())
            .cell(100.0 * rec.averageUtilization(), 1)
            .cell(100.0 * double(p.of(Bucket::IssueCompute)) /
                      resident, 1)
            .cell(100.0 * starved / resident, 1)
            .cell(100.0 * double(p.of(Bucket::LbuSteal)) / resident,
                  1);
    }
    benchutil::emit(t, opt);
    return 0;
}
