/**
 * @file
 * Golden-file pins of the ray recorder's whole-run outputs. Both must
 * match byte for byte:
 *
 *   - the raystats JSON of wknd@32 path tracing with CoopRT and the
 *     default recorder config. Regenerate with
 *       simulate_cli --scene wknd --resolution 32 --coop
 *         --ray-out tests/raytrace/golden/wknd32_pt_coop.raystats.json
 *   - the fig11 lane timelines: bath, SM 0, 60 trace_rays skipped,
 *     baseline then CoopRT, rendered at 100 columns (what
 *     bench/fig11_warp_timeline prints).
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "raytrace/raytrace.hpp"

namespace {

using namespace cooprt;

std::string
readGolden(const std::string &name)
{
    const std::string path =
        std::string(COOPRT_RAYTRACE_GOLDEN_DIR) + "/" + name;
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "missing golden file " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(RayGolden, RayStatsJsonMatchesGolden)
{
    raytrace::Recorder ray;
    core::RunConfig cfg;
    cfg.resolution = 32;
    cfg.gpu.trace.coop = true;
    cfg.ray_recorder = &ray;
    const core::RunOutcome out = core::simulationFor("wknd").run(cfg);
    std::ostringstream got;
    ray.writeRayStatsJson(got, out.scene);
    EXPECT_EQ(got.str(), readGolden("wknd32_pt_coop.raystats.json"));
}

TEST(RayGolden, Fig11LaneTimelinesMatchGolden)
{
    std::string got;
    for (const bool coop : {false, true}) {
        raytrace::RecorderConfig rcfg;
        rcfg.sample_k = rtunit::kWarpSize;
        rcfg.warp_skip = 60;
        rcfg.max_warps_per_unit = 1;
        rcfg.lane_timeline = true;
        raytrace::Recorder ray(rcfg);
        core::RunConfig cfg;
        cfg.gpu.trace.coop = coop;
        cfg.ray_recorder = &ray;
        core::simulationFor("bath").run(cfg);

        const raytrace::WarpRecord *warp = nullptr;
        for (const raytrace::WarpRecord *w : ray.warps())
            if (w->sm == 0)
                warp = w;
        ASSERT_NE(warp, nullptr);
        got += coop ? "# coop\n" : "# baseline\n";
        got += raytrace::laneTimeline(*warp).render(100);
    }
    EXPECT_EQ(got, readGolden("fig11_bath_skip60.txt"));
}

} // namespace
