/**
 * @file
 * Observers compose: every RT-unit observer receives the same event
 * stream whether it runs alone or beside all the others, so its
 * sinks are byte-identical either way. Checked on wknd@32 path
 * tracing, baseline and CoopRT, for the prof folded + JSON output,
 * the memscope folded + JSON output and the raystats JSON; the
 * shared run also carries a tracing + metrics session and telemetry.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;

/** The observers one run may attach, and their sinks. */
struct Observers
{
    prof::Profiler prof;
    memscope::Collector mscope;
    raytrace::Recorder ray;

    std::string
    profSinks() const
    {
        std::ostringstream os;
        prof.writeFolded(os, "wknd");
        prof.writeJson(os, "wknd");
        return os.str();
    }
    std::string
    memscopeSinks() const
    {
        std::ostringstream os;
        mscope.writeFolded(os, "wknd");
        mscope.writeJson(os, "wknd");
        return os.str();
    }
    std::string
    rayStats() const
    {
        std::ostringstream os;
        ray.writeRayStatsJson(os, "wknd");
        return os.str();
    }
};

core::RunConfig
wknd32(bool coop)
{
    core::RunConfig cfg;
    cfg.resolution = 32;
    cfg.gpu.trace.coop = coop;
    return cfg;
}

class ObserverComposition : public ::testing::TestWithParam<bool>
{};

TEST_P(ObserverComposition, SinksMatchAloneAndTogether)
{
    const core::Simulation &sim = core::simulationFor("wknd");

    Observers alone;
    core::RunConfig cfg = wknd32(GetParam());
    cfg.profiler = &alone.prof;
    sim.run(cfg);
    cfg = wknd32(GetParam());
    cfg.memscope = &alone.mscope;
    sim.run(cfg);
    cfg = wknd32(GetParam());
    cfg.ray_recorder = &alone.ray;
    sim.run(cfg);

    // The session's registry must outlive the observers it serves.
    trace::SessionOptions opt;
    opt.events = true;
    opt.metrics = true;
    trace::Session session(opt);
    Observers all;
    telemetry::Recorder telem;
    cfg = wknd32(GetParam());
    cfg.profiler = &all.prof;
    cfg.memscope = &all.mscope;
    cfg.ray_recorder = &all.ray;
    cfg.trace_session = &session;
    cfg.telemetry = &telem;
    sim.run(cfg);

    EXPECT_EQ(all.profSinks(), alone.profSinks());
    EXPECT_EQ(all.memscopeSinks(), alone.memscopeSinks());
    EXPECT_EQ(all.rayStats(), alone.rayStats());
    EXPECT_GT(all.prof.residentCycles(), 0u);
    EXPECT_GT(all.ray.stats().rays_sampled, 0u);
}

INSTANTIATE_TEST_SUITE_P(BaseAndCoop, ObserverComposition,
                         ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "coop" : "base";
                         });

} // namespace
