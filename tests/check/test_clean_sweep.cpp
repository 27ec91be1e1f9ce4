/**
 * @file
 * The other half of the mutation proof: with no mutation armed, the
 * audit net must stay silent across the whole benchmark scene sweep,
 * baseline and CoopRT, with and without an observability session.
 * The sweep attaches a profiler, so the stall-attribution audits
 * (prof.bucket_conservation, prof.gap_view_frozen) run on every
 * scene too.
 * A false positive here would make every audit worthless in CI.
 *
 * In default builds the audits compile away, so the sweep doubles as
 * a cheap smoke test that violationCount() stays untouched.
 */

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "core/simulation.hpp"
#include "prof/prof.hpp"
#include "scene/registry.hpp"
#include "trace/session.hpp"

namespace {

using namespace cooprt;

class CleanSweep : public ::testing::TestWithParam<std::string>
{};

TEST_P(CleanSweep, NoViolationsBaseAndCoop)
{
    const std::uint64_t before = check::violationCount();
    check::Collector collector;

    prof::Profiler profiler;
    core::RunConfig cfg;
    cfg.resolution = 16;
    cfg.profiler = &profiler;
    cfg.gpu.trace.coop = false;
    const auto base = core::simulationFor(GetParam()).run(cfg);
    cfg.gpu.trace.coop = true;
    const auto coop = core::simulationFor(GetParam()).run(cfg);

    EXPECT_GT(base.gpu.cycles, 0u);
    EXPECT_GT(coop.gpu.cycles, 0u);
    ASSERT_TRUE(collector.empty())
        << collector.items().size() << " violations; first: "
        << collector.items().front().message();
    EXPECT_EQ(check::violationCount(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Scenes, CleanSweep,
    ::testing::ValuesIn(scene::SceneRegistry::allLabels()),
    [](const auto &info) { return info.param; });

TEST(CleanSweepExtra, OtherShadersAndTracingStaySilent)
{
    check::Collector collector;

    core::RunConfig cfg;
    cfg.resolution = 16;
    cfg.gpu.trace.coop = true;

    cfg.shader = core::ShaderKind::AmbientOcclusion;
    core::simulationFor("bunny").run(cfg);
    cfg.shader = core::ShaderKind::Shadow;
    core::simulationFor("ship").run(cfg);

    // A session with metrics sampling exercises the sampler audits.
    trace::SessionOptions opt;
    opt.metrics = true;
    trace::Session session(opt);
    cfg.gpu.sample_interval = 100;
    cfg.shader = core::ShaderKind::PathTracing;
    cfg.trace_session = &session;
    const auto out = core::simulationFor("wknd").run(cfg);

    EXPECT_GT(out.gpu.cycles, 0u);
    ASSERT_TRUE(collector.empty())
        << collector.items().size() << " violations; first: "
        << collector.items().front().message();
}

} // namespace
