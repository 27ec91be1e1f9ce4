/**
 * @file
 * Fidelity of the traced driver: on every benchmark workload the
 * replayed event loop must reproduce `core::Simulation::run`'s
 * simulated results exactly, and its per-layer self times must add up
 * to the traced frame time.
 */

#include <gtest/gtest.h>

#include "replay.hpp"
#include "workloads.hpp"

using namespace cooprt;

namespace {

class Fidelity : public ::testing::TestWithParam<std::string>
{
};

void
expectSameStats(const gpu::GpuRunResult &a, const gpu::GpuRunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.rt.node_fetches, b.rt.node_fetches);
    EXPECT_EQ(a.rt.leaf_fetches, b.rt.leaf_fetches);
    EXPECT_EQ(a.rt.steals, b.rt.steals);
    EXPECT_EQ(a.rt.stale_pops, b.rt.stale_pops);
    EXPECT_EQ(a.rt.retired_warps, b.rt.retired_warps);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.l2.hits, b.l2.hits);
    EXPECT_EQ(a.dram.bytes, b.dram.bytes);
    // The digest covers every RtUnitStats, cache and DRAM counter.
    EXPECT_TRUE(hostbench::digestOf(a, {}) == hostbench::digestOf(b, {}));
    EXPECT_EQ(a.stalls.rt, b.stalls.rt);
    EXPECT_EQ(a.completions.size(), b.completions.size());
    EXPECT_EQ(a.avg_thread_utilization, b.avg_thread_utilization);
}

TEST_P(Fidelity, ReplayReproducesSimulationRun)
{
    const auto w = hostbench::makeWorkload(GetParam());
    ASSERT_TRUE(w.has_value());
    const core::RunConfig &cfg = w->config;

    const core::Simulation sim(scene::SceneRegistry::get(w->scene));
    const core::RunOutcome ref = sim.run(cfg);
    EXPECT_TRUE(w->pinned.matches(hostbench::digestOf(ref.gpu, ref.query)))
        << "cycles " << ref.gpu.cycles << ", node+leaf fetches "
        << ref.gpu.rt.node_fetches + ref.gpu.rt.leaf_fetches
        << ", steals " << ref.gpu.rt.steals;

    const hostbench::ReplayResult timed =
        hostbench::replayFrame(sim, cfg);
    expectSameStats(ref.gpu, timed.gpu);
    EXPECT_EQ(ref.query.checksum, timed.query.checksum);
    EXPECT_EQ(ref.query.rounds, timed.query.rounds);
    EXPECT_EQ(ref.query.oracle_mismatches, timed.query.oracle_mismatches);
    EXPECT_EQ(ref.query.verified, timed.query.verified);

    // Every trace_ray the programs issue retires exactly once.
    EXPECT_EQ(timed.trace_rays, timed.gpu.rt.retired_warps);
    EXPECT_GE(timed.rays, timed.trace_rays);
    EXPECT_LE(timed.rays, 32 * timed.trace_rays);

    // Self times plus the unattributed rest make up the frame.
    EXPECT_GT(timed.frame_ns, 0u);
    EXPECT_GT(timed.sm_tick.ns, 0u);
    EXPECT_GT(timed.fetch.calls, 0u);
    EXPECT_GE(timed.unattributedNs(), 0);
    const std::uint64_t layers =
        timed.frame_build.ns + timed.program.ns + timed.sm_tick.ns +
        timed.next_event.ns + timed.fetch.ns + timed.oracle.ns;
    EXPECT_EQ(std::int64_t(layers) + timed.unattributedNs(),
              std::int64_t(timed.frame_ns));
    EXPECT_EQ(timed.oracle.calls, cfg.query.verify &&
                                          core::isQueryShader(cfg.shader)
                                      ? 1u
                                      : 0u);
}

// Only the observed workload attaches observers in timed frames (on
// fox they cost tens of seconds per frame).
TEST(ObservedWorkload, ObserversLeaveTheDigestAlone)
{
    const auto w = hostbench::makeWorkload("pt_coop_ship_observed", 3);
    ASSERT_TRUE(w.has_value());
    const core::Simulation sim(scene::SceneRegistry::get(w->scene));
    core::RunConfig cfg = w->config;
    const core::RunOutcome plain = sim.run(cfg);
    hostbench::ObserverSet observers(cfg);
    observers.attach(cfg, hostbench::kAllObservers);
    const core::RunOutcome observed = sim.run(cfg);
    EXPECT_TRUE(hostbench::digestOf(plain.gpu, plain.query) ==
                hostbench::digestOf(observed.gpu, observed.query));
    EXPECT_GT(observers.exportSinks(hostbench::kAllObservers,
                                    observed.scene),
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Fidelity,
    ::testing::ValuesIn(hostbench::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
