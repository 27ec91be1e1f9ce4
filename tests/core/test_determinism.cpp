/**
 * @file
 * Determinism regression: the simulator is a pure function of its
 * RunConfig. Two identical runs must agree bit-for-bit on every
 * reported statistic, and attaching an observability session (which
 * the docs promise is purely observational) must not move a single
 * cycle. Guards against hidden global state, iteration-order
 * dependence and observer effects sneaking into the timing model.
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "trace/session.hpp"

namespace {

using namespace cooprt;

/** Every scalar statistic of a run, for exact comparison. */
void
expectIdentical(const gpu::GpuRunResult &a, const gpu::GpuRunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);

    EXPECT_EQ(a.rt.node_fetches, b.rt.node_fetches);
    EXPECT_EQ(a.rt.leaf_fetches, b.rt.leaf_fetches);
    EXPECT_EQ(a.rt.box_tests, b.rt.box_tests);
    EXPECT_EQ(a.rt.tri_tests, b.rt.tri_tests);
    EXPECT_EQ(a.rt.steals, b.rt.steals);
    EXPECT_EQ(a.rt.stale_pops, b.rt.stale_pops);
    EXPECT_EQ(a.rt.stack_overflows, b.rt.stack_overflows);
    EXPECT_EQ(a.rt.retired_warps, b.rt.retired_warps);
    EXPECT_EQ(a.rt.retired_trace_latency, b.rt.retired_trace_latency);
    EXPECT_EQ(a.rt.max_trace_latency, b.rt.max_trace_latency);
    EXPECT_EQ(a.rt.issue_cycles, b.rt.issue_cycles);

    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.mshr_merges, b.l1.mshr_merges);
    EXPECT_EQ(a.l2.accesses, b.l2.accesses);
    EXPECT_EQ(a.l2.misses, b.l2.misses);
    EXPECT_EQ(a.dram.requests, b.dram.requests);
    EXPECT_EQ(a.dram.bytes, b.dram.bytes);
    EXPECT_EQ(a.mem_sys.l2_bytes, b.mem_sys.l2_bytes);
    EXPECT_EQ(a.mem_sys.l2_busy_cycles, b.mem_sys.l2_busy_cycles);

    EXPECT_EQ(a.stalls.rt, b.stalls.rt);
    EXPECT_EQ(a.stalls.mem, b.stalls.mem);
    EXPECT_EQ(a.stalls.alu, b.stalls.alu);
    EXPECT_EQ(a.stalls.sfu, b.stalls.sfu);

    ASSERT_EQ(a.completions.size(), b.completions.size());
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        EXPECT_EQ(a.completions[i].warp_id, b.completions[i].warp_id);
        EXPECT_EQ(a.completions[i].start_cycle,
                  b.completions[i].start_cycle);
        EXPECT_EQ(a.completions[i].finish_cycle,
                  b.completions[i].finish_cycle);
    }

    EXPECT_EQ(a.avg_thread_utilization, b.avg_thread_utilization);
    ASSERT_EQ(a.utilization_series.size(),
              b.utilization_series.size());
    for (std::size_t i = 0; i < a.utilization_series.size(); ++i)
        EXPECT_EQ(a.utilization_series[i], b.utilization_series[i]);
}

class Determinism : public ::testing::TestWithParam<bool>
{};

TEST_P(Determinism, RepeatedRunsAreBitIdentical)
{
    core::RunConfig cfg;
    cfg.resolution = 24;
    cfg.gpu.trace.coop = GetParam();

    const core::Simulation &sim = core::simulationFor("wknd");
    const auto first = sim.run(cfg);
    const auto second = sim.run(cfg);
    expectIdentical(first.gpu, second.gpu);
}

TEST_P(Determinism, ObservabilitySessionPerturbsNothing)
{
    core::RunConfig cfg;
    cfg.resolution = 24;
    cfg.gpu.trace.coop = GetParam();
    cfg.gpu.sample_interval = 100; // five metric rows per 500 cycles

    const core::Simulation &sim = core::simulationFor("wknd");
    const auto plain = sim.run(cfg);

    trace::SessionOptions opt;
    opt.events = true;
    opt.metrics = true;
    trace::Session session(opt);
    cfg.trace_session = &session;
    const auto traced = sim.run(cfg);

    expectIdentical(plain.gpu, traced.gpu);
    // ...and the session did actually observe the run.
    EXPECT_GT(traced.traceSummary().registered_metrics, 0u);
}

INSTANTIATE_TEST_SUITE_P(BaseAndCoop, Determinism,
                         ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "coop" : "base";
                         });

} // namespace
