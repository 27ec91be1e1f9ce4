/**
 * @file
 * End-to-end tests of the observability subsystem attached to real
 * simulation runs: zero perturbation, Chrome-trace validity, and the
 * metrics CSV reproducing the activity sampler's series.
 */

#include <algorithm>
#include <fstream>
#include <sstream>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "../sink_checks.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "trace/json_value.hpp"
#include "trace/session.hpp"

namespace {

using namespace cooprt;

core::RunConfig
smallCfg()
{
    core::RunConfig c;
    c.resolution = 16;
    c.gpu = gpu::GpuConfig::rtx2060Bench();
    return c;
}

trace::SessionOptions
fullOptions()
{
    trace::SessionOptions opt;
    opt.events = true;
    opt.metrics = true;
    return opt;
}

TEST(TraceIntegration, TracingDoesNotPerturbTheRun)
{
    // The headline guarantee: a session only observes. Cycle counts
    // and every counter must be bit-identical with tracing on.
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    const core::RunOutcome plain = sim.run(cfg);

    trace::Session session(fullOptions());
    cfg.trace_session = &session;
    const core::RunOutcome traced = sim.run(cfg);

    EXPECT_EQ(plain.gpu.cycles, traced.gpu.cycles);
    EXPECT_EQ(plain.gpu.rt.node_fetches, traced.gpu.rt.node_fetches);
    EXPECT_EQ(plain.gpu.rt.steals, traced.gpu.rt.steals);
    EXPECT_EQ(plain.gpu.rt.retired_warps, traced.gpu.rt.retired_warps);
    EXPECT_EQ(plain.gpu.l2.accesses, traced.gpu.l2.accesses);
    EXPECT_EQ(plain.gpu.dram.requests, traced.gpu.dram.requests);
    EXPECT_DOUBLE_EQ(plain.gpu.avg_thread_utilization,
                     traced.gpu.avg_thread_utilization);
}

TEST(TraceIntegration, SummaryReportsCollection)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    trace::Session session(fullOptions());
    cfg.trace_session = &session;
    const core::RunOutcome out = sim.run(cfg);

    const trace::RunTraceSummary &ts = out.traceSummary();
    EXPECT_TRUE(ts.enabled);
    EXPECT_GT(ts.events_recorded, 0u);
    EXPECT_GT(ts.metric_samples, 0u);
    EXPECT_GT(ts.registered_metrics, 0u);
    // The report embeds the summary when a session was attached.
    const std::string j = core::toJson(out);
    EXPECT_TRUE(trace::JsonValue::parse(j).valid());
    EXPECT_NE(j.find("\"trace\":{"), std::string::npos);
    EXPECT_NE(j.find("\"events_recorded\":"), std::string::npos);
}

TEST(TraceIntegration, ChromeTraceExportIsValidAndPopulated)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    trace::Session session(fullOptions());
    cfg.trace_session = &session;
    sim.run(cfg);

    std::ostringstream ss;
    session.writeTrace(ss);
    const std::string json = ss.str();
    testutil::expectChromeTrace(testutil::parseJson(json));
    const trace::JsonValue no_ph = testutil::parseJson(
        testutil::corrupted(json, "\"ph\":\"X\"", "\"ph\":7"));
    EXPECT_NONFATAL_FAILURE(testutil::expectChromeTrace(no_ph),
                            "string ph");
    // Per-warp RT duration events and SM track metadata.
    EXPECT_NE(json.find("\"name\":\"trace_ray\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    // Counter track for the sampled utilization.
    EXPECT_NE(json.find("\"name\":\"thread_utilization\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceIntegration, MetricsCsvMatchesActivitySampler)
{
    // Acceptance criterion: the exported `rtunit.thread_utilization`
    // column reproduces the Fig. 2/10 series the simulator already
    // reports through stats::ActivitySampler.
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    trace::Session session(fullOptions());
    cfg.trace_session = &session;
    const core::RunOutcome out = sim.run(cfg);

    ASSERT_NE(session.metrics(), nullptr);
    const std::vector<double> csv_series =
        session.metrics()->seriesOf("rtunit.thread_utilization");
    const std::vector<double> &ref = out.gpu.utilization_series;
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(csv_series.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_DOUBLE_EQ(csv_series[i], ref[i]) << "sample " << i;
}

TEST(TraceIntegration, MetricsCsvIsWellFormed)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    trace::Session session(fullOptions());
    cfg.trace_session = &session;
    sim.run(cfg);

    std::ostringstream ss;
    session.writeMetricsCsv(ss);
    std::istringstream lines(ss.str());
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    // Schema v2 prepends the run-key stamp as a `#` comment line.
    EXPECT_EQ(header.rfind("# cooprt schema_version=", 0), 0u);
    EXPECT_NE(header.find("scene=wknd"), std::string::npos);
    EXPECT_NE(header.find("fingerprint=0x"), std::string::npos);
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header.rfind("cycle,", 0), 0u);
    EXPECT_NE(header.find("rtunit.thread_utilization"),
              std::string::npos);
    EXPECT_NE(header.find("mem.l2."), std::string::npos);
    const std::size_t cols =
        std::size_t(std::count(header.begin(), header.end(), ',')) + 1;
    std::string line;
    std::size_t rows = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(std::size_t(std::count(line.begin(), line.end(),
                                         ',')) + 1, cols);
        ++rows;
    }
    EXPECT_GT(rows, 0u);
}

TEST(TraceIntegration, MetricsCsvMatchesGolden)
{
    // Pins every column of the metrics CSV, byte for byte: the
    // run-key stamp, the name-ordered header (rtunit, mem, gpu and
    // the per-SM trace_latency columns) and each sampled row.
    // Regenerate with:
    //   simulate_cli --scene wknd --coop --resolution 32
    //     --metrics tests/trace/golden/wknd32_pt_coop.metrics.csv
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg;
    cfg.resolution = 32;
    cfg.gpu.trace.coop = true;
    trace::SessionOptions opt;
    opt.metrics = true;
    trace::Session session(opt);
    cfg.trace_session = &session;
    sim.run(cfg);

    std::ostringstream got;
    session.writeMetricsCsv(got);
    const std::string path = std::string(COOPRT_TRACE_GOLDEN_DIR) +
                             "/wknd32_pt_coop.metrics.csv";
    std::ifstream gf(path);
    ASSERT_TRUE(gf) << "missing golden file " << path;
    std::stringstream want;
    want << gf.rdbuf();
    EXPECT_EQ(got.str(), want.str());
}

TEST(TraceIntegration, FilterRestrictsExportedData)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    trace::SessionOptions opt = fullOptions();
    opt.filter = "rtunit.*";
    trace::Session session(opt);
    cfg.trace_session = &session;
    sim.run(cfg);

    std::ostringstream mf;
    session.writeMetricsCsv(mf);
    std::istringstream mlines(mf.str());
    std::string header;
    // Skip the schema/run-key `#` comment stamp (schema v2).
    while (std::getline(mlines, header) && !header.empty() &&
           header[0] == '#') {
    }
    EXPECT_NE(header.find("rtunit."), std::string::npos);
    EXPECT_EQ(header.find("mem."), std::string::npos);

    std::ostringstream tf;
    session.writeTrace(tf);
    const std::string json = tf.str();
    EXPECT_TRUE(trace::JsonValue::parse(json).valid());
    EXPECT_NE(json.find("\"cat\":\"rtunit\""), std::string::npos);
    EXPECT_EQ(json.find("\"cat\":\"sm\""), std::string::npos);
}

TEST(TraceIntegration, SessionIsReusableAcrossRuns)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    trace::Session session(fullOptions());
    cfg.trace_session = &session;
    const core::RunOutcome a = sim.run(cfg);
    const std::uint64_t first = a.traceSummary().metric_samples;
    std::ostringstream csv_a;
    session.writeMetricsCsv(csv_a);
    const core::RunOutcome b = sim.run(cfg);
    // Data restarts per run instead of accumulating: every metric
    // column, the trace_latency ones included, reads the same.
    EXPECT_EQ(b.traceSummary().metric_samples, first);
    EXPECT_EQ(a.gpu.cycles, b.gpu.cycles);
    std::ostringstream csv_b;
    session.writeMetricsCsv(csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str());
}

TEST(TraceIntegration, MetricsOnlySessionRecordsNoEvents)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg = smallCfg();
    trace::SessionOptions opt;
    opt.metrics = true;
    trace::Session session(opt);
    cfg.trace_session = &session;
    const core::RunOutcome out = sim.run(cfg);
    EXPECT_EQ(out.traceSummary().events_recorded, 0u);
    EXPECT_GT(out.traceSummary().metric_samples, 0u);
    EXPECT_EQ(session.tracer(), nullptr);
}

} // namespace
