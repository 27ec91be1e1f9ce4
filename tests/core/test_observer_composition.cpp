/**
 * @file
 * Observers compose: every RT-unit observer receives the same event
 * stream whether it runs alone or beside all the others, so its
 * sinks are byte-identical either way. Checked on wknd@32 path
 * tracing, baseline and CoopRT, for the prof folded + JSON output,
 * the memscope folded + JSON output and the raystats JSON; the
 * shared run also carries a tracing + metrics session, whose trace
 * holds the ray recorder's tracks, and telemetry. All of them are
 * built and written by one core::ObserverSet. The shared run's
 * stamped JSON sinks, telemetry sink, trace and memscope metrics
 * columns are also checked for shape, each check beside a seeded
 * corruption it must reject.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "../sink_checks.hpp"
#include "core/observers.hpp"

namespace {

using namespace cooprt;
using namespace cooprt::testutil;

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Memscope's columns in a metrics CSV with memscope attached:
 *  present in the header, and non-zero in some row. */
void
expectMemscopeColumns(const std::string &csv)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(csv);
    for (std::string line; std::getline(in, line);) {
        if (line.starts_with('#'))
            continue;
        std::istringstream cells(line);
        rows.emplace_back();
        for (std::string cell; std::getline(cells, cell, ',');)
            rows.back().push_back(cell);
    }
    if (rows.empty()) {
        ADD_FAILURE() << "no header row";
        return;
    }
    const std::vector<std::string> &header = rows.front();
    for (const char *column :
         {"memscope.gpu.node_accesses", "memscope.mem.line_l1"}) {
        const auto it = std::find(header.begin(), header.end(), column);
        if (it == header.end()) {
            ADD_FAILURE() << "no " << column << " column";
            continue;
        }
        const std::size_t i = std::size_t(it - header.begin());
        EXPECT_TRUE(std::any_of(rows.begin() + 1, rows.end(),
                                [i](const auto &row) {
                                    return i < row.size() &&
                                           row[i] != "0";
                                }))
            << column << " is zero in every row";
    }
}

class ObserverComposition : public ::testing::TestWithParam<bool>
{
  protected:
    void SetUp() override { std::filesystem::create_directories(dir_); }

    /** Run wknd@32 with the observers @p sinks imply and write them. */
    core::RunOutcome
    run(const core::SinkPaths &sinks) const
    {
        core::RunConfig cfg;
        cfg.resolution = 32;
        cfg.gpu.trace.coop = GetParam();
        core::ObserverRequest req;
        req.sinks = sinks;
        core::ObserverSet observers(std::move(req), cfg);
        const core::RunOutcome out = core::simulationFor("wknd").run(cfg);
        observers.writeSinks(out);
        return out;
    }

    std::string dir_ = ::testing::TempDir() + "observer_composition_" +
                       (GetParam() ? "coop/" : "base/");
};

TEST_P(ObserverComposition, SinksMatchAloneAndTogether)
{
    using Sink = std::pair<std::string core::SinkPaths::*, const char *>;
    // One alone run per observer, writing all of that observer's sinks.
    const std::vector<std::vector<Sink>> per_observer = {
        {{&core::SinkPaths::prof_folded, "prof.folded"},
         {&core::SinkPaths::prof_json, "prof.json"}},
        {{&core::SinkPaths::raystats, "raystats.json"}},
        {{&core::SinkPaths::memscope_json, "memscope.json"},
         {&core::SinkPaths::memscope_folded, "memscope.folded"}}};
    core::SinkPaths all;
    all.trace = dir_ + "all.trace.json";
    all.metrics = dir_ + "all.metrics.csv";
    all.telemetry = dir_ + "all.telemetry.json";
    for (const auto &sinks : per_observer) {
        core::SinkPaths alone;
        for (const auto &[field, name] : sinks) {
            alone.*field = dir_ + "alone." + name;
            all.*field = dir_ + "all." + name;
        }
        EXPECT_FALSE(run(alone).traceSummary().enabled);
    }
    // Every sink path attached an observer that saw the run.
    const core::RunOutcome out = run(all);
    EXPECT_GT(out.traceSummary().events_recorded, 0u);
    EXPECT_GT(out.traceSummary().metric_samples, 0u);
    EXPECT_TRUE(out.telemetry.enabled);
    EXPECT_GT(out.gpu.prof_summary.resident_cycles, 0u);
    EXPECT_GT(out.gpu.ray_summary.stats.rays_sampled, 0u);
    EXPECT_GT(out.gpu.memscope_summary.node_accesses, 0u);
    for (const auto &sinks : per_observer)
        for (const auto &[field, name] : sinks) {
            const std::string alone = slurp(dir_ + "alone." + name);
            EXPECT_FALSE(alone.empty()) << name;
            EXPECT_EQ(slurp(all.*field), alone) << name;
        }
    // The Gpu emits the ray recorder's tracks into the session's
    // trace: one named per sampled warp, one per sampled lane.
    std::istringstream trace(slurp(all.trace));
    int warp_tracks = 0, lane_tracks = 0;
    for (std::string line; std::getline(trace, line);) {
        if (line.find("\"thread_name\",\"args\":{\"name\":\"rays ") ==
            std::string::npos)
            continue;
        ++(line.find(" lane ") == std::string::npos ? warp_tracks
                                                    : lane_tracks);
    }
    EXPECT_GT(warp_tracks, 0);
    EXPECT_GE(lane_tracks, warp_tracks);
    // The report phase (the last one) times the other sinks, once.
    const std::string telemetry = slurp(all.telemetry);
    const auto report = telemetry.find("\"report\":{");
    ASSERT_NE(report, std::string::npos);
    EXPECT_NE(telemetry.find("\"count\":1}", report), std::string::npos);

    // The stamped sinks, the telemetry sink's host laws, the trace's
    // events and memscope's metrics columns; each check here rejects
    // a seeded corruption (the trace's in TraceIntegration).
    expectStamp(parseJson(slurp(all.memscope_json)));
    expectStamp(parseJson(slurp(all.raystats)));
    expectTelemetrySink(parseJson(telemetry));
    const JsonValue no_report = parseJson(
        corrupted(telemetry, "\"count\":1}}", "\"count\":0}}"));
    EXPECT_NONFATAL_FAILURE(expectTelemetrySink(no_report),
                            "report never ran");
    const JsonValue low_peak = parseJson(
        corrupted(telemetry, "\"rss_peak_kb\":", "\"rss_peak_kb\":-"));
    EXPECT_NONFATAL_FAILURE(expectTelemetrySink(low_peak),
                            "rss_current_kb above rss_peak_kb");
    const JsonValue v1 = parseJson(corrupted(
        telemetry, "\"schema_version\":2", "\"schema_version\":1"));
    EXPECT_NONFATAL_FAILURE(expectStamp(v1), "schema_version");
    expectChromeTrace(parseJson(slurp(all.trace)));
    const std::string metrics = slurp(all.metrics);
    expectMemscopeColumns(metrics);
    EXPECT_NONFATAL_FAILURE(
        expectMemscopeColumns(corrupted(metrics, "memscope.mem.line_l1",
                                        "memscope.mem.l1_lines")),
        "no memscope.mem.line_l1 column");
}

INSTANTIATE_TEST_SUITE_P(BaseAndCoop, ObserverComposition,
                         ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "coop" : "base";
                         });

} // namespace
