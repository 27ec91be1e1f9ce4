/**
 * @file
 * Campaign-engine determinism: a parallel run must be bit-identical
 * to a serial run of the same jobs, on real simulations, and its
 * telemetry sinks and event log identical outside their host
 * objects. The four pinned seed baselines
 * (tests/core/test_pinned_cycles.cpp) anchor the comparison to
 * absolute values, not just serial == parallel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "../sink_checks.hpp"
#include "core/report.hpp"
#include "exec/exec.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;

exec::Job
pinnedJob(const std::string &scene, int resolution,
          core::ShaderKind shader, bool coop, const std::string &tag)
{
    core::RunConfig cfg;
    cfg.resolution = resolution;
    cfg.shader = shader;
    cfg.gpu.trace.coop = coop;
    return exec::Job{scene, cfg, tag};
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream is(p, std::ios::binary);
    EXPECT_TRUE(is.good()) << p;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * The lines of a telemetry sink or event log that must not depend on
 * the worker count: each line cut at its trailing "host" object
 * (the writer puts it last), the lines between the first and the
 * last (an event log's job lines, which workers finish in any order)
 * sorted.
 */
std::vector<std::string>
hostStripped(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line.substr(0, line.rfind(",\"host\":")));
    if (lines.size() > 2)
        std::sort(lines.begin() + 1, lines.end() - 1);
    return lines;
}

std::vector<exec::Job>
pinnedJobs()
{
    std::vector<exec::Job> jobs;
    jobs.push_back(pinnedJob("wknd", 32, core::ShaderKind::PathTracing,
                             false, "wknd/pt/base"));
    jobs.push_back(pinnedJob("wknd", 32, core::ShaderKind::PathTracing,
                             true, "wknd/pt/coop"));
    jobs.push_back(pinnedJob("bunny", 24,
                             core::ShaderKind::AmbientOcclusion, true,
                             "bunny/ao/coop"));
    jobs.push_back(pinnedJob("ship", 24, core::ShaderKind::Shadow,
                             false, "ship/sh/base"));
    return jobs;
}

TEST(ExecCampaign, ParallelMatchesSerialBitIdentical)
{
    exec::CampaignOptions serial;
    serial.jobs = 1;
    const auto s = exec::runCampaign(pinnedJobs(), serial);

    exec::CampaignOptions parallel;
    parallel.jobs = 4;
    const auto p = exec::runCampaign(pinnedJobs(), parallel);

    ASSERT_EQ(s.size(), 4u);
    ASSERT_EQ(p.size(), 4u);
    for (std::size_t i = 0; i < s.size(); ++i) {
        ASSERT_TRUE(s[i].ok) << s[i].tag;
        ASSERT_TRUE(p[i].ok) << p[i].tag;
        EXPECT_EQ(s[i].index, i);
        EXPECT_EQ(p[i].index, i);
        EXPECT_EQ(s[i].tag, p[i].tag);
        // The full outcome, not just cycles: every counter, series
        // and report field must match bit-for-bit.
        EXPECT_EQ(core::toJson(s[i].outcome), core::toJson(p[i].outcome))
            << s[i].tag;
    }

    // Anchored to the seed baselines, so serial == parallel cannot
    // pass by both being wrong the same way.
    EXPECT_EQ(p[0].outcome.gpu.cycles, 34868u);
    EXPECT_EQ(p[1].outcome.gpu.cycles, 18756u);
    EXPECT_EQ(p[2].outcome.gpu.cycles, 17550u);
    EXPECT_EQ(p[3].outcome.gpu.cycles, 36233u);
}

TEST(ExecCampaign, JsonLinesByteIdenticalAcrossWorkerCounts)
{
    auto render = [](const std::vector<exec::JobResult> &results) {
        std::ostringstream os;
        for (const auto &r : results)
            exec::writeJsonLine(os, r);
        return os.str();
    };

    exec::CampaignOptions serial;
    serial.jobs = 1;
    exec::CampaignOptions parallel;
    parallel.jobs = 3;
    const std::string a = render(exec::runCampaign(pinnedJobs(), serial));
    const std::string b =
        render(exec::runCampaign(pinnedJobs(), parallel));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"tag\":\"wknd/pt/base\""), std::string::npos);
    EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
    // One line per job, each a complete JSON object.
    EXPECT_EQ(std::count(a.begin(), a.end(), '\n'), 4);
}

TEST(ExecCampaign, ResultsKeepSubmissionOrder)
{
    exec::CampaignOptions opt;
    opt.jobs = 4;
    exec::Campaign campaign(opt);
    // Later submissions finish first; the result vector must not.
    campaign.setRunner([](const exec::Job &job) {
        const int idx = std::stoi(job.tag);
        std::this_thread::sleep_for(
            std::chrono::milliseconds((16 - idx) * 2));
        core::RunOutcome out;
        out.gpu.cycles = std::uint64_t(idx);
        return out;
    });
    for (int i = 0; i < 16; ++i)
        campaign.add(
            exec::Job{"wknd", core::RunConfig{}, std::to_string(i)});
    const auto results = campaign.run();
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].tag, std::to_string(i));
        ASSERT_TRUE(results[i].ok);
        EXPECT_EQ(results[i].outcome.gpu.cycles, i);
    }
}

TEST(ExecCampaign, UnopenableSinkFailsTheJobNamingThePath)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cooprt_unopenable_sink_test";
    fs::remove_all(dir);
    // A directory where the job's report file should go.
    fs::create_directories(dir / "wknd.report.json");
    exec::CampaignOptions opt;
    opt.jobs = 1;
    opt.report_dir = dir.string();
    const auto results = exec::runCampaign(
        {pinnedJob("wknd", 32, core::ShaderKind::PathTracing, false,
                   "wknd")},
        opt);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    ASSERT_TRUE(results[0].failure.has_value());
    EXPECT_NE(results[0].failure->message.find(
                  (dir / "wknd.report.json").string()),
              std::string::npos)
        << results[0].failure->message;
    fs::remove_all(dir);
}

TEST(ExecCampaign, RayStatsSinksByteIdenticalAcrossWorkerCounts)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "cooprt_raystats_test";
    fs::remove_all(root);

    auto runWithJobs = [&](int jobs) {
        const fs::path dir = root / ("jobs" + std::to_string(jobs));
        fs::create_directories(dir);
        exec::CampaignOptions opt;
        opt.jobs = jobs;
        opt.raytrace_dir = dir.string();
        opt.ray_config.sample_k = 2;
        const auto results = exec::runCampaign(pinnedJobs(), opt);
        for (const auto &r : results)
            EXPECT_TRUE(r.ok) << r.tag;
        return dir;
    };
    const fs::path serial = runWithJobs(1);
    const fs::path parallel = runWithJobs(4);

    // Per-ray sampling is seed-derived, never scheduler-derived, so
    // every per-job raystats file must be byte-identical regardless
    // of how many workers ran the campaign.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(serial)) {
        const std::string name = entry.path().filename().string();
        const std::string a = slurp(entry.path());
        const std::string b = slurp(parallel / name);
        EXPECT_EQ(a, b) << name;
        EXPECT_NE(a.find("\"rays_sampled\""), std::string::npos);
        files++;
    }
    EXPECT_EQ(files, 4u) << "one raystats file per job";
    fs::remove_all(root);
}

TEST(ExecCampaign, MemscopeSinksByteIdenticalAcrossWorkerCounts)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "cooprt_memscope_test";
    fs::remove_all(root);

    auto runWithJobs = [&](int jobs) {
        const fs::path dir = root / ("jobs" + std::to_string(jobs));
        fs::create_directories(dir);
        exec::CampaignOptions opt;
        opt.jobs = jobs;
        opt.memscope_dir = dir.string();
        const auto results = exec::runCampaign(pinnedJobs(), opt);
        for (const auto &r : results) {
            EXPECT_TRUE(r.ok) << r.tag;
            EXPECT_TRUE(r.outcome.gpu.memscope_summary.enabled)
                << r.tag;
        }
        return dir;
    };
    const fs::path serial = runWithJobs(1);
    const fs::path parallel = runWithJobs(4);

    // Memscope counters depend only on the simulated run, never on
    // host scheduling, so both the JSON profile and the folded node
    // heatmap must be byte-identical regardless of worker count.
    std::size_t json_files = 0, folded_files = 0;
    for (const auto &entry : fs::directory_iterator(serial)) {
        const std::string name = entry.path().filename().string();
        const std::string a = slurp(entry.path());
        const std::string b = slurp(parallel / name);
        EXPECT_EQ(a, b) << name;
        if (name.ends_with(".memscope.json")) {
            EXPECT_NE(a.find("\"reuse\""), std::string::npos) << name;
            json_files++;
        } else if (name.ends_with(".memscope.folded")) {
            EXPECT_NE(a.find(";depth1;node0 "), std::string::npos)
                << name;
            folded_files++;
        }
    }
    EXPECT_EQ(json_files, 4u) << "one memscope JSON per job";
    EXPECT_EQ(folded_files, 4u) << "one folded heatmap per job";
    fs::remove_all(root);
}

TEST(ExecCampaign, TelemetrySinksMatchAcrossWorkerCountsBesideHost)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "cooprt_telemetry_test";
    fs::remove_all(root);

    // Each per-job telemetry sink by file name, plus the event log.
    auto runWithJobs = [&](int jobs) {
        const fs::path dir = root / ("jobs" + std::to_string(jobs));
        fs::create_directories(dir);
        std::ostringstream events;
        telemetry::EventLog log(&events);
        exec::CampaignOptions opt;
        opt.jobs = jobs;
        opt.telemetry_dir = dir.string();
        opt.event_log = &log;
        for (const auto &r : exec::runCampaign(pinnedJobs(), opt))
            EXPECT_TRUE(r.ok) << r.tag;
        std::map<std::string, std::string> sinks{{"events", events.str()}};
        for (const auto &entry : fs::directory_iterator(dir))
            sinks[entry.path().filename().string()] = slurp(entry.path());
        return sinks;
    };
    const auto serial = runWithJobs(1);
    auto parallel = runWithJobs(4);
    EXPECT_EQ(serial.size(), 5u) << "one telemetry sink per job";
    // Host seconds, RSS and the worker count differ between the two
    // campaigns; everything before each line's host object does not.
    for (const auto &[name, text] : serial) {
        SCOPED_TRACE(name);
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);) {
            if (name == "events")
                testutil::expectEventLine(testutil::parseJson(line));
            else
                testutil::expectTelemetrySink(testutil::parseJson(line));
        }
        EXPECT_EQ(hostStripped(text), hostStripped(parallel[name]));
    }
    // The projection ignores a host-only change and keeps a
    // deterministic one.
    const std::string &events = serial.at("events");
    EXPECT_EQ(hostStripped(testutil::corrupted(events, "\"t_s\":",
                                               "\"t_s\":9")),
              hostStripped(events));
    EXPECT_NE(hostStripped(testutil::corrupted(events, "\"cycles\":",
                                               "\"cycles\":1")),
              hostStripped(events));
    fs::remove_all(root);
}

TEST(ExecCampaign, UnknownSceneIsAStructuredFailure)
{
    exec::CampaignOptions opt;
    opt.jobs = 2;
    std::vector<exec::Job> jobs;
    jobs.push_back(exec::Job{"no-such-scene", core::RunConfig{}, "bad"});
    jobs.push_back(pinnedJob("wknd", 32, core::ShaderKind::PathTracing,
                             false, "good"));
    const auto results = exec::runCampaign(std::move(jobs), opt);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    ASSERT_TRUE(results[0].failure.has_value());
    EXPECT_EQ(results[0].failure->kind, exec::FailureKind::Exception);
    EXPECT_NE(results[0].failure->message.find("no-such-scene"),
              std::string::npos);
    // The bad job must not take the campaign down with it.
    ASSERT_TRUE(results[1].ok);
    EXPECT_EQ(results[1].outcome.gpu.cycles, 34868u);
}

TEST(ExecCampaign, SanitizeTagMakesFileNames)
{
    EXPECT_EQ(exec::sanitizeTag("fig09/crnvl coop#3"),
              "fig09_crnvl_coop_3");
    EXPECT_EQ(exec::sanitizeTag("a.b-c_9"), "a.b-c_9");
}

TEST(ExecCampaign, FailureKindNames)
{
    EXPECT_STREQ(exec::failureKindName(exec::FailureKind::Exception),
                 "exception");
    EXPECT_STREQ(exec::failureKindName(exec::FailureKind::Timeout),
                 "timeout");
}

} // namespace
