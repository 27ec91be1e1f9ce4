/**
 * @file
 * Unit tests for `cooprt::telemetry`: RSS parsing, phase spans,
 * the run's sealed totals, the per-run JSON sink's
 * deterministic/host split, the campaign event log, the heartbeat
 * thread, and the event log driven by a real `exec::Campaign` with a fake
 * runner (each line's shape for its event kind, and conservation
 * between job lines and campaign_end, retries included).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "../sink_checks.hpp"
#include "exec/exec.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;
using namespace cooprt::telemetry;
using namespace cooprt::testutil;

TEST(ParseProcStatus, ReadsRssAndPeak)
{
    std::istringstream in("Name:\tsim\n"
                          "VmPeak:\t  123456 kB\n"
                          "VmHWM:\t    4096 kB\n"
                          "VmRSS:\t    2048 kB\n");
    const Rss rss = parseProcStatus(in);
    EXPECT_EQ(rss.current_kb, 2048u);
    EXPECT_EQ(rss.peak_kb, 4096u);
}

TEST(ParseProcStatus, MissingFieldsStayZero)
{
    std::istringstream in("Name:\tsim\nThreads:\t4\n");
    const Rss rss = parseProcStatus(in);
    EXPECT_EQ(rss.current_kb, 0u);
    EXPECT_EQ(rss.peak_kb, 0u);
}

TEST(PhaseNames, StableSnakeCase)
{
    EXPECT_STREQ(phaseName(Phase::SceneLoad), "scene_load");
    EXPECT_STREQ(phaseName(Phase::BvhBuild), "bvh_build");
    EXPECT_STREQ(phaseName(Phase::Warmup), "warmup");
    EXPECT_STREQ(phaseName(Phase::SimLoop), "sim_loop");
    EXPECT_STREQ(phaseName(Phase::Report), "report");
}

TEST(Recorder, PhaseSpansAccumulate)
{
    Recorder rec;
    rec.reset();
    rec.recordPhase(Phase::SimLoop, 0.5);
    rec.recordPhase(Phase::SimLoop, 0.25);
    rec.recordPhase(Phase::Warmup, 0.125);
    const Summary &s = rec.summary();
    EXPECT_DOUBLE_EQ(s.phase(Phase::SimLoop).seconds, 0.75);
    EXPECT_EQ(s.phase(Phase::SimLoop).count, 2u);
    EXPECT_EQ(s.phase(Phase::Warmup).count, 1u);
    EXPECT_EQ(s.phase(Phase::Report).count, 0u);
}

TEST(Recorder, ScopedPhaseTimesItsScope)
{
    Recorder rec;
    rec.reset();
    {
        const auto span = Recorder::span(&rec, Phase::Warmup);
        (void)span;
    }
    EXPECT_EQ(rec.summary().phase(Phase::Warmup).count, 1u);
    EXPECT_GE(rec.summary().phase(Phase::Warmup).seconds, 0.0);
    // Null-recorder tolerance: no crash, nothing recorded.
    {
        const auto span = Recorder::span(nullptr, Phase::Warmup);
        (void)span;
    }
}

TEST(Recorder, FinishRunSealsCyclesRaysAndSimSeconds)
{
    // finishRun seals the run's cycles and retired rays, and
    // sim_seconds is the sim_loop span, exactly.
    Recorder rec;
    rec.reset();
    rec.recordPhase(Phase::SimLoop, 2.0);
    rec.finishRun(10000, 500);
    const Summary &s = rec.summary();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.cycles, 10000u);
    EXPECT_EQ(s.rays_retired, 500u);
    EXPECT_DOUBLE_EQ(s.sim_seconds, 2.0);
}

TEST(Recorder, ResetClearsEverything)
{
    Recorder rec;
    rec.reset();
    rec.recordPhase(Phase::SimLoop, 1.0);
    rec.publishProgress(42, 7);
    rec.finishRun(100, 10);
    rec.reset();
    EXPECT_FALSE(rec.summary().enabled);
    EXPECT_EQ(rec.summary().cycles, 0u);
    EXPECT_EQ(rec.summary().phase(Phase::SimLoop).count, 0u);
    EXPECT_EQ(rec.liveCycle(), 0u);
    EXPECT_EQ(rec.liveRays(), 0u);
}

TEST(Recorder, WriteJsonSplitsDeterministicFromHost)
{
    Recorder rec;
    rec.reset();
    rec.recordPhase(Phase::SimLoop, 1.0);
    rec.finishRun(12345, 67);
    std::ostringstream os;
    rec.writeJson(os, "wknd");
    const std::string json = os.str();
    EXPECT_NE(json.find("\"scene\":\"wknd\""), std::string::npos);
    EXPECT_NE(json.find("\"telemetry_version\":1"),
              std::string::npos);
    EXPECT_NE(json.find("\"cycles\":12345"), std::string::npos);
    EXPECT_NE(json.find("\"rays_retired\":67"), std::string::npos);
    // Every nondeterministic field sits inside the "host" object:
    // the deterministic prefix before it must not mention seconds
    // or RSS. No derived per-second gauge is written anywhere.
    const auto host = json.find("\"host\"");
    ASSERT_NE(host, std::string::npos);
    const std::string prefix = json.substr(0, host);
    EXPECT_EQ(prefix.find("seconds"), std::string::npos);
    EXPECT_EQ(prefix.find("rss"), std::string::npos);
    EXPECT_EQ(json.find("per_sec"), std::string::npos);
    // The build stamp is part of the deterministic prefix.
    EXPECT_NE(prefix.find("\"build\""), std::string::npos);
    EXPECT_NE(prefix.find("\"revision\""), std::string::npos);
    // The host object lists the five phases in lifecycle order.
    std::size_t at = host;
    for (const Phase p : {Phase::SceneLoad, Phase::BvhBuild,
                          Phase::Warmup, Phase::SimLoop, Phase::Report}) {
        const std::size_t next =
            json.find('"' + std::string(phaseName(p)) + "\":{", at);
        ASSERT_NE(next, std::string::npos) << phaseName(p);
        at = next;
    }
}

TEST(BuildInfo, CompactJsonObject)
{
    const std::string info = buildInfoJson();
    EXPECT_EQ(info.front(), '{');
    EXPECT_EQ(info.back(), '}');
    EXPECT_NE(info.find("\"revision\":"), std::string::npos);
    EXPECT_EQ(info.find("\"revision\":\"\""), std::string::npos)
        << "empty revision";
    EXPECT_NE(info.find("\"dirty\":"), std::string::npos);
    EXPECT_NE(info.find("\"compiler\":"), std::string::npos);
    EXPECT_NE(info.find("\"build_type\":"), std::string::npos);
    EXPECT_NE(info.find("\"check\":"), std::string::npos);
}

TEST(EventLog, LinesAreDeterministicFirstHostLast)
{
    std::ostringstream os;
    EventLog log(&os);
    ASSERT_TRUE(log.enabled());
    log.campaignBegin(2, 4);
    log.jobStart(0, "a/base", 1);
    log.jobFinish(0, "a/base", true, 1, 1000, 0.5);
    log.jobRetry(1, "b/coop", 2);
    log.jobTimeout(1, "b/coop", 9.0);
    log.jobFinish(1, "b/coop", false, 2, 0, 9.1);
    CampaignCounters c;
    c.done = 1;
    c.failed = 1;
    c.retried = 1;
    c.timed_out = 1;
    log.campaignEnd(c, 9.6);

    std::istringstream in(os.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        expectEventLine(parseJson(line));
        EXPECT_EQ(line.rfind("{\"ev\":\"", 0), 0u) << line;
        // One trailing host object per line.
        const auto host = line.find("\"host\":{");
        ASSERT_NE(host, std::string::npos) << line;
        EXPECT_EQ(line.find("\"t_s\":", host), host + 8) << line;
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, 7);
    const std::string all = os.str();
    EXPECT_NE(all.find("{\"ev\":\"campaign_begin\",\"jobs\":2,"),
              std::string::npos);
    EXPECT_NE(all.find("{\"ev\":\"job_finish\",\"index\":0,"
                       "\"tag\":\"a/base\",\"ok\":true,"
                       "\"attempts\":1,\"cycles\":1000,"),
              std::string::npos);
    EXPECT_NE(all.find("{\"ev\":\"campaign_end\",\"done\":1,"
                       "\"failed\":1,\"retried\":1,"
                       "\"timed_out\":1,"),
              std::string::npos);
}

TEST(EventLog, NullStreamDisablesEverything)
{
    EventLog log(nullptr);
    EXPECT_FALSE(log.enabled());
    log.campaignBegin(1, 1); // must not crash
    log.jobStart(0, "x", 1);
    log.campaignEnd({}, 0.0);
}

TEST(HeartbeatTest, BeatsAndStopsPromptly)
{
    std::ostringstream os;
    std::atomic<int> calls{0};
    {
        Heartbeat hb(
            0.01, [&] { ++calls; return std::string("status"); }, os);
        for (int i = 0; i < 200 && hb.beats() == 0; ++i)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        EXPECT_GE(hb.beats(), 1u);
    } // destructor must join without waiting a full interval
    EXPECT_GE(calls.load(), 1);
    EXPECT_NE(os.str().find("[telemetry] status\n"),
              std::string::npos);
}

// Event-log conservation over a real campaign (fake runner, so no
// scenes are built; one job passes on its retry, one fails both
// attempts): the log opens with campaign_begin and closes with
// campaign_end, every job starts and finishes exactly once per
// attempt, and campaign_end's done, failed and retried agree with
// the job lines, for both 1 and 4 workers.
TEST(CampaignIntegration, EventLogConservation)
{
    constexpr int kJobs = 6;
    for (int workers : {1, 4}) {
        std::ostringstream os;
        EventLog log(&os);
        exec::CampaignOptions opt;
        opt.jobs = workers;
        opt.retries = 1;
        opt.event_log = &log;
        exec::Campaign campaign(opt);
        for (int i = 0; i < kJobs; ++i)
            campaign.add(exec::Job{"fake", {},
                                   "job" + std::to_string(i)});
        std::atomic<bool> job3_failed{false};
        campaign.setRunner([&](const exec::Job &job) {
            if (job.tag == "job5" ||
                (job.tag == "job3" && !job3_failed.exchange(true)))
                throw std::runtime_error("injected failure");
            core::RunOutcome out;
            out.gpu.cycles = 77;
            return out;
        });
        const auto results = campaign.run();
        ASSERT_EQ(results.size(), std::size_t(kJobs));
        EXPECT_EQ(campaign.stats().running.load(), 0u);

        std::vector<std::string> text;
        std::vector<JsonValue> lines;
        std::istringstream in(os.str());
        for (std::string line; std::getline(in, line);) {
            text.push_back(line);
            lines.push_back(parseJson(line));
            expectEventLine(lines.back());
        }
        ASSERT_GE(lines.size(), 2u) << "workers=" << workers;
        const JsonValue &begin = lines.front(), &end = lines.back();
        EXPECT_EQ(at(begin, "ev").stringValue(), "campaign_begin");
        EXPECT_EQ(at(begin, "jobs").intValue(), kJobs);
        EXPECT_EQ(at(end, "ev").stringValue(), "campaign_end");

        std::vector<int> starts(kJobs), finishes(kJobs);
        long long ok = 0, retries = 0;
        for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
            const std::string ev = at(lines[i], "ev").stringValue();
            const long long idx = at(lines[i], "index").intValue();
            ASSERT_TRUE(idx >= 0 && idx < kJobs) << text[i];
            if (ev == "job_start")
                starts[std::size_t(idx)]++;
            else if (ev == "job_retry")
                retries++;
            else if (ev == "job_finish") {
                finishes[std::size_t(idx)]++;
                ok += at(lines[i], "ok").boolValue();
                if (idx != 5) {
                    EXPECT_EQ(at(lines[i], "cycles").intValue(), 77);
                }
            } else
                ADD_FAILURE() << "unexpected line " << text[i];
        }
        for (int j = 0; j < kJobs; ++j) {
            EXPECT_EQ(finishes[std::size_t(j)], 1) << "job " << j;
            EXPECT_EQ(starts[std::size_t(j)], j == 3 || j == 5 ? 2 : 1)
                << "job " << j;
        }
        EXPECT_EQ(at(end, "done").intValue(), ok);
        EXPECT_EQ(at(end, "done").intValue() + at(end, "failed").intValue(),
                  kJobs);
        EXPECT_EQ(at(end, "retried").intValue(), retries);
        EXPECT_EQ(retries, 2);

        // The line-shape check rejects seeded corruptions.
        const std::string &finish =
            *std::find_if(text.begin(), text.end(), [](const auto &l) {
                return l.starts_with("{\"ev\":\"job_finish\"");
            });
        const JsonValue int_ok =
            parseJson(corrupted(finish, "\"ok\":", "\"ok\":0,\"was\":"));
        EXPECT_NONFATAL_FAILURE(expectEventLine(int_ok), "job_finish.ok");
        const JsonValue bogus =
            parseJson(corrupted(finish, "job_finish", "job_bogus"));
        EXPECT_NONFATAL_FAILURE(expectEventLine(bogus),
                                "unknown event 'job_bogus'");
        const JsonValue no_host =
            parseJson(corrupted(finish, ",\"host\":", ",\"hist\":"));
        EXPECT_NONFATAL_FAILURE(expectEventLine(no_host),
                                "no trailing host object");
    }
}

} // namespace
