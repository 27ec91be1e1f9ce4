/**
 * @file
 * Unit tests for `cooprt::telemetry`: RSS parsing, phase spans,
 * the run's sealed totals, the per-run JSON sink's
 * deterministic/host split, the campaign event log, the heartbeat
 * thread, and the event log driven by a real `exec::Campaign` with a fake
 * runner (conservation between job lines and campaign_end).
 */

#include <chrono>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "exec/exec.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;
using namespace cooprt::telemetry;

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

TEST(Recorder, FinishRunDerivesThroughput)
{
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
}

TEST(BuildInfo, CompactJsonObject)
{
    const std::string info = buildInfoJson();
    EXPECT_EQ(info.front(), '{');
    EXPECT_EQ(info.back(), '}');
    EXPECT_NE(info.find("\"revision\":"), std::string::npos);
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
// scenes are built): every job starts and finishes exactly once and
// campaign_end agrees, for both 1 and 4 workers.
TEST(CampaignIntegration, EventLogConservation)
{
    for (int workers : {1, 4}) {
        std::ostringstream os;
        EventLog log(&os);
        exec::CampaignOptions opt;
        opt.jobs = workers;
        opt.event_log = &log;
        exec::Campaign campaign(opt);
        for (int i = 0; i < 6; ++i)
            campaign.add(exec::Job{"fake", {},
                                   "job" + std::to_string(i)});
        campaign.setRunner([](const exec::Job &) {
            core::RunOutcome out;
            out.gpu.cycles = 77;
            return out;
        });
        const auto results = campaign.run();
        ASSERT_EQ(results.size(), 6u);

        const std::string all = os.str();
        std::size_t starts = 0, finishes = 0, pos = 0;
        while ((pos = all.find("\"ev\":\"job_start\"", pos)) !=
               std::string::npos)
            ++starts, ++pos;
        pos = 0;
        while ((pos = all.find("\"ev\":\"job_finish\"", pos)) !=
               std::string::npos)
            ++finishes, ++pos;
        EXPECT_EQ(starts, 6u) << "workers=" << workers;
        EXPECT_EQ(finishes, 6u) << "workers=" << workers;
        EXPECT_NE(all.find("{\"ev\":\"campaign_begin\",\"jobs\":6,"),
                  std::string::npos);
        EXPECT_NE(all.find("{\"ev\":\"campaign_end\",\"done\":6,"
                           "\"failed\":0,"),
                  std::string::npos);
        EXPECT_NE(all.find("\"cycles\":77,"), std::string::npos);
        EXPECT_EQ(campaign.stats().running.load(), 0u);
    }
}

} // namespace
