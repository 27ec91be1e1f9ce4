/**
 * @file
 * The pool half of `cooprt::exec`: load balancing under skewed job
 * sizes, per-job fault isolation (exception capture, retry budget)
 * and post-hoc wall-clock timeouts. These tests inject a stub runner and
 * never touch the simulator, so they are fast and run unchanged
 * under TSan (the CI `tsan` job exercises them).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "exec/exec.hpp"

namespace {

using namespace cooprt;
using namespace std::chrono_literals;

core::RunOutcome
outcomeWithCycles(std::uint64_t cycles)
{
    core::RunOutcome out;
    out.gpu.cycles = cycles;
    return out;
}

TEST(ExecPool, StealsAcrossWorkersUnderSkew)
{
    // Job 0 pins one worker for ~150 ms while the other drains the
    // short jobs from the shared cursor; every job must still
    // complete exactly once, in its submission slot.
    exec::CampaignOptions opt;
    opt.jobs = 2;
    exec::Campaign campaign(opt);
    campaign.setRunner([](const exec::Job &job) {
        std::this_thread::sleep_for(job.tag == "0" ? 150ms : 2ms);
        return outcomeWithCycles(std::stoull(job.tag));
    });
    for (int i = 0; i < 12; ++i)
        campaign.add(
            exec::Job{"wknd", core::RunConfig{}, std::to_string(i)});
    const auto results = campaign.run();
    ASSERT_EQ(results.size(), 12u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].ok) << results[i].tag;
        EXPECT_EQ(results[i].attempts, 1) << results[i].tag;
        EXPECT_EQ(results[i].outcome.gpu.cycles, i);
    }
    EXPECT_EQ(campaign.stats().done.load(), 12u);
    EXPECT_EQ(campaign.stats().failed.load(), 0u);
    EXPECT_EQ(campaign.stats().running.load(), 0u);
}

TEST(ExecPool, ThrowingJobIsIsolated)
{
    exec::CampaignOptions opt;
    opt.jobs = 3;
    exec::Campaign campaign(opt);
    campaign.setRunner([](const exec::Job &job) {
        if (job.tag == "boom")
            throw std::runtime_error("injected fault");
        return outcomeWithCycles(7);
    });
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "a"});
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "boom"});
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "b"});
    const auto results = campaign.run();

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[2].ok);
    EXPECT_FALSE(results[1].ok);
    ASSERT_TRUE(results[1].failure.has_value());
    EXPECT_EQ(results[1].failure->kind, exec::FailureKind::Exception);
    EXPECT_EQ(results[1].failure->message, "injected fault");
    EXPECT_EQ(campaign.stats().done.load(), 2u);
    EXPECT_EQ(campaign.stats().failed.load(), 1u);
    EXPECT_EQ(campaign.stats().timed_out.load(), 0u);
}

TEST(ExecPool, RetryBudgetRecoversTransientFailures)
{
    exec::CampaignOptions opt;
    opt.jobs = 2;
    opt.retries = 2;
    exec::Campaign campaign(opt);
    std::atomic<int> flaky_attempts{0};
    campaign.setRunner(
        [&flaky_attempts](const exec::Job &job) {
            if (job.tag == "flaky" && ++flaky_attempts <= 2)
                throw std::runtime_error("transient");
            return outcomeWithCycles(11);
        });
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "flaky"});
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "steady"});
    const auto results = campaign.run();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 3);
    EXPECT_TRUE(results[1].ok);
    EXPECT_EQ(results[1].attempts, 1);
    EXPECT_EQ(campaign.stats().retried.load(), 2u);
    EXPECT_EQ(campaign.stats().failed.load(), 0u);
}

TEST(ExecPool, RetriesExhaustedReportsLastError)
{
    exec::CampaignOptions opt;
    opt.jobs = 1;
    opt.retries = 2;
    exec::Campaign campaign(opt);
    campaign.setRunner(
        [](const exec::Job &) -> core::RunOutcome {
            throw std::runtime_error("always broken");
        });
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "doomed"});
    const auto results = campaign.run();

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 3); // 1 + 2 retries
    ASSERT_TRUE(results[0].failure.has_value());
    EXPECT_EQ(results[0].failure->message, "always broken");
    EXPECT_EQ(campaign.stats().retried.load(), 2u);
    EXPECT_EQ(campaign.stats().failed.load(), 1u);
}

TEST(ExecPool, TimeoutFailsJobAndCampaignCompletes)
{
    // An attempt that overran its budget is a timeout however it
    // ended: here the slow job throws once it is late, and still
    // reports as Timeout (not Exception) without using its retries.
    exec::CampaignOptions opt;
    opt.jobs = 2;
    opt.retries = 3; // must NOT apply to timeouts
    opt.timeout_s = 0.1;
    exec::Campaign campaign(opt);
    campaign.setRunner([](const exec::Job &job) {
        if (job.tag == "slow") {
            std::this_thread::sleep_for(250ms);
            throw std::runtime_error("gave up late");
        }
        return outcomeWithCycles(3);
    });
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "slow"});
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "quick"});
    const auto results = campaign.run();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    ASSERT_TRUE(results[0].failure.has_value());
    EXPECT_EQ(results[0].failure->kind, exec::FailureKind::Timeout);
    EXPECT_EQ(results[0].attempts, 1); // timeouts are never retried
    EXPECT_TRUE(results[1].ok);
    EXPECT_EQ(campaign.stats().timed_out.load(), 1u);
    EXPECT_EQ(campaign.stats().failed.load(), 1u);
    EXPECT_EQ(campaign.stats().retried.load(), 0u);
    EXPECT_EQ(campaign.stats().running.load(), 0u);
}

TEST(ExecPool, OverrunningRunnerIsFailedAsTimeoutWhenItReturns)
{
    // The production path: the simulator never checks its budget, so
    // a slow job runs to completion and is failed once it returns.
    // Its outcome is discarded, it is not retried, and the jobs
    // behind it on the same (only) worker still run.
    exec::CampaignOptions opt;
    opt.jobs = 1;
    opt.retries = 2;
    opt.timeout_s = 0.1;
    exec::Campaign campaign(opt);
    std::atomic<int> slow_calls{0};
    campaign.setRunner([&slow_calls](const exec::Job &job) {
        if (job.tag == "slow") {
            ++slow_calls;
            std::this_thread::sleep_for(250ms);
        }
        return outcomeWithCycles(5);
    });
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "a"});
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "slow"});
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "b"});
    campaign.add(exec::Job{"wknd", core::RunConfig{}, "c"});
    const auto results = campaign.run();

    ASSERT_EQ(results.size(), 4u);
    const exec::JobResult &slow = results[1];
    EXPECT_FALSE(slow.ok);
    ASSERT_TRUE(slow.failure.has_value());
    EXPECT_EQ(slow.failure->kind, exec::FailureKind::Timeout);
    EXPECT_EQ(slow.attempts, 1);
    EXPECT_EQ(slow_calls.load(), 1);
    EXPECT_GT(slow.wall_seconds, opt.timeout_s);
    for (std::size_t i : {0u, 2u, 3u}) {
        EXPECT_TRUE(results[i].ok) << results[i].tag;
        EXPECT_EQ(results[i].outcome.gpu.cycles, 5u);
    }
    EXPECT_EQ(campaign.stats().done.load(), 3u);
    EXPECT_EQ(campaign.stats().timed_out.load(), 1u);
    EXPECT_EQ(campaign.stats().retried.load(), 0u);
}

TEST(ExecPool, CompletionHookSeesEveryFinalResult)
{
    std::atomic<int> calls{0};
    std::atomic<int> failures{0};
    exec::CampaignOptions opt;
    opt.jobs = 3;
    opt.on_job_done = [&](const exec::JobResult &r) {
        ++calls;
        if (!r.ok)
            ++failures;
    };
    exec::Campaign campaign(opt);
    campaign.setRunner([](const exec::Job &job) {
        if (job.tag == "4")
            throw std::runtime_error("x");
        return core::RunOutcome{};
    });
    for (int i = 0; i < 9; ++i)
        campaign.add(
            exec::Job{"wknd", core::RunConfig{}, std::to_string(i)});
    campaign.run();
    EXPECT_EQ(calls.load(), 9);
    EXPECT_EQ(failures.load(), 1);
}

TEST(ExecPool, ZeroJobsRunsEmptyCampaign)
{
    exec::CampaignOptions opt;
    opt.jobs = 4;
    exec::Campaign campaign(opt);
    const auto results = campaign.run();
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(campaign.stats().done.load(), 0u);
}

} // namespace
