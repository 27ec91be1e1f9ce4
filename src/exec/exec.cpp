#include "exec/exec.hpp"

#include <chrono>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "check/check.hpp"
#include "core/observers.hpp"
#include "core/report.hpp"
#include "trace/json.hpp"

namespace cooprt::exec {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    // cooprt-lint: allow(unseeded-randomness) wall-clock timing here
    // is reporting-only; it never feeds simulated state
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
resolveWorkers(int jobs_option, std::size_t num_jobs)
{
    int n = jobs_option;
    if (n <= 0)
        n = int(std::thread::hardware_concurrency());
    if (n <= 0)
        n = 1;
    if (num_jobs > 0 && std::size_t(n) > num_jobs)
        n = int(num_jobs);
    return n;
}

} // namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Exception: return "exception";
      case FailureKind::Timeout: return "timeout";
    }
    return "unknown";
}

std::string
sanitizeTag(const std::string &tag)
{
    std::string out;
    out.reserve(tag.size());
    for (char c : tag) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        out.push_back(ok ? c : '_');
    }
    return out.empty() ? std::string("job") : out;
}

Campaign::Campaign(CampaignOptions options)
    : options_(std::move(options))
{
}

std::size_t
Campaign::add(Job job)
{
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

JobRunner
Campaign::defaultRunner() const
{
    return [o = options_](const Job &job) {
        // Every job gets private observers writing
        // `<dir>/<sanitized tag><ext>`, so jobs never share state.
        const std::string stem = sanitizeTag(job.tag);
        auto path = [&stem](const std::string &dir, const char *ext) {
            return dir.empty() ? dir : dir + "/" + stem + ext;
        };
        core::ObserverRequest req;
        req.profiler = o.attach_profiler;
        req.ray = o.ray_config;
        req.memscope = o.attach_memscope;
        core::SinkPaths &s = req.sinks;
        s.metrics = path(o.metrics_dir, ".metrics.csv");
        s.prof_folded = path(o.profile_dir, ".folded");
        s.prof_json = path(o.profile_dir, ".prof.json");
        s.raystats = path(o.raytrace_dir, ".raystats.json");
        s.memscope_json = path(o.memscope_dir, ".memscope.json");
        s.memscope_folded = path(o.memscope_dir, ".memscope.folded");
        s.telemetry = path(o.telemetry_dir, ".telemetry.json");
        s.report = path(o.report_dir, ".report.json");

        core::RunConfig cfg = job.config;
        core::ObserverSet observers(std::move(req), cfg);
        core::RunOutcome out =
            core::simulationFor(job.scene_label).run(cfg);
        observers.writeSinks(out);
        return out;
    };
}

std::string
createSinkDirs(const CampaignOptions &options)
{
    for (const std::string *dir :
         {&options.metrics_dir, &options.profile_dir,
          &options.raytrace_dir, &options.memscope_dir,
          &options.telemetry_dir, &options.report_dir}) {
        std::error_code ec;
        if (!dir->empty())
            std::filesystem::create_directories(*dir, ec);
        if (ec)
            return *dir + ": " + ec.message();
    }
    return {};
}

std::vector<JobResult>
Campaign::run()
{
    const std::size_t n = jobs_.size();
    std::vector<JobResult> results(n);
    if (n == 0)
        return results;

    // cooprt-lint: allow(unseeded-randomness) campaign wall-clock is
    // reporting-only; simulated cycles come from the seeded model
    const auto campaign_start = Clock::now();
    stats_.queued.store(n, std::memory_order_relaxed);
    const int workers = resolveWorkers(options_.jobs, n);
    const double timeout_s = options_.timeout_s;

    // Materialize the per-job sink directories before any worker
    // starts: ObserverSet opens plain paths, and doing this once
    // here (rather than per job) keeps workers free of filesystem
    // races on a shared parent.
    if (const std::string err = createSinkDirs(options_); !err.empty())
        throw std::runtime_error("cannot create sink directory " + err);

    telemetry::EventLog *events = options_.event_log;
    if (events != nullptr)
        events->campaignBegin(n, workers);

    const JobRunner runner = runner_ ? runner_ : defaultRunner();
    std::atomic<std::size_t> cursor{0};
    std::mutex completion_mtx;

    // Runs every attempt of job `idx` in place: until one succeeds,
    // overruns its budget, or the retry budget is spent.
    auto execute = [&](std::size_t idx) {
        const Job &job = jobs_[idx];
        JobResult &r = results[idx];
        r.index = idx;
        r.tag = job.tag;
        core::RunOutcome outcome;
        std::optional<JobFailure> failure;
        for (;;) {
            r.attempts++;
            if (events != nullptr)
                events->jobStart(idx, job.tag, r.attempts);
            stats_.running.fetch_add(1, std::memory_order_relaxed);
            // cooprt-lint: allow(unseeded-randomness) per-job
            // wall-clock drives timeouts and reporting, never
            // simulation results
            const auto t0 = Clock::now();
            failure.reset();
            try {
                outcome = runner(job);
            } catch (const std::exception &e) {
                failure = JobFailure{FailureKind::Exception, e.what()};
            } catch (...) {
                failure = JobFailure{FailureKind::Exception,
                                     "unknown exception"};
            }
            const double elapsed = secondsSince(t0);
            // cooprt-lint: allow(float-accumulation-order) single
            // writer per result slot: only this worker adds to r
            r.wall_seconds += elapsed;
            stats_.running.fetch_sub(1, std::memory_order_relaxed);

            // An attempt that overran its budget is a timeout no
            // matter how it ended, and timeouts never retry (a
            // deterministic job would only time out again).
            if (timeout_s > 0.0 && elapsed > timeout_s) {
                failure = JobFailure{
                    FailureKind::Timeout,
                    "exceeded wall-clock budget of " +
                        std::to_string(timeout_s) + " s"};
                stats_.timed_out.fetch_add(1,
                                           std::memory_order_relaxed);
                if (events != nullptr)
                    events->jobTimeout(idx, job.tag, timeout_s);
                break;
            }
            if (!failure || r.attempts > options_.retries)
                break;
            stats_.retried.fetch_add(1, std::memory_order_relaxed);
            if (events != nullptr)
                events->jobRetry(idx, job.tag, r.attempts + 1);
        }

        r.ok = !failure;
        if (r.ok) {
            r.outcome = std::move(outcome);
            stats_.done.fetch_add(1, std::memory_order_relaxed);
        } else {
            r.failure = std::move(failure);
            stats_.failed.fetch_add(1, std::memory_order_relaxed);
        }
        if (events != nullptr)
            events->jobFinish(idx, job.tag, r.ok, r.attempts,
                              r.ok ? r.outcome.gpu.cycles : 0,
                              r.wall_seconds);
        if (options_.on_job_done) {
            std::lock_guard<std::mutex> lock(completion_mtx);
            options_.on_job_done(r);
        }
    };

    // One shared cursor balances the load: jobs are whole simulation
    // runs (milliseconds to minutes), so an idle worker simply takes
    // the next unclaimed index.
    {
        std::vector<std::jthread> pool;
        pool.reserve(std::size_t(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                for (std::size_t idx = cursor++; idx < n; idx = cursor++)
                    execute(idx);
            });
    } // joins the workers

    wall_seconds_ = secondsSince(campaign_start);
    if (events != nullptr)
        events->campaignEnd(
            telemetry::CampaignCounters{
                .done = stats_.done.load(),
                .failed = stats_.failed.load(),
                .retried = stats_.retried.load(),
                .timed_out = stats_.timed_out.load()},
            wall_seconds_);

#if COOPRT_CHECK_ENABLED
    // Campaign accounting must conserve jobs: every queued job ends
    // exactly once (done or failed), nothing is still running, and
    // every timeout surfaced as a failure.
    COOPRT_AUDIT("exec", "exec.jobs_conservation", 0,
                 stats_.running.load() == 0 &&
                     stats_.done.load() + stats_.failed.load() ==
                         stats_.queued.load() &&
                     stats_.timed_out.load() <= stats_.failed.load(),
                 "queued=" + std::to_string(stats_.queued.load()) +
                     " done=" + std::to_string(stats_.done.load()) +
                     " failed=" + std::to_string(stats_.failed.load()) +
                     " running=" +
                     std::to_string(stats_.running.load()) +
                     " timed_out=" +
                     std::to_string(stats_.timed_out.load()));
#endif
    return results;
}

std::vector<JobResult>
runCampaign(std::vector<Job> jobs, const CampaignOptions &options)
{
    Campaign campaign(options);
    for (auto &j : jobs)
        campaign.add(std::move(j));
    return campaign.run();
}

void
writeJsonLine(std::ostream &os, const JobResult &result)
{
    os << "{\"schema_version\":" << trace::kSchemaVersion
       << ",\"tag\":" << trace::quoteJson(result.tag)
       << ",\"ok\":" << (result.ok ? "true" : "false");
    if (result.ok) {
        std::string outcome_json = core::toJson(result.outcome);
        while (!outcome_json.empty() && outcome_json.back() == '\n')
            outcome_json.pop_back();
        os << ",\"outcome\":" << outcome_json;
    } else {
        os << ",\"attempts\":" << result.attempts << ",\"failure\":{";
        if (result.failure) {
            os << "\"kind\":\"" << failureKindName(result.failure->kind)
               << "\",\"message\":"
               << trace::quoteJson(result.failure->message);
        }
        os << "}";
    }
    os << "}\n";
}

} // namespace cooprt::exec
