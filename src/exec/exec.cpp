#include "exec/exec.hpp"

#include <chrono>
#include <deque>
#include <filesystem>
#include <map>
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

telemetry::CampaignCounters
countersSnapshot(const CampaignStats &s)
{
    telemetry::CampaignCounters c;
    c.queued = s.queued.load(std::memory_order_relaxed);
    c.running = s.running.load(std::memory_order_relaxed);
    c.done = s.done.load(std::memory_order_relaxed);
    c.failed = s.failed.load(std::memory_order_relaxed);
    c.retried = s.retried.load(std::memory_order_relaxed);
    c.timed_out = s.timed_out.load(std::memory_order_relaxed);
    c.steals = s.steals.load(std::memory_order_relaxed);
    return c;
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
    if (options_.session != nullptr) {
        auto &reg = options_.session->registry();
        auto probe = [&](const char *name,
                         const std::atomic<std::uint64_t> &value) {
            reg.probe(name,
                      [&value] {
                          return double(value.load(
                              std::memory_order_relaxed));
                      },
                      this);
        };
        probe("exec.jobs_queued", stats_.queued);
        probe("exec.jobs_running", stats_.running);
        probe("exec.jobs_done", stats_.done);
        probe("exec.jobs_failed", stats_.failed);
        probe("exec.jobs_retried", stats_.retried);
        probe("exec.jobs_timed_out", stats_.timed_out);
        probe("exec.steals", stats_.steals);
    }
}

Campaign::~Campaign()
{
    if (options_.session != nullptr)
        options_.session->registry().unregisterOwner(this);
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
    return [o = options_](const Job &job, std::stop_token) {
        // Every job gets private observers writing
        // `<dir>/<sanitized tag><ext>`, so jobs never share state.
        const std::string stem = sanitizeTag(job.tag);
        auto path = [&stem](const std::string &dir, const char *ext) {
            return dir.empty() ? dir : dir + "/" + stem + ext;
        };
        core::ObserverRequest req;
        req.profiler = o.attach_profiler;
        req.ray_recorder = o.attach_ray_recorder;
        req.ray = o.ray_config;
        req.memscope = o.attach_memscope;
        req.telemetry = o.attach_telemetry;
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
    telemetry::CampaignMonitor *monitor = options_.monitor;
    if (monitor != nullptr) {
        monitor->begin(n, workers);
        monitor->setCountersSource(
            [this] { return countersSnapshot(stats_); });
    }
    if (events != nullptr)
        events->campaignBegin(n, workers);

    const JobRunner runner = runner_ ? runner_ : defaultRunner();

    // Per-worker job queues; jobs are dealt round-robin and idle
    // workers steal from the back of a victim's queue. Mutex-per-
    // queue is plenty at this granularity (jobs are whole simulation
    // runs, milliseconds to minutes each).
    struct WorkerQueue
    {
        std::mutex m;
        std::deque<std::size_t> q;
    };
    const std::size_t nworkers = std::size_t(workers);
    std::vector<WorkerQueue> queues(nworkers);
    for (std::size_t i = 0; i < n; ++i)
        queues[i % nworkers].q.push_back(i);

    std::vector<int> attempts(n, 0);
    std::atomic<std::size_t> remaining{n};

    // Watchdog bookkeeping: running jobs with a deadline. The
    // watchdog requests stop on overdue jobs so cooperative runners
    // can abort; non-cooperative ones are failed when they return.
    struct RunningJob
    {
        Clock::time_point deadline;
        std::stop_source *stop = nullptr;
    };
    std::mutex running_mtx;
    std::map<std::size_t, RunningJob> running_jobs;

    std::mutex completion_mtx;

    auto execute = [&](int wid, std::size_t idx) {
        Job &job = jobs_[idx];
        JobResult &r = results[idx];
        stats_.running.fetch_add(1, std::memory_order_relaxed);
        // cooprt-lint: allow(unseeded-randomness) per-job wall-clock
        // drives timeouts and reporting, never simulation results
        const auto t0 = Clock::now();
        std::stop_source stop;
        if (timeout_s > 0.0) {
            std::lock_guard<std::mutex> lock(running_mtx);
            running_jobs[idx] = RunningJob{
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s)),
                &stop};
        }

        attempts[idx]++;
        if (events != nullptr)
            events->jobStart(idx, job.tag, attempts[idx]);
        bool ok = false;
        std::optional<JobFailure> failure;
        core::RunOutcome outcome;
        try {
            outcome = runner(job, stop.get_token());
            ok = true;
        } catch (const std::exception &e) {
            failure = JobFailure{FailureKind::Exception, e.what()};
        } catch (...) {
            failure = JobFailure{FailureKind::Exception,
                                 "unknown exception"};
        }

        if (timeout_s > 0.0) {
            std::lock_guard<std::mutex> lock(running_mtx);
            running_jobs.erase(idx);
        }
        const double elapsed = secondsSince(t0);
        // cooprt-lint: allow(float-accumulation-order) single writer
        // per result slot: only this job's attempts ever add to r
        r.wall_seconds += elapsed;
        stats_.running.fetch_sub(1, std::memory_order_relaxed);

        // A job that overran its budget is a timeout no matter how
        // it ended — even a runner that aborted by throwing once the
        // token fired reports as Timeout, and timeouts never retry
        // (a deterministic job would only time out again).
        const bool overdue = timeout_s > 0.0 && elapsed > timeout_s;
        if (overdue) {
            ok = false;
            failure = JobFailure{
                FailureKind::Timeout,
                "exceeded wall-clock budget of " +
                    std::to_string(timeout_s) + " s"};
            stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
            if (events != nullptr)
                events->jobTimeout(idx, job.tag, timeout_s);
        } else if (!ok && attempts[idx] <= options_.retries) {
            stats_.retried.fetch_add(1, std::memory_order_relaxed);
            if (events != nullptr)
                events->jobRetry(idx, job.tag, attempts[idx] + 1);
            std::lock_guard<std::mutex> lock(
                queues[std::size_t(wid)].m);
            queues[std::size_t(wid)].q.push_back(idx);
            return;
        }

        r.index = idx;
        r.tag = job.tag;
        r.ok = ok;
        r.attempts = attempts[idx];
        if (ok) {
            r.outcome = std::move(outcome);
            stats_.done.fetch_add(1, std::memory_order_relaxed);
        } else {
            r.failure = std::move(failure);
            stats_.failed.fetch_add(1, std::memory_order_relaxed);
        }
        remaining.fetch_sub(1);
        if (monitor != nullptr)
            monitor->jobFinished(r.wall_seconds);
        if (events != nullptr)
            events->jobFinish(idx, job.tag, r.ok, r.attempts,
                              r.ok ? r.outcome.gpu.cycles : 0,
                              r.wall_seconds);
        if (options_.on_job_done) {
            std::lock_guard<std::mutex> lock(completion_mtx);
            options_.on_job_done(r);
        }
    };

    auto workerLoop = [&](int wid) {
        for (;;) {
            std::size_t idx = 0;
            bool have = false;
            {
                auto &own = queues[std::size_t(wid)];
                std::lock_guard<std::mutex> lock(own.m);
                if (!own.q.empty()) {
                    idx = own.q.front();
                    own.q.pop_front();
                    have = true;
                }
            }
            if (!have) {
                for (int v = 1; v < workers && !have; ++v) {
                    auto &victim =
                        queues[std::size_t((wid + v) % workers)];
                    std::lock_guard<std::mutex> lock(victim.m);
                    if (!victim.q.empty()) {
                        idx = victim.q.back();
                        victim.q.pop_back();
                        have = true;
                        stats_.steals.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                }
            }
            if (!have) {
                if (remaining.load() == 0)
                    return;
                // Another worker may still requeue a retry; nap
                // briefly (jobs are whole simulation runs, so this
                // costs nothing measurable).
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                continue;
            }
            execute(wid, idx);
        }
    };

    {
        std::jthread watchdog;
        if (timeout_s > 0.0)
            watchdog = std::jthread([&](std::stop_token st) {
                while (!st.stop_requested()) {
                    {
                        std::lock_guard<std::mutex> lock(running_mtx);
                        // cooprt-lint: allow(unseeded-randomness)
                        // deadlines are wall-clock by definition;
                        // the watchdog cancels, it never computes
                        const auto now = Clock::now();
                        for (auto &[idx, rj] : running_jobs)
                            if (now >= rj.deadline)
                                rj.stop->request_stop();
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            });
        {
            std::vector<std::jthread> pool;
            pool.reserve(std::size_t(workers));
            for (int w = 0; w < workers; ++w)
                pool.emplace_back(workerLoop, w);
        } // joins the workers
        if (watchdog.joinable())
            watchdog.request_stop();
    } // joins the watchdog

    wall_seconds_ = secondsSince(campaign_start);
    if (events != nullptr)
        events->campaignEnd(countersSnapshot(stats_), wall_seconds_);

#if COOPRT_CHECK_ENABLED
    // Campaign accounting must conserve jobs: every queued job ends
    // exactly once (done or failed), nothing is still running, every
    // timeout surfaced as a failure, and each steal corresponds to a
    // real execution (done + failed + requeued retries).
    COOPRT_AUDIT("exec", "exec.jobs_conservation", 0,
                 stats_.running.load() == 0 &&
                     stats_.done.load() + stats_.failed.load() ==
                         stats_.queued.load() &&
                     stats_.timed_out.load() <= stats_.failed.load() &&
                     stats_.steals.load() <=
                         stats_.done.load() + stats_.failed.load() +
                             stats_.retried.load(),
                 "queued=" + std::to_string(stats_.queued.load()) +
                     " done=" + std::to_string(stats_.done.load()) +
                     " failed=" + std::to_string(stats_.failed.load()) +
                     " running=" +
                     std::to_string(stats_.running.load()) +
                     " retried=" +
                     std::to_string(stats_.retried.load()) +
                     " timed_out=" +
                     std::to_string(stats_.timed_out.load()) +
                     " steals=" + std::to_string(stats_.steals.load()));
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
