/**
 * @file
 * `cooprt::exec` — the host-parallel experiment-campaign engine.
 *
 * Every paper figure/table and design-space sweep is a list of
 * independent, deterministic simulation jobs (scene × RunConfig).
 * This subsystem runs such a campaign across a pool of `std::jthread`
 * workers that take jobs from one shared cursor, and collects the
 * outcomes in submission order, so parallel output is byte-identical
 * to a serial run:
 *
 *     std::vector<exec::Job> jobs;
 *     for (const auto &label : scene::SceneRegistry::allLabels())
 *         jobs.push_back({label, core::RunConfig{}, "fig09/" + label});
 *     exec::CampaignOptions opt;
 *     opt.jobs = 8;                       // 0 = hardware_concurrency
 *     auto results = exec::runCampaign(std::move(jobs), opt);
 *
 * Determinism contract: each job is simulated single-threaded with
 * its own GPU/shader state; the only shared mutable state is the
 * build-once scene/BVH cache (`SceneRegistry::get`, `simulationFor`),
 * which is guarded by per-label `std::once_flag`s. Results are
 * returned indexed by submission order, so tables and JSON lines
 * assembled from them do not depend on worker count or scheduling.
 *
 * Fault isolation: a job that throws is captured as a structured
 * `JobFailure` (with a retry budget for transient host errors), and a
 * job whose attempt ran past its wall-clock budget is failed as a
 * timeout when it returns — either way the rest of the campaign
 * completes. Timeouts are not retried: the simulator is
 * deterministic, so a pathological config would only time out again.
 */

#ifndef COOPRT_EXEC_EXEC_HPP
#define COOPRT_EXEC_EXEC_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace cooprt::exec {

/** One unit of campaign work: a scene under one configuration. */
struct Job
{
    std::string scene_label;
    core::RunConfig config;
    /** Caller-chosen name, e.g. "fig09/crnvl/coop"; names per-job
     *  sink files and shows up in progress notes and JSON lines. */
    std::string tag;
};

/** Why a job gave up. */
enum class FailureKind { Exception, Timeout };

/** Stable lowercase name ("exception" / "timeout"). */
const char *failureKindName(FailureKind kind);

/** Structured capture of a failed job. */
struct JobFailure
{
    FailureKind kind = FailureKind::Exception;
    /** what() of the captured exception, or the timeout description. */
    std::string message;
};

/** The per-job record a campaign returns, in submission order. */
struct JobResult
{
    std::size_t index = 0; ///< submission index
    std::string tag;
    bool ok = false;
    /** Valid when `ok`. */
    core::RunOutcome outcome;
    /** Set when `!ok`. */
    std::optional<JobFailure> failure;
    /** Attempts consumed (1 + retries actually taken). */
    int attempts = 0;
    /** Host wall clock across all attempts. Non-deterministic:
     *  excluded from `writeJsonLine` so sinks stay byte-identical
     *  between serial and parallel runs. */
    double wall_seconds = 0.0;
};

/** Live campaign counters; the event log's `campaign_end` line and
 *  `campaign_cli`'s summary line report them. */
struct CampaignStats
{
    std::atomic<std::uint64_t> queued{0};    ///< total jobs submitted
    std::atomic<std::uint64_t> running{0};   ///< currently executing
    std::atomic<std::uint64_t> done{0};      ///< completed ok
    std::atomic<std::uint64_t> failed{0};    ///< gave up (incl. timeouts)
    std::atomic<std::uint64_t> retried{0};   ///< extra attempts taken
    std::atomic<std::uint64_t> timed_out{0}; ///< failures that were timeouts
};

/**
 * Executes one job attempt. Runners are never interrupted: an
 * attempt that ran longer than `CampaignOptions::timeout_s` is
 * failed as a timeout when it returns.
 */
using JobRunner = std::function<core::RunOutcome(const Job &)>;

/** Everything configurable about a campaign. */
struct CampaignOptions
{
    /** Worker threads; <= 0 means hardware_concurrency. */
    int jobs = 0;
    /** Extra attempts after a thrown (non-timeout) failure. */
    int retries = 0;
    /** Per-attempt wall-clock budget in seconds, checked when the
     *  attempt returns; 0 = unlimited. */
    double timeout_s = 0.0;
    /** When set, each job runs with its own metrics-enabled session
     *  and writes `<dir>/<sanitized tag>.metrics.csv`. */
    std::string metrics_dir;
    /** When set, each job runs with its own profiler and writes
     *  `<dir>/<sanitized tag>.folded` + `.prof.json`. */
    std::string profile_dir;
    /** Attach a per-job profiler even without `profile_dir`, filling
     *  `outcome.gpu.prof_summary` (bit-identical cycle counts). */
    bool attach_profiler = false;
    /** When set, each job runs with its own ray-provenance recorder
     *  (configured by `ray_config`) and writes
     *  `<dir>/<sanitized tag>.raystats.json`. The sink depends only
     *  on the simulated run, so it is byte-identical between
     *  `--jobs 1` and `--jobs N`. */
    std::string raytrace_dir;
    /** Sampling parameters for per-job ray recorders. */
    raytrace::RecorderConfig ray_config;
    /** When set, each job runs with its own memscope collector and
     *  writes `<dir>/<sanitized tag>.memscope.json` +
     *  `.memscope.folded`. The sinks depend only on the simulated
     *  run, so they are byte-identical between `--jobs 1` and
     *  `--jobs N`. */
    std::string memscope_dir;
    /** Attach a per-job memscope collector even without
     *  `memscope_dir`, filling `outcome.gpu.memscope_summary`
     *  (bit-identical cycle counts). */
    bool attach_memscope = false;
    /** When set, each job runs with its own host-telemetry recorder
     *  and writes `<dir>/<sanitized tag>.telemetry.json`. The sink's
     *  deterministic fields are byte-identical between `--jobs 1`
     *  and `--jobs N`; its wall-clock/RSS fields live in a `"host"`
     *  object that identity tooling strips (DESIGN.md §16). */
    std::string telemetry_dir;
    /** When set, each job writes its full schema-stamped run report
     *  to `<dir>/<sanitized tag>.report.json` (`core::writeJson`) —
     *  the file format `diff_cli` and `--diff-baseline` consume.
     *  Deterministic, byte-identical between `--jobs 1` and
     *  `--jobs N`. */
    std::string report_dir;
    /**
     * Optional campaign lifecycle event log (JSON lines: job start /
     * retry / timeout / finish with durations). Borrowed, must
     * outlive `run()`; null = off. Workers emit concurrently; the
     * log serializes them.
     */
    telemetry::EventLog *event_log = nullptr;
    /**
     * Completion hook, invoked once per job (success or final
     * failure) from worker threads, serialized by the campaign.
     * Completion order is scheduling-dependent — deterministic
     * consumers should use the returned vector instead.
     */
    std::function<void(const JobResult &)> on_job_done;
};

/**
 * A campaign: add jobs, run them, read the results in submission
 * order. Reusable only for one `run()`.
 */
class Campaign
{
  public:
    explicit Campaign(CampaignOptions options = {});

    Campaign(const Campaign &) = delete;
    Campaign &operator=(const Campaign &) = delete;

    /** Queue @p job; returns its submission index. */
    std::size_t add(Job job);

    std::size_t size() const { return jobs_.size(); }

    /**
     * Replace the default simulation runner (tests use this to
     * inject failures and skewed job durations).
     */
    void setRunner(JobRunner runner) { runner_ = std::move(runner); }

    /**
     * Run every job to completion across the pool; blocks. Each
     * worker takes the next unclaimed index and runs all of that
     * job's attempts before taking another. Results are indexed by
     * submission order regardless of worker count.
     */
    std::vector<JobResult> run();

    const CampaignStats &stats() const { return stats_; }

    /** Wall clock of the last `run()`, in seconds. */
    double wallSeconds() const { return wall_seconds_; }

    const CampaignOptions &options() const { return options_; }

  private:
    JobRunner defaultRunner() const;

    CampaignOptions options_;
    std::vector<Job> jobs_;
    JobRunner runner_;
    CampaignStats stats_;
    double wall_seconds_ = 0.0;
};

/**
 * Create every non-empty `*_dir` sink directory of @p options (the
 * parents too). Returns "" on success, else "<dir>: <reason>" for
 * the first directory that cannot be created. `Campaign::run` calls
 * it and throws `std::runtime_error` on failure; front ends call it
 * first to reject a bad path before any job starts.
 */
std::string createSinkDirs(const CampaignOptions &options);

/** One-shot convenience over `Campaign`. */
std::vector<JobResult> runCampaign(std::vector<Job> jobs,
                                   const CampaignOptions &options = {});

/**
 * Append @p result as one JSON line (the `--json-out` format):
 * `{"tag":...,"ok":true,"outcome":{...}}` on success,
 * `{"tag":...,"ok":false,"attempts":N,"failure":{...}}` otherwise.
 * Only deterministic fields are written (no wall clock), so the sink
 * is byte-identical between `--jobs 1` and `--jobs N`.
 */
void writeJsonLine(std::ostream &os, const JobResult &result);

/** @p tag reduced to a file-name-safe form ([A-Za-z0-9._-]). */
std::string sanitizeTag(const std::string &tag);

} // namespace cooprt::exec

#endif // COOPRT_EXEC_EXEC_HPP
