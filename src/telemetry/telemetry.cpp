#include "telemetry/telemetry.hpp"

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/build_info.hpp"
#include "trace/json.hpp"
#include "trace/registry.hpp"

namespace cooprt::telemetry {

double
monotonicSeconds()
{
    // cooprt-lint: allow(unseeded-randomness) telemetry is the
    // repository's single wall-clock authority; readings feed
    // host-side reporting only, never simulated state (DESIGN.md §16)
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

/* ------------------------------------------------------------------ */
/* Build provenance                                                    */
/* ------------------------------------------------------------------ */

void
writeBuildFields(trace::JsonWriter &w)
{
    w.field("revision", std::string(build::kGitRevision));
    w.field("dirty", build::kGitDirty ? "true" : "false");
    w.field("compiler", std::string(build::kCompiler));
    w.field("build_type", std::string(build::kBuildType));
    w.field("check", build::kCheckEnabled ? "true" : "false");
}

std::string
buildInfoJson()
{
    std::ostringstream ss;
    trace::JsonWriter w(ss);
    w.open();
    writeBuildFields(w);
    w.close();
    return ss.str();
}

/* ------------------------------------------------------------------ */
/* Process memory                                                      */
/* ------------------------------------------------------------------ */

Rss
parseProcStatus(std::istream &is)
{
    Rss rss;
    std::string line;
    while (std::getline(is, line)) {
        std::uint64_t *slot = nullptr;
        if (line.rfind("VmRSS:", 0) == 0)
            slot = &rss.current_kb;
        else if (line.rfind("VmHWM:", 0) == 0)
            slot = &rss.peak_kb;
        if (slot == nullptr)
            continue;
        std::istringstream fields(line.substr(6));
        std::uint64_t kb = 0;
        std::string unit;
        if (fields >> kb >> unit && unit == "kB")
            *slot = kb;
    }
    return rss;
}

Rss
readRss()
{
    std::ifstream status("/proc/self/status");
    if (!status)
        return Rss{}; // non-Linux hosts: degrade to zeros
    return parseProcStatus(status);
}

/* ------------------------------------------------------------------ */
/* Per-run recorder                                                    */
/* ------------------------------------------------------------------ */

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::SceneLoad: return "scene_load";
      case Phase::BvhBuild: return "bvh_build";
      case Phase::Warmup: return "warmup";
      case Phase::SimLoop: return "sim_loop";
      case Phase::Report: return "report";
    }
    return "unknown";
}

void
Recorder::reset()
{
    summary_ = Summary{};
    live_cycle_.store(0, std::memory_order_relaxed);
    live_rays_.store(0, std::memory_order_relaxed);
}

void
Recorder::recordPhase(Phase phase, double seconds)
{
    auto &span = summary_.phases[std::size_t(phase)];
    span.seconds += seconds;
    span.count++;
}

void
Recorder::finishRun(std::uint64_t cycles, std::uint64_t rays_retired)
{
    summary_.enabled = true;
    summary_.cycles = cycles;
    summary_.rays_retired = rays_retired;
    summary_.sim_seconds = summary_.phase(Phase::SimLoop).seconds;
    summary_.rss = readRss();
    publishProgress(cycles, rays_retired);
}

void
Recorder::registerMetrics(trace::Registry &registry)
{
    // Deterministic gauges only (simulated cycle / retired-warp
    // progress): these may join per-run metrics sessions without
    // breaking the jobs-1-vs-N byte-identity contract. Host wall
    // clock and RSS stay in the sink's "host" object.
    registry.probe(
        "telemetry.sim_cycle", [this] { return double(liveCycle()); },
        this);
    registry.probe(
        "telemetry.rays_retired",
        [this] { return double(liveRays()); }, this);
}

void
Recorder::writeJson(std::ostream &os, const std::string &scene) const
{
    const Summary &s = summary_;
    trace::JsonWriter w(os);
    w.open();
    trace::writeSchemaVersion(w);
    if (run_key_.valid())
        trace::writeRunKey(w, run_key_);
    w.field("scene", scene);
    w.field("telemetry_version", 1);
    w.open("build");
    writeBuildFields(w);
    w.close();
    // Deterministic simulated totals, separated from "host" below so
    // identity tooling can compare them across worker counts.
    w.open("sim");
    w.field("cycles", s.cycles);
    w.field("rays_retired", s.rays_retired);
    w.close();
    w.open("host");
    w.open("phases");
    for (int p = 0; p < kNumPhases; ++p) {
        const PhaseSpan &span = s.phases[std::size_t(p)];
        w.open(phaseName(Phase(p)));
        w.field("seconds", span.seconds);
        w.field("count", span.count);
        w.close();
    }
    w.close();
    w.field("sim_seconds", s.sim_seconds);
    w.field("rss_current_kb", s.rss.current_kb);
    w.field("rss_peak_kb", s.rss.peak_kb);
    w.close();
    w.close();
    os << '\n';
}

/* ------------------------------------------------------------------ */
/* Event log                                                           */
/* ------------------------------------------------------------------ */

EventLog::EventLog(std::ostream *os) : os_(os)
{
    if (os_ != nullptr)
        t0_ = monotonicSeconds();
}

void
EventLog::emit(const char *event, const std::string &deterministic,
               const std::string &host)
{
    if (os_ == nullptr)
        return;
    std::ostringstream line;
    line << "{\"ev\":\"" << event << '"';
    if (!deterministic.empty())
        line << ',' << deterministic;
    line << ",\"host\":{\"t_s\":" << (monotonicSeconds() - t0_);
    if (!host.empty())
        line << ',' << host;
    line << "}}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    *os_ << line.str();
    os_->flush();
}

void
EventLog::campaignBegin(std::size_t jobs, int workers)
{
    // Worker count is a host scheduling choice, so it lives in the
    // host object: two runs of the same matrix with different --jobs
    // must project to identical deterministic lines.
    emit("campaign_begin",
         "\"jobs\":" + std::to_string(jobs) +
             ",\"build\":" + buildInfoJson(),
         "\"workers\":" + std::to_string(workers));
}

void
EventLog::jobStart(std::size_t index, const std::string &tag,
                   int attempt)
{
    emit("job_start",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) +
             ",\"attempt\":" + std::to_string(attempt));
}

void
EventLog::jobRetry(std::size_t index, const std::string &tag,
                   int next_attempt)
{
    emit("job_retry",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) +
             ",\"next_attempt\":" + std::to_string(next_attempt));
}

void
EventLog::jobTimeout(std::size_t index, const std::string &tag,
                     double budget_s)
{
    emit("job_timeout",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) +
             ",\"budget_s\":" + std::to_string(budget_s));
}

void
EventLog::jobFinish(std::size_t index, const std::string &tag,
                    bool ok, int attempts, std::uint64_t cycles,
                    double duration_s)
{
    std::ostringstream host;
    host << "\"duration_s\":" << duration_s
         << ",\"rss_peak_kb\":" << readRss().peak_kb;
    emit("job_finish",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) + ",\"ok\":" +
             (ok ? "true" : "false") +
             ",\"attempts\":" + std::to_string(attempts) +
             ",\"cycles\":" + std::to_string(cycles),
         host.str());
}

void
EventLog::campaignEnd(const CampaignCounters &c, double wall_seconds)
{
    std::ostringstream host;
    host << "\"wall_seconds\":" << wall_seconds
         << ",\"rss_peak_kb\":" << readRss().peak_kb;
    emit("campaign_end",
         "\"done\":" + std::to_string(c.done) +
             ",\"failed\":" + std::to_string(c.failed) +
             ",\"retried\":" + std::to_string(c.retried) +
             ",\"timed_out\":" + std::to_string(c.timed_out),
         host.str());
}

/* ------------------------------------------------------------------ */
/* Heartbeat                                                           */
/* ------------------------------------------------------------------ */

Heartbeat::Heartbeat(double interval_seconds,
                     std::function<std::string()> status,
                     std::ostream &os)
    : thread_([this, interval_seconds, status = std::move(status),
               &os](std::stop_token st) {
          std::mutex m;
          std::condition_variable_any cv;
          const auto interval = std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  interval_seconds > 0.0 ? interval_seconds : 1.0));
          std::unique_lock<std::mutex> lock(m);
          while (!st.stop_requested()) {
              // Stop-token-aware nap: wakes immediately on shutdown,
              // so short campaigns never block on a long interval.
              if (cv.wait_for(lock, st, interval,
                              [] { return false; }))
                  break;
              if (st.stop_requested())
                  break;
              os << "[telemetry] " << status() << '\n';
              os.flush();
              beats_.fetch_add(1, std::memory_order_relaxed);
          }
      })
{
}

Heartbeat::~Heartbeat()
{
    thread_.request_stop();
}

} // namespace cooprt::telemetry
