/**
 * @file
 * `cooprt::telemetry` — host-side runtime telemetry for the simulator
 * as a *process*: where wall-clock time and memory go, how fast the
 * simulation itself runs, and how a campaign is progressing.
 *
 * Everything in `src/trace`, `src/prof`, `src/raytrace` and
 * `src/memscope` observes the *simulated* GPU; this subsystem
 * observes the simulator. Per run it records phase-scoped monotonic
 * wall-clock spans (scene load, BVH build, warmup, sim loop, report
 * emission) and peak/current RSS; a live stderr heartbeat reports
 * progress inside one long run, and per campaign it adds a
 * JSON-lines event log.
 *
 * Determinism contract (the same one every observer layer honors):
 * attaching telemetry never changes simulated results — the recorder
 * only reads simulated state, never schedules. Host wall-clock and
 * RSS are inherently nondeterministic, so every sink this subsystem
 * writes splits its fields into a deterministic part (simulated
 * cycles, tags, counts) and a `"host"` object holding the timing /
 * memory / scheduling fields; byte-identity tests (`--jobs 1` vs
 * `--jobs N`) strip the `"host"` objects and compare the rest (see
 * DESIGN.md §16 and the gtest
 * ExecCampaign.TelemetrySinksMatchAcrossWorkerCountsBesideHost).
 *
 * Usage (what `simulate_cli --telemetry` does):
 *
 *     telemetry::Recorder rec;
 *     core::RunConfig cfg;
 *     cfg.telemetry = &rec;
 *     auto out = sim.run(cfg);           // phases + RSS
 *     rec.writeJson(std::cout, out.scene);
 */

#ifndef COOPRT_TELEMETRY_TELEMETRY_HPP
#define COOPRT_TELEMETRY_TELEMETRY_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "trace/json.hpp"

namespace cooprt::trace {
class Registry;
} // namespace cooprt::trace

namespace cooprt::telemetry {

/**
 * Monotonic host wall clock in seconds. The single wall-clock
 * authority of the subsystem: every span, event timestamp and
 * heartbeat interval derives from this reading, and none of it ever
 * feeds simulated state.
 */
double monotonicSeconds();

/* ------------------------------------------------------------------ */
/* Build provenance                                                    */
/* ------------------------------------------------------------------ */

/**
 * Append the configure-time provenance fields (git revision, dirty
 * flag, compiler, build type, COOPRT_CHECK) to an already-open JSON
 * object. Every JSON report/sink embeds these under a `"build"` key
 * so artifacts are attributable to an exact binary.
 */
void writeBuildFields(trace::JsonWriter &w);

/** The whole provenance object as one compact JSON string,
 *  `{"revision":...,"dirty":...,...}` — for hand-rolled emitters. */
std::string buildInfoJson();

/* ------------------------------------------------------------------ */
/* Process memory                                                      */
/* ------------------------------------------------------------------ */

/** Resident-set sizes in kB; zeros when the platform offers none. */
struct Rss
{
    std::uint64_t current_kb = 0; ///< VmRSS
    std::uint64_t peak_kb = 0;    ///< VmHWM (high-water mark)
};

/** Parse `VmRSS` / `VmHWM` lines from a /proc/self/status stream
 *  (split out so tests can feed synthetic content). */
Rss parseProcStatus(std::istream &is);

/** The process's RSS via /proc/self/status on Linux; all-zero
 *  (gracefully degraded, never an error) elsewhere. */
Rss readRss();

/* ------------------------------------------------------------------ */
/* Per-run phase spans                                                 */
/* ------------------------------------------------------------------ */

/**
 * The host-side phases of one simulation run, in lifecycle order.
 * `Warmup` is frame construction (camera rays + warp programs built
 * before the first simulated cycle); `SceneLoad` / `BvhBuild` report
 * the one-time construction cost of the process-wide cached scene /
 * BVH the run used (re-reported by every run sharing the cache — see
 * DESIGN.md §16.2). `Report` is timed by `core::ObserverSet` around
 * the emission of the run's other sinks.
 */
enum class Phase : int { SceneLoad, BvhBuild, Warmup, SimLoop, Report };

inline constexpr int kNumPhases = 5;

/** Stable snake_case name ("scene_load", "sim_loop", ...). */
const char *phaseName(Phase phase);

/** Accumulated wall clock of one phase. */
struct PhaseSpan
{
    double seconds = 0.0;
    std::uint64_t count = 0; ///< recorded spans (0 = phase never ran)
};

/** Everything one run's telemetry boils down to. */
struct Summary
{
    bool enabled = false;
    /* Deterministic (simulated) totals. */
    std::uint64_t cycles = 0;       ///< simulated cycles
    std::uint64_t rays_retired = 0; ///< retired trace_rays warps
    /* Host-side (nondeterministic) measurements. */
    std::array<PhaseSpan, kNumPhases> phases{};
    double sim_seconds = 0.0;     ///< SimLoop span of this run
    Rss rss;                      ///< sampled at finishRun()

    const PhaseSpan &phase(Phase p) const
    { return phases[std::size_t(p)]; }
};

/**
 * Per-run host telemetry recorder. Borrowed via
 * `core::RunConfig::telemetry` exactly like the profiler/collector
 * peers: must outlive the run, is reset by each run that uses it,
 * and is purely observational — simulated cycle counts are
 * bit-identical with and without it.
 *
 * Not thread-safe across runs (one recorder per concurrent job, as
 * the campaign engine arranges); the live-progress gauges are
 * atomics so a heartbeat thread may read them mid-run.
 */
class Recorder
{
  public:
    /** Forget everything from a previous run. */
    void reset();

    /** Add @p seconds to @p phase (one recorded span). */
    void recordPhase(Phase phase, double seconds);

    /** RAII span: times its scope into @p phase. */
    class ScopedPhase
    {
      public:
        ScopedPhase(Recorder *recorder, Phase phase)
            : recorder_(recorder), phase_(phase),
              t0_(monotonicSeconds())
        {
        }
        ~ScopedPhase()
        {
            if (recorder_ != nullptr)
                recorder_->recordPhase(phase_,
                                       monotonicSeconds() - t0_);
        }
        ScopedPhase(const ScopedPhase &) = delete;
        ScopedPhase &operator=(const ScopedPhase &) = delete;

      private:
        Recorder *recorder_;
        Phase phase_;
        double t0_;
    };

    /** A scope timer for @p phase; null-recorder tolerant, so call
     *  sites need no branch: `Recorder::span(cfg.telemetry, ...)`. */
    static ScopedPhase span(Recorder *recorder, Phase phase)
    { return ScopedPhase(recorder, phase); }

    /**
     * Live progress, published by the GPU at activity-sampling
     * boundaries (simulated values; heartbeats read them without
     * perturbing the run).
     */
    void
    publishProgress(std::uint64_t cycle, std::uint64_t rays_retired)
    {
        live_cycle_.store(cycle, std::memory_order_relaxed);
        live_rays_.store(rays_retired, std::memory_order_relaxed);
    }
    std::uint64_t liveCycle() const
    { return live_cycle_.load(std::memory_order_relaxed); }
    std::uint64_t liveRays() const
    { return live_rays_.load(std::memory_order_relaxed); }

    /**
     * Seal the run: store the simulated totals, copy the SimLoop
     * span into sim_seconds and sample RSS.
     */
    void finishRun(std::uint64_t cycles, std::uint64_t rays_retired);

    const Summary &summary() const { return summary_; }

    /**
     * Register the recorder's *deterministic* gauges as
     * `telemetry.*` probes (DESIGN.md §16.4 authority table). Only
     * simulated values join per-run metric sessions — host wall
     * clock and RSS stay out, so metrics CSVs remain byte-identical
     * across worker counts.
     */
    void registerMetrics(trace::Registry &registry);

    /**
     * The per-run telemetry sink: deterministic `"sim"` fields,
     * the `"build"` provenance object and a `"host"` object holding
     * every nondeterministic measurement.
     */
    void writeJson(std::ostream &os, const std::string &scene) const;

    /** Stamp the run identity (called by `Simulation::run`); emitted
     *  into writeJson. Metadata only — survives reset(). */
    void setRunKey(const trace::RunKeyFields &key) { run_key_ = key; }
    const trace::RunKeyFields &runKey() const { return run_key_; }

  private:
    Summary summary_;
    std::atomic<std::uint64_t> live_cycle_{0};
    std::atomic<std::uint64_t> live_rays_{0};
    trace::RunKeyFields run_key_;
};

/* ------------------------------------------------------------------ */
/* Campaign-level telemetry                                            */
/* ------------------------------------------------------------------ */

/**
 * The final campaign counts `campaign_end` reports (mirrors
 * `exec::CampaignStats` without depending on it).
 */
struct CampaignCounters
{
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;
    std::uint64_t timed_out = 0;
};

/**
 * Structured JSON-lines event log of a campaign's lifecycle
 * (campaign_begin, job_start, job_retry, job_timeout, job_finish,
 * campaign_end). One line per event; deterministic fields first, one
 * trailing `"host"` object per line with the timing / scheduling
 * fields. Thread-safe: workers emit concurrently, lines never
 * interleave. The stream is borrowed; null disables every call.
 */
class EventLog
{
  public:
    explicit EventLog(std::ostream *os);

    bool enabled() const { return os_ != nullptr; }

    void campaignBegin(std::size_t jobs, int workers);
    void jobStart(std::size_t index, const std::string &tag,
                  int attempt);
    void jobRetry(std::size_t index, const std::string &tag,
                  int next_attempt);
    void jobTimeout(std::size_t index, const std::string &tag,
                    double budget_s);
    void jobFinish(std::size_t index, const std::string &tag, bool ok,
                   int attempts, std::uint64_t cycles,
                   double duration_s);
    void campaignEnd(const CampaignCounters &counters,
                     double wall_seconds);

  private:
    /** @p deterministic: fields after `"ev"`; @p host: fields inside
     *  the trailing host object (timestamp added automatically). */
    void emit(const char *event, const std::string &deterministic,
              const std::string &host = {});

    std::ostream *os_;
    double t0_ = 0.0;
    std::mutex mutex_;
};

/**
 * Periodic heartbeat: a jthread that writes @p status() to @p os
 * every @p interval_seconds until destroyed. Prompt shutdown (the
 * sleep is stop-token aware); writes never tear because each beat is
 * one formatted line.
 */
class Heartbeat
{
  public:
    Heartbeat(double interval_seconds,
              std::function<std::string()> status, std::ostream &os);
    ~Heartbeat();

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    /** Beats emitted so far (tests poll this). */
    std::uint64_t beats() const
    { return beats_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> beats_{0};
    std::jthread thread_;
};

} // namespace cooprt::telemetry

#endif // COOPRT_TELEMETRY_TELEMETRY_HPP
