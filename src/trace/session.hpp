/**
 * @file
 * One observability session: the registry, the (optional) Chrome
 * event tracer and the (optional) metrics sampler bundled behind a
 * single handle that the simulator plumbs down to every component.
 *
 * Usage (what `simulate_cli --trace --metrics` does):
 *
 *     trace::SessionOptions opt;
 *     opt.events = true;
 *     opt.metrics = true;
 *     opt.filter = "rtunit.*";
 *     trace::Session session(opt);
 *
 *     core::RunConfig cfg;
 *     cfg.trace_session = &session;
 *     auto out = sim.run(cfg);
 *
 *     std::ofstream tf("trace.json");
 *     session.writeTrace(tf);       // open in Perfetto
 *     std::ofstream mf("metrics.csv");
 *     session.writeMetricsCsv(mf);  // Figs. 2/10-style series
 *
 * A null session pointer anywhere means "tracing off"; every hook in
 * the simulator is then one pointer test, and reported cycle counts
 * are bit-identical with and without a session attached (tracing
 * observes, never schedules).
 *
 * The session must outlive the Gpu/components registered into its
 * registry; exported data (ring events, metric rows) are value
 * copies and remain valid afterwards.
 */

#ifndef COOPRT_TRACE_SESSION_HPP
#define COOPRT_TRACE_SESSION_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "trace/chrome_trace.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/registry.hpp"

namespace cooprt::trace {

/** What a session collects. */
struct SessionOptions
{
    /** Record structured events into the ring buffer. */
    bool events = false;
    /** Take periodic registry snapshots (CSV time-series). */
    bool metrics = false;
    /** Ring capacity in events (~48 B each). */
    std::size_t ring_capacity = Tracer::kDefaultCapacity;
    /**
     * Unused: metric rows are taken on the GPU's activity-sampling
     * boundaries (`GpuConfig::sample_interval`). Kept only for
     * callers that still assign it.
     */
    std::uint64_t metrics_interval = 500;
    /**
     * Filter (see nameMatchesFilter) applied to exported events and
     * to metric columns, e.g. "rtunit.*" or "mem.l2.*,rtunit.sm0.*".
     */
    std::string filter;
};

/** Per-run collection totals, surfaced in `core::RunOutcome`. */
struct RunTraceSummary
{
    bool enabled = false;
    std::uint64_t events_recorded = 0;
    std::uint64_t events_dropped = 0;
    std::uint64_t metric_samples = 0;
    std::uint64_t registered_metrics = 0;
};

class Session
{
  public:
    explicit Session(const SessionOptions &options = {});

    const SessionOptions &options() const { return options_; }

    Registry &registry() { return registry_; }
    const Registry &registry() const { return registry_; }

    /** Null when `options.events` is off. */
    Tracer *tracer() { return tracer_.get(); }
    const Tracer *tracer() const { return tracer_.get(); }

    /** Null when `options.metrics` is off. */
    MetricsSampler *metrics() { return metrics_.get(); }
    const MetricsSampler *metrics() const { return metrics_.get(); }

    RunTraceSummary summary() const;

    /** Chrome trace JSON; no-op when events are off. */
    void writeTrace(std::ostream &os) const;
    /** Metrics CSV; no-op when metrics are off. */
    void writeMetricsCsv(std::ostream &os) const;

    /** Drop collected data (start of a new run on a reused session). */
    void resetData();

    /** Stamp the run identity (called by `Simulation::run`); emitted
     *  as a leading `#` comment by writeMetricsCsv. Metadata only —
     *  does not touch collected data and survives resetData(). */
    void setRunKey(const RunKeyFields &key) { run_key_ = key; }
    const RunKeyFields &runKey() const { return run_key_; }

  private:
    SessionOptions options_;
    Registry registry_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<MetricsSampler> metrics_;
    RunKeyFields run_key_;
};

} // namespace cooprt::trace

#endif // COOPRT_TRACE_SESSION_HPP
