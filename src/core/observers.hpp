/**
 * @file
 * One run's observers, from request to sinks: builds the trace
 * session, profiler, ray recorder, memscope collector and telemetry
 * recorder a frontend asks for, attaches them to a RunConfig and
 * writes their sink files after the run.
 */

#ifndef COOPRT_CORE_OBSERVERS_HPP
#define COOPRT_CORE_OBSERVERS_HPP

#include <iosfwd>
#include <string>

#include "core/simulation.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"

namespace cooprt::core {

/** Where one run's sinks go; an empty path writes nothing. */
struct SinkPaths
{
    std::string trace;           ///< Chrome trace_event JSON
    std::string metrics;         ///< sampled metric time series, CSV
    std::string prof_folded;     ///< folded stall stacks
    std::string prof_json;       ///< hierarchical stall profile
    std::string raystats;        ///< per-ray stats; CSV if "*.csv"
    std::string memscope_json;   ///< hierarchical memscope profile
    std::string memscope_folded; ///< folded node-fetch stacks
    std::string telemetry;       ///< per-run host telemetry JSON
    std::string report;          ///< run report (core::writeJson)
};

/** The observers one run attaches. A sink path implies the observer
 *  that writes it (trace → events, metrics → metric sampling). */
struct ObserverRequest
{
    /** Metric rows follow the run's GPU sample_interval. */
    trace::SessionOptions trace;
    bool profiler = false;
    bool ray_recorder = false;
    bool memscope = false;
    bool telemetry = false;
    raytrace::RecorderConfig ray;
    SinkPaths sinks;
};

class ObserverSet
{
  public:
    /** Build the requested observers and point @p config's observer
     *  slots at them (unrequested slots stay as they are). */
    ObserverSet(ObserverRequest request, RunConfig &config);

    ObserverSet(const ObserverSet &) = delete;
    ObserverSet &operator=(const ObserverSet &) = delete;

    /**
     * Write the requested sinks of the finished run @p out: the
     * others first, timed as telemetry's `report` phase, then the
     * telemetry sink. Notes each file on @p log when given; throws
     * std::runtime_error naming the path of a file it cannot open.
     */
    void writeSinks(const RunOutcome &out, std::ostream *log = nullptr);

  private:
    // Every observer exists (idle ones cost nothing); only requested
    // ones are attached. The session's registry outlives the others.
    SinkPaths sinks_;
    trace::Session session_;
    prof::Profiler profiler_;
    raytrace::Recorder ray_;
    memscope::Collector memscope_;
    telemetry::Recorder telemetry_;
};

} // namespace cooprt::core

#endif // COOPRT_CORE_OBSERVERS_HPP
