#include "core/observers.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "core/report.hpp"

namespace cooprt::core {

ObserverSet::ObserverSet(ObserverRequest request, RunConfig &config)
    : sinks_(std::move(request.sinks)), session_([&] {
          trace::SessionOptions &so = request.trace;
          so.events = so.events || !sinks_.trace.empty();
          so.metrics = so.metrics || !sinks_.metrics.empty();
          return so;
      }()),
      ray_(request.ray)
{
    const SinkPaths &s = sinks_;
    if (session_.options().events || session_.options().metrics)
        config.trace_session = &session_;
    if (request.profiler || !s.prof_folded.empty() ||
        !s.prof_json.empty())
        config.profiler = &profiler_;
    if (request.ray_recorder || !s.raystats.empty())
        config.ray_recorder = &ray_;
    if (request.memscope || !s.memscope_json.empty() ||
        !s.memscope_folded.empty())
        config.memscope = &memscope_;
    if (request.telemetry || !s.telemetry.empty())
        config.telemetry = &telemetry_;
}

void
ObserverSet::writeSinks(const RunOutcome &out, std::ostream *log)
{
    // A non-empty path implies its observer ran.
    const SinkPaths &s = sinks_;
    const std::string &scene = out.scene;
    auto write = [log](const std::string &path, const char *what,
                       auto &&writer) {
        if (path.empty())
            return;
        std::ofstream os(path);
        if (!os)
            throw std::runtime_error("cannot open " + path + " for " +
                                     what);
        writer(os);
        if (log != nullptr)
            *log << "[trace] wrote " << what << " to " << path << "\n";
    };
    const double report_t0 = telemetry::monotonicSeconds();
    write(s.trace, "chrome trace",
          [&](std::ostream &os) { session_.writeTrace(os); });
    write(s.metrics, "metrics csv",
          [&](std::ostream &os) { session_.writeMetricsCsv(os); });
    write(s.prof_folded, "folded profile",
          [&](std::ostream &os) { profiler_.writeFolded(os, scene); });
    write(s.prof_json, "json profile",
          [&](std::ostream &os) { profiler_.writeJson(os, scene); });
    const bool csv = s.raystats.ends_with(".csv");
    write(s.raystats, csv ? "ray stats csv" : "ray stats json",
          [&](std::ostream &os) {
              if (csv)
                  ray_.writeRayStatsCsv(os);
              else
                  ray_.writeRayStatsJson(os, scene);
          });
    write(s.memscope_folded, "folded memscope stacks",
          [&](std::ostream &os) { memscope_.writeFolded(os, scene); });
    write(s.memscope_json, "json memscope profile",
          [&](std::ostream &os) {
              memscope_.writeJson(os, scene);
              os << '\n';
          });
    write(s.report, "run report",
          [&](std::ostream &os) { writeJson(os, out); });
    // Written last, so the sink carries the report phase it closes
    // (recorded into an unattached recorder, it goes nowhere).
    telemetry_.recordPhase(telemetry::Phase::Report,
                           telemetry::monotonicSeconds() - report_t0);
    write(s.telemetry, "telemetry json",
          [&](std::ostream &os) { telemetry_.writeJson(os, scene); });
}

} // namespace cooprt::core
