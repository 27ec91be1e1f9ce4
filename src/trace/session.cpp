#include "trace/session.hpp"

#include <ostream>

namespace cooprt::trace {

Session::Session(const SessionOptions &options) : options_(options)
{
    if (options_.events) {
        tracer_ = std::make_unique<Tracer>(options_.ring_capacity);
        tracer_->setFilter(options_.filter);
    }
    if (options_.metrics)
        metrics_ = std::make_unique<MetricsSampler>(&registry_,
                                                    options_.filter);
}

RunTraceSummary
Session::summary() const
{
    RunTraceSummary s;
    s.enabled = true;
    if (tracer_) {
        s.events_recorded = tracer_->recorded();
        s.events_dropped = tracer_->dropped();
    }
    if (metrics_)
        s.metric_samples = metrics_->sampleCount();
    s.registered_metrics = registry_.size();
    return s;
}

void
Session::writeTrace(std::ostream &os) const
{
    if (tracer_)
        tracer_->writeJson(os);
}

void
Session::writeMetricsCsv(std::ostream &os) const
{
    if (metrics_) {
        if (run_key_.valid())
            os << runKeyCsvComment(run_key_);
        metrics_->writeCsv(os);
    }
}

void
Session::resetData()
{
    if (tracer_) {
        tracer_->clear();
        tracer_->setFilter(options_.filter);
    }
    if (metrics_)
        metrics_->reset();
}

} // namespace cooprt::trace
