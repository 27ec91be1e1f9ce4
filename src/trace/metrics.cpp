#include "trace/metrics.hpp"

#include <charconv>
#include <ostream>

#include "check/check.hpp"

namespace cooprt::trace {

MetricsSampler::MetricsSampler(const Registry *registry,
                               std::string filter)
    : registry_(registry), filter_(std::move(filter))
{
}

void
MetricsSampler::sample(std::uint64_t cycle)
{
    // The first row fixes the columns; late registrations (which
    // would misalign the rows) are dropped. Each column is bound to
    // its probe once, and again only when registrations change.
    if (columns_.empty())
        columns_ = registry_->names(filter_);
    if (bound_.size() != columns_.size() ||
        bound_generation_ != registry_->generation()) {
        bound_.clear();
        for (const std::string &name : columns_)
            bound_.push_back(registry_->find(name));
        bound_generation_ = registry_->generation();
    }
    std::vector<double> row;
    row.reserve(bound_.size());
    for (const Registry::Probe *p : bound_)
        row.push_back(p != nullptr && *p ? (*p)() : 0.0);
    std::uint64_t recorded = cycle;
    if (!cycles_.empty() && COOPRT_MUTATE(MetricsCycleRepeat))
        recorded = cycles_.back(); // the sampler's clock stalls
    cycles_.push_back(recorded);
    rows_.push_back(std::move(row));
    // Rows advance strictly in time.
    COOPRT_AUDIT("trace.metrics", "trace.metrics_monotone", cycle,
                 cycles_.size() < 2 ||
                     cycles_[cycles_.size() - 1] >
                         cycles_[cycles_.size() - 2],
                 "sample row " +
                     std::to_string(cycles_.size() - 1) +
                     " at cycle " + std::to_string(cycles_.back()) +
                     " does not advance past the previous row");
}

std::vector<double>
MetricsSampler::seriesOf(const std::string &name) const
{
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (columns_[c] != name)
            continue;
        std::vector<double> out;
        out.reserve(rows_.size());
        for (const auto &row : rows_)
            out.push_back(row[c]);
        return out;
    }
    return {};
}

void
MetricsSampler::writeCsv(std::ostream &os) const
{
    os << "cycle";
    for (const auto &c : columns_)
        os << ',' << c;
    os << '\n';
    // %g at 6 significant digits, the default `ostream << double`
    // format; each row goes out as one buffered line.
    std::string line;
    char buf[32];
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        line.clear();
        line.append(buf, std::to_chars(buf, buf + sizeof buf,
                                       cycles_[r]).ptr);
        for (const double v : rows_[r]) {
            line += ',';
            line.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                           std::chars_format::general,
                                           6).ptr);
        }
        line += '\n';
        os.write(line.data(), std::streamsize(line.size()));
    }
}

void
MetricsSampler::reset()
{
    columns_.clear();
    bound_.clear();
    cycles_.clear();
    rows_.clear();
}

} // namespace cooprt::trace
