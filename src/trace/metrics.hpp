/**
 * @file
 * Periodic registry snapshots — the generalization of
 * `stats::ActivitySampler` to *every* registered metric.
 *
 * The sampler keeps no clock of its own: the GPU main loop calls
 * sample() exactly when it samples the activity sampler (paper
 * Section 7.1's AerialVision-style 500-cycle sampling), so the
 * exported CSV time-series powers Figs. 2 / 10 / 11 from the same
 * data path. Rows are value copies: the CSV can be written after the
 * simulated machine (and its registered probes) is gone.
 */

#ifndef COOPRT_TRACE_METRICS_HPP
#define COOPRT_TRACE_METRICS_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/registry.hpp"

namespace cooprt::trace {

/**
 * Registry row store: one row of values per sample() call, taken on
 * the caller's boundaries. Rows must strictly advance in time.
 */
class MetricsSampler
{
  public:
    /**
     * @param registry Probe source; must outlive the sampler's
     *                 sample() calls (rows themselves are copies).
     * @param filter   Column filter (see nameMatchesFilter).
     */
    explicit MetricsSampler(const Registry *registry,
                            std::string filter = {});

    /** Read every column's probe as the row of @p cycle. */
    void sample(std::uint64_t cycle);

    std::size_t sampleCount() const { return cycles_.size(); }
    /** Column names, fixed at the first sample(). */
    const std::vector<std::string> &columns() const { return columns_; }
    std::uint64_t cycleAt(std::size_t row) const
    { return cycles_[row]; }
    double at(std::size_t row, std::size_t col) const
    { return rows_[row][col]; }

    /**
     * The full time series of one metric; empty when @p name is not
     * a column.
     */
    std::vector<double> seriesOf(const std::string &name) const;

    /**
     * Write `cycle,<name>,<name>,...` CSV. Metric names contain no
     * commas or quotes by construction, so no escaping is needed.
     */
    void writeCsv(std::ostream &os) const;

    /** Drop samples and columns. */
    void reset();

  private:
    const Registry *registry_;
    std::string filter_;
    std::vector<std::string> columns_;
    /** Each column's probe (null: not registered, reads 0), bound
     *  at registry generation bound_generation_. */
    std::vector<const Registry::Probe *> bound_;
    std::uint64_t bound_generation_ = 0;
    std::vector<std::uint64_t> cycles_;
    std::vector<std::vector<double>> rows_;
};

} // namespace cooprt::trace

#endif // COOPRT_TRACE_METRICS_HPP
