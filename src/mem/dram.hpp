/**
 * @file
 * DRAM timing model: multiple channels, each with a fixed access
 * latency and a finite transfer bandwidth. Bandwidth contention is
 * the first-order effect behind the paper's Figs. 12 and 18.
 */

#ifndef COOPRT_MEM_DRAM_HPP
#define COOPRT_MEM_DRAM_HPP

#include <cstdint>
#include <vector>

namespace cooprt::mem {

/** DRAM geometry and timing (in core-clock cycles). */
struct DramConfig
{
    /** Number of independent channels (RTX 2060: 6; mobile: 4). */
    std::uint32_t channels = 6;
    /** Access latency (row activate + CAS), core cycles. */
    std::uint32_t latency = 220;
    /**
     * Transfer bandwidth per channel in bytes per core cycle.
     * RTX 2060: 336 GB/s total at 1.365 GHz core clock ~= 246 B/cyc,
     * i.e. ~41 B/cyc per channel.
     */
    double bytes_per_cycle = 41.0;
    /** Channel interleave granularity in bytes. */
    std::uint32_t interleave_bytes = 256;
};

/** Counters for the DRAM model. */
struct DramStats
{
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    /** Sum over channels of cycles spent transferring data. */
    std::uint64_t busy_cycles = 0;

    /** Utilization in [0, 1] over @p elapsed cycles and @p channels. */
    double
    utilization(std::uint64_t elapsed, std::uint32_t channels) const
    {
        const double denom = double(elapsed) * double(channels);
        return denom <= 0.0 ? 0.0 : double(busy_cycles) / denom;
    }
};

/**
 * The DRAM device. `access()` returns the completion cycle of a read,
 * modeling per-channel queueing: a request must wait for its channel
 * to finish earlier transfers.
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &config)
        : cfg_(config), next_free_(config.channels, 0)
    {}

    const DramConfig &config() const { return cfg_; }
    const DramStats &stats() const { return stats_; }

    /** Channel servicing @p addr. */
    std::uint32_t
    channelOf(std::uint64_t addr) const
    {
        return std::uint32_t((addr / cfg_.interleave_bytes) %
                             cfg_.channels);
    }

    /**
     * Read @p bytes at @p addr issued at cycle @p now; returns the
     * cycle at which the data has fully arrived.
     */
    std::uint64_t
    access(std::uint64_t addr, std::uint32_t bytes, std::uint64_t now)
    {
        const std::uint32_t ch = channelOf(addr);
        const std::uint64_t transfer = std::uint64_t(
            double(bytes) / cfg_.bytes_per_cycle + 0.999999);
        const std::uint64_t start =
            next_free_[ch] > now ? next_free_[ch] : now;
        next_free_[ch] = start + transfer;
        stats_.requests++;
        stats_.bytes += bytes;
        stats_.busy_cycles += transfer;
        return start + cfg_.latency + transfer;
    }

    void
    reset()
    {
        stats_ = DramStats{};
        for (auto &c : next_free_)
            c = 0;
    }

    /** DRAM has no contents to keep; identical to reset(). */
    void resetTiming() { reset(); }

  private:
    DramConfig cfg_;
    DramStats stats_;
    std::vector<std::uint64_t> next_free_;
};

} // namespace cooprt::mem

#endif // COOPRT_MEM_DRAM_HPP
