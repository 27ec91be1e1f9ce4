/**
 * @file
 * The full memory hierarchy of Fig. 3: per-SM L1 data caches, a
 * crossbar to a banked shared L2, and multi-channel DRAM.
 */

#ifndef COOPRT_MEM_MEMORY_SYSTEM_HPP
#define COOPRT_MEM_MEMORY_SYSTEM_HPP

#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "memscope/memscope.hpp"

namespace cooprt::mem {

/** Configuration of the whole hierarchy (Table 1 defaults). */
struct MemConfig
{
    int num_sms = 30;
    CacheConfig l1{64 * 1024, 0, 128, 20};       // fully assoc, 20 cyc
    CacheConfig l2{3 * 1024 * 1024, 16, 128, 160}; // 16-way, 160 cyc
    /**
     * L1 sector size in bytes (0 = unsectored). When sectored, a
     * demand fetch fills only the touched 32 B sectors of a line,
     * GPGPU-Sim style; the L2 below stays line-based.
     */
    std::uint32_t l1_sector_bytes = 0;
    /** Number of L2 banks (one per memory sub-partition). */
    std::uint32_t l2_banks = 12;
    /** L2 bank service bandwidth, bytes per core cycle. */
    double l2_bytes_per_cycle = 32.0;
    DramConfig dram;
};

/** Aggregate traffic counters for bandwidth figures. */
struct MemSystemStats
{
    /** Bytes crossing L2 <-> interconnect (paper Fig. 12 left). */
    std::uint64_t l2_bytes = 0;
    /** Busy cycles summed over L2 banks. */
    std::uint64_t l2_busy_cycles = 0;
};

/**
 * The memory system. One instance is shared by all SMs of a GPU; the
 * per-SM L1s live inside. All methods are event-driven: they return
 * data-ready cycles and never block.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemConfig &config);
    ~MemorySystem();

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    const MemConfig &config() const { return cfg_; }

    /**
     * Register the hierarchy's counters into @p registry: aggregate
     * L1 probes under `mem.l1.*`, per-SM L1s under `mem.l1.sm<i>.*`,
     * the L2 under `mem.l2.*`, DRAM under `mem.dram.*` and the
     * interconnect under `mem.xbar.*`. Idempotent (re-registration
     * overwrites); registrations are dropped in the destructor, so
     * the registry must outlive this object.
     */
    void registerMetrics(cooprt::trace::Registry &registry);

    /**
     * Fetch @p bytes at @p addr on behalf of SM @p sm at cycle
     * @p now. The request is split into cache lines; the returned
     * cycle is when the last line has arrived at the SM.
     */
    std::uint64_t fetch(int sm, std::uint64_t addr, std::uint32_t bytes,
                        std::uint64_t now);

    /**
     * Level that served the most recent fetch(): 0 = L1 hit, 1 = L2
     * (including L1 MSHR merges, which ride an L2 fill already in
     * flight), 2 = DRAM. A multi-line fetch reports its deepest
     * line. Maintained unconditionally (plain stores, no timing
     * effect); the profiler reads it right after each RT-unit issue
     * to attribute response-starved cycles (prof::MemLevel).
     */
    int lastFetchDepth() const { return last_depth_; }

    /**
     * Attach (or detach with nullptr) a memscope collector: fetch()
     * then touches the per-L1 / L2 reuse scopes, feeds the DRAM scope
     * and records per-line serving levels, L2 fill bytes and bank
     * contention into the collector. Observation only; in check
     * builds every fetch re-audits the traffic-conservation identity
     * against the `cache.*` / DRAM counters while attached.
     */
    void attachMemscope(cooprt::memscope::Collector *collector)
    { mscope_ = collector; }

    const CacheStats &l1Stats(int sm) const { return l1_[sm]->stats(); }
    /** L1 stats aggregated over all SMs. */
    CacheStats l1StatsTotal() const;
    const CacheStats &l2Stats() const { return l2_.stats(); }
    const DramStats &dramStats() const { return dram_.stats(); }
    const MemSystemStats &stats() const { return stats_; }
    std::uint32_t dramChannels() const
    { return dram_.config().channels; }

    void reset();

    /**
     * Restart clocks and statistics while keeping cache contents
     * warm (multi-pass schedulers).
     */
    void resetTiming();

  private:
    /**
     * @p bytes of one line through the banked L2 (and DRAM below).
     * @p depth_out is raised to the level that served the line
     * (1 = L2, 2 = DRAM).
     */
    std::uint64_t l2Access(std::uint64_t line, std::uint32_t bytes,
                           std::uint64_t now, int &depth_out);

    MemConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1_;
    Cache l2_;
    Dram dram_;
    std::vector<std::uint64_t> bank_free_;
    MemSystemStats stats_;
    cooprt::trace::Registry *metrics_registry_ = nullptr;
    int last_depth_ = 0; ///< serving level of the last fetch()
    /** Borrowed memscope collector; null = profiling off. */
    cooprt::memscope::Collector *mscope_ = nullptr;
};

} // namespace cooprt::mem

#endif // COOPRT_MEM_MEMORY_SYSTEM_HPP
