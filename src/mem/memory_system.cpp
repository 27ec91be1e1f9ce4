#include "mem/memory_system.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cooprt::mem {

MemorySystem::MemorySystem(const MemConfig &config)
    : cfg_(config), l2_(config.l2), dram_(config.dram),
      bank_free_(config.l2_banks, 0)
{
    if (cfg_.num_sms <= 0)
        throw std::invalid_argument("MemConfig.num_sms must be > 0");
    if (cfg_.l1.line_bytes != cfg_.l2.line_bytes)
        throw std::invalid_argument(
            "L1 and L2 line sizes must match (shared line index)");
    if (cfg_.l1_sector_bytes != 0)
        cfg_.l1.sector_bytes = cfg_.l1_sector_bytes;
    if (cfg_.l1.sector_bytes != 0 &&
        (cfg_.l1.line_bytes % cfg_.l1.sector_bytes != 0 ||
         cfg_.l1.line_bytes / cfg_.l1.sector_bytes > 32))
        throw std::invalid_argument(
            "L1 sector size must divide the line into <= 32 sectors");
    l1_.reserve(std::size_t(cfg_.num_sms));
    for (int i = 0; i < cfg_.num_sms; ++i)
        l1_.push_back(std::make_unique<Cache>(cfg_.l1));
#if COOPRT_CHECK_ENABLED
    for (int i = 0; i < cfg_.num_sms; ++i)
        l1_[std::size_t(i)]->setCheckLabel("mem.l1.sm" +
                                           std::to_string(i));
    l2_.setCheckLabel("mem.l2");
#endif
}

MemorySystem::~MemorySystem()
{
    if (metrics_registry_ != nullptr)
        metrics_registry_->unregisterOwner(this);
}

void
MemorySystem::registerMetrics(cooprt::trace::Registry &registry)
{
    metrics_registry_ = &registry;

    // Aggregate L1 probes (what the paper's Fig. 16 reports) plus
    // the per-SM breakdown; the filter decides what a consumer sees.
    auto agg = [this](std::uint64_t CacheStats::*field) {
        return [this, field] {
            return double(l1StatsTotal().*field);
        };
    };
    registry.probe("mem.l1.accesses", agg(&CacheStats::accesses),
                   this);
    registry.probe("mem.l1.hits", agg(&CacheStats::hits), this);
    registry.probe("mem.l1.misses", agg(&CacheStats::misses), this);
    registry.probe("mem.l1.mshr_merges",
                   agg(&CacheStats::mshr_merges), this);
    registry.probe("mem.l1.miss_rate",
                   [this] { return l1StatsTotal().missRate(); },
                   this);
    for (std::size_t i = 0; i < l1_.size(); ++i)
        l1_[i]->registerMetrics(
            registry, "mem.l1.sm" + std::to_string(i), this);

    l2_.registerMetrics(registry, "mem.l2", this);
    registry.probe("mem.l2.bytes",
                   [this] { return double(stats_.l2_bytes); }, this);
    registry.probe("mem.l2.busy_cycles",
                   [this] { return double(stats_.l2_busy_cycles); },
                   this);

    const DramStats *d = &dram_.stats();
    registry.probe("mem.dram.requests",
                   [d] { return double(d->requests); }, this);
    registry.probe("mem.dram.bytes",
                   [d] { return double(d->bytes); }, this);
    registry.probe("mem.dram.busy_cycles",
                   [d] { return double(d->busy_cycles); }, this);

    registry.probe("mem.mshr_live",
                   [this] {
                       std::size_t live = l2_.mshrLive();
                       for (const auto &l1 : l1_)
                           live += l1->mshrLive();
                       return double(live);
                   },
                   this);
}

std::uint64_t
MemorySystem::l2Access(std::uint64_t line, std::uint32_t bytes,
                       std::uint64_t now, int &depth_out)
{
    if (depth_out < 1)
        depth_out = 1; // served by the L2 (or deeper, below)
    // Bank queueing: the line's bank must be free to serve it. Only
    // the requested bytes (the missing sectors) cross the
    // interconnect.
    const std::uint32_t bank = std::uint32_t(line % cfg_.l2_banks);
    const std::uint64_t service = std::uint64_t(
        double(bytes) / cfg_.l2_bytes_per_cycle + 0.999999);
    const std::uint64_t start =
        bank_free_[bank] > now ? bank_free_[bank] : now;
    if (mscope_ != nullptr) {
        memscope::MemTraffic &t = mscope_->traffic();
        t.l2_fill_bytes += bytes;
        t.bank_requests++;
        if (bank_free_[bank] > now) {
            t.bank_conflicts++;
            t.bank_wait_cycles += bank_free_[bank] - now;
        }
        mscope_->l2Scope().touch(line, l2_.setOf(line));
    }
    COOPRT_CHECK_ONLY(const std::uint64_t prev_free =
                          bank_free_[bank];)
    bank_free_[bank] = start + service;
    if (COOPRT_MUTATE(L2BankTimeTravel))
        bank_free_[bank] = now; // bank forgets its queued work
    // A bank only ever books time forward: the new free cycle is
    // strictly past both the request and the previous booking.
    COOPRT_AUDIT("mem.xbar", "mem.l2_bank_monotone", now,
                 bank_free_[bank] > now &&
                     bank_free_[bank] > prev_free,
                 "bank " + std::to_string(bank) + " free " +
                     std::to_string(prev_free) + " -> " +
                     std::to_string(bank_free_[bank]));
    stats_.l2_busy_cycles += service;
    stats_.l2_bytes += bytes;

    return l2_.access(line, start,
                      [this, &depth_out](std::uint64_t l,
                                         std::uint64_t t) {
                          depth_out = 2;
                          const std::uint64_t a = l * cfg_.l2.line_bytes;
                          if (mscope_ != nullptr)
                              mscope_->dram().onAccess(
                                  a, cfg_.l2.line_bytes,
                                  dram_.channelOf(a));
                          return dram_.access(a, cfg_.l2.line_bytes, t);
                      });
}

std::uint64_t
MemorySystem::fetch(int sm, std::uint64_t addr, std::uint32_t bytes,
                    std::uint64_t now)
{
    if (sm < 0 || sm >= cfg_.num_sms)
        throw std::out_of_range("MemorySystem::fetch bad sm index");
    if (bytes == 0)
        return now;

    Cache &l1 = *l1_[sm];
    const std::uint32_t line_bytes = cfg_.l1.line_bytes;
    const std::uint64_t first = addr / line_bytes;
    const std::uint64_t last = (addr + bytes - 1) / line_bytes;
    const std::uint32_t sector =
        cfg_.l1.sector_bytes ? cfg_.l1.sector_bytes : line_bytes;

    std::uint64_t ready = now;
    last_depth_ = 0;
    for (std::uint64_t line = first; line <= last; ++line) {
        // Byte range of the request inside this line.
        const std::uint64_t lo =
            std::max<std::uint64_t>(addr, line * line_bytes);
        const std::uint64_t hi = std::min<std::uint64_t>(
            addr + bytes, (line + 1) * line_bytes);
        const std::uint32_t mask =
            l1.sectorMaskOf(lo, std::uint32_t(hi - lo));
        const std::uint64_t merges_before = l1.stats().mshr_merges;
        int line_depth = 0; // serving level of this line (0 = L1 hit)
        if (mscope_ != nullptr)
            mscope_->l1Scope(sm).touch(line, l1.setOf(line));
        const std::uint64_t r = l1.access(
            line, mask, now,
            [this, sector, &line_depth](std::uint64_t l,
                                        std::uint32_t missing,
                                        std::uint64_t t) {
                const std::uint32_t fill_bytes =
                    std::uint32_t(std::popcount(missing)) * sector;
                return l2Access(l, fill_bytes, t, line_depth);
            });
        // An MSHR merge rides an in-flight L2 fill without invoking
        // the fill callback; attribute it to the L2.
        if (l1.stats().mshr_merges != merges_before &&
            line_depth < 1)
            line_depth = 1;
        if (line_depth > last_depth_)
            last_depth_ = line_depth; // a fetch reports its deepest line
        if (mscope_ != nullptr &&
            !COOPRT_MUTATE(MemscopeMisattribution))
            mscope_->traffic().line_level[std::size_t(line_depth)]++;
        if (r > ready)
            ready = r;
    }
#if COOPRT_CHECK_ENABLED
    if (mscope_ != nullptr) {
        // Conservation: fetch() is the single choke point every access
        // crosses, so the profiled per-level line counts and byte
        // totals must tie out exactly against the pre-existing
        // counters after every request, and each reuse / row-locality
        // scope fed here must have seen every access of its level.
        const CacheStats l1t = l1StatsTotal();
        const memscope::MemTraffic &t = mscope_->trafficConst();
        const memscope::DramScope &ds = mscope_->dramConst();
        std::uint64_t l1_cold = 0, l1_touched = 0;
        std::array<std::uint64_t, memscope::kReuseBuckets> hist;
        mscope_->l1ReuseTotals(l1_cold, l1_touched, hist);
        const std::uint64_t l2_touched =
            mscope_->l2ScopeConst().accesses();
        COOPRT_AUDIT(
            "mem", "memscope.traffic_conservation", now,
            t.lineTotal() == l1t.accesses &&
                t.line_level[0] == l1t.hits &&
                t.l2_fill_bytes == stats_.l2_bytes &&
                ds.bytes == dram_.stats().bytes &&
                l1_touched == l1t.accesses &&
                l2_touched == l2_.stats().accesses &&
                ds.requests == dram_.stats().requests,
            "lines " + std::to_string(t.lineTotal()) + "/" +
                std::to_string(l1t.accesses) + " l1-hit " +
                std::to_string(t.line_level[0]) + "/" +
                std::to_string(l1t.hits) + " l2B " +
                std::to_string(t.l2_fill_bytes) + "/" +
                std::to_string(stats_.l2_bytes) + " dramB " +
                std::to_string(ds.bytes) + "/" +
                std::to_string(dram_.stats().bytes) + " l1-reuse " +
                std::to_string(l1_touched) + "/" +
                std::to_string(l1t.accesses) + " l2-reuse " +
                std::to_string(l2_touched) + "/" +
                std::to_string(l2_.stats().accesses) + " dram-req " +
                std::to_string(ds.requests) + "/" +
                std::to_string(dram_.stats().requests));
    }
#endif
    return ready;
}

CacheStats
MemorySystem::l1StatsTotal() const
{
    CacheStats total;
    for (const auto &c : l1_) {
        total.accesses += c->stats().accesses;
        total.hits += c->stats().hits;
        total.misses += c->stats().misses;
        total.mshr_merges += c->stats().mshr_merges;
    }
    return total;
}

void
MemorySystem::resetTiming()
{
    for (auto &c : l1_)
        c->resetTiming();
    l2_.resetTiming();
    dram_.resetTiming();
    for (auto &b : bank_free_)
        b = 0;
    stats_ = MemSystemStats{};
}

void
MemorySystem::reset()
{
    for (auto &c : l1_)
        c->reset();
    l2_.reset();
    dram_.reset();
    for (auto &b : bank_free_)
        b = 0;
    stats_ = MemSystemStats{};
}

} // namespace cooprt::mem
