/**
 * @file
 * Set-associative / fully-associative LRU cache timing model with
 * MSHR-style miss coalescing.
 *
 * Matches Table 1 of the paper: the L1 data cache is 64 KB fully
 * associative LRU with 20-cycle latency; the L2 is 3 MB 16-way LRU
 * with 160-cycle latency.
 *
 * The model is event-driven: `access()` returns the cycle at which
 * the requested line is available, and updates tag state immediately.
 * Outstanding misses are tracked per line so that secondary misses to
 * an in-flight line merge onto the same fill (no duplicate downstream
 * traffic), which is where ray coherence shows up in bandwidth.
 *
 * All state lives in fixed-shape flat arrays, the way hardware builds
 * tag stores and MSHR files: one `set * ways + way` slot per line
 * (tag, resident-sector mask, doubly linked LRU order as `uint32`
 * slot links), a small open-addressed line index for sets too wide to
 * scan, and one open-addressed MSHR table keyed by line.
 */

#ifndef COOPRT_MEM_CACHE_HPP
#define COOPRT_MEM_CACHE_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "trace/registry.hpp"

namespace cooprt::mem {

/** Cache geometry and timing. */
struct CacheConfig
{
    std::uint64_t size_bytes = 64 * 1024;
    /** Associativity; 0 means fully associative. */
    std::uint32_t assoc = 0;
    std::uint32_t line_bytes = 128;
    /** Hit latency in core cycles. */
    std::uint32_t latency = 20;
    /**
     * Sector size in bytes; 0 disables sectoring. GPGPU-Sim-style
     * sectored caches fill only the touched 32 B sectors of a line
     * (the paper's memory access queue "breaks the requests into
     * small chunks"): an access to an untouched sector of a resident
     * line is a *sector miss* — it fetches just that sector from the
     * next level.
     */
    std::uint32_t sector_bytes = 0;
};

/** Counters for one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    /** Primary misses: caused a downstream fetch. */
    std::uint64_t misses = 0;
    /** Secondary misses merged onto an outstanding fill. */
    std::uint64_t mshr_merges = 0;
    /** Sector misses: line resident but the sector was not (counted
     *  within `misses` as well; sectored configs only). */
    std::uint64_t sector_misses = 0;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : double(misses + mshr_merges) / double(accesses);
    }
};

/**
 * One cache level. The downstream level is invoked through a callback
 * so L1 -> L2 -> DRAM stacks compose without virtual dispatch in the
 * hot path.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    /** One in-flight MSHR fill, snapshot form. */
    struct MshrEntry
    {
        std::uint64_t line;    ///< line address
        std::uint64_t ready;   ///< cycle the fill completes
        std::uint32_t sectors; ///< sectors being filled
    };

    /**
     * Snapshot of the in-flight fills, sorted by line address. The
     * MSHR table is open-addressed, so its slot order follows the
     * line hash and the table's growth history; anything that emits,
     * audits or compares in-flight state must go through this
     * accessor — slot order is not part of the simulator's
     * deterministic surface.
     */
    std::vector<MshrEntry> outstandingLines() const;

    /** Live MSHR entries (completed-but-uncompacted fills count). */
    std::size_t mshrLive() const { return mshr_count_; }

    /** Component path reported by COOPRT_CHECK audits ("mem.l1.sm0",
     *  "mem.l2", ...). No-op in default builds. */
    void
    setCheckLabel(const std::string &label)
    {
#if COOPRT_CHECK_ENABLED
        check_label_ = label;
#else
        (void)label;
#endif
    }

    /**
     * Register this cache's counters into @p registry as probes
     * under `<prefix>.accesses`, `.hits`, `.misses`, `.mshr_merges`,
     * `.sector_misses` and `.miss_rate`. @p owner tags the
     * registrations for `Registry::unregisterOwner` (the owning
     * hierarchy unregisters, since it controls this cache's
     * lifetime).
     */
    void registerMetrics(cooprt::trace::Registry &registry,
                         const std::string &prefix,
                         const void *owner) const;

    std::uint64_t lineOf(std::uint64_t addr) const
    { return addr / cfg_.line_bytes; }

    /** Set @p line maps to. */
    std::uint32_t
    setOf(std::uint64_t line) const
    {
        return set_mask_ != kNil ? std::uint32_t(line) & set_mask_
                                 : std::uint32_t(line % num_sets_);
    }

    /** All-sectors mask for this cache's geometry. */
    std::uint32_t
    fullSectorMask() const
    {
        if (cfg_.sector_bytes == 0)
            return 1u;
        const std::uint32_t n = cfg_.line_bytes / cfg_.sector_bytes;
        return n >= 32 ? 0xffffffffu : (1u << n) - 1u;
    }

    /** Sector mask touched by [addr, addr+bytes) within its line. */
    std::uint32_t
    sectorMaskOf(std::uint64_t addr, std::uint32_t bytes) const
    {
        if (cfg_.sector_bytes == 0)
            return 1u;
        const std::uint64_t off = addr % cfg_.line_bytes;
        const std::uint32_t first =
            std::uint32_t(off / cfg_.sector_bytes);
        const std::uint32_t last = std::uint32_t(
            (off + (bytes ? bytes - 1 : 0)) / cfg_.sector_bytes);
        std::uint32_t mask = 0;
        for (std::uint32_t s = first;
             s <= last && s * cfg_.sector_bytes < cfg_.line_bytes; ++s)
            mask |= (1u << s);
        return mask;
    }

    /**
     * Access sectors of one line.
     *
     * @param line       Line index (addr / line_bytes).
     * @param sectors    Sector mask needed (use fullSectorMask() /
     *                   sectorMaskOf(); ignored when unsectored).
     * @param now        Request cycle.
     * @param fetchBelow Callback `(line, missing_sectors, cycle) ->
     *                   ready_cycle` invoked on a miss to fetch the
     *                   missing sectors from the next level.
     * @return Cycle at which the requested data is available here.
     */
    template <typename FetchFn>
    std::uint64_t
    access(std::uint64_t line, std::uint32_t sectors,
           std::uint64_t now, FetchFn fetchBelow)
    {
        stats_.accesses++;
        const std::uint32_t set = setOf(line);
        if (cfg_.sector_bytes == 0)
            sectors = 1u;
        // Every access touches a resident line to MRU, merge or not.
        const std::uint32_t slot = findSlot(set, line);
        if (slot != kNil)
            touch(set, slot);
        // Outstanding fill covering all needed sectors? Merge (MSHR
        // secondary miss) and wait for the in-flight data; checked
        // before the tag state because the line and its sector bits
        // are installed at miss time.
        const std::uint32_t bucket = probeMshr(line);
        Mshr *mshr = mshr_[bucket].used != 0 ? &mshr_[bucket] : nullptr;
        if (mshr != nullptr && mshr->ready > now &&
            (sectors & ~mshr->sectors) == 0) {
            stats_.mshr_merges++;
            COOPRT_CHECK_ONLY(auditInvariants(line, now);)
            return mshr->ready;
        }
        const std::uint32_t resident =
            slot != kNil ? slot_[slot].sectors : 0;
        std::uint32_t missing = sectors & ~resident;
        if (resident != 0 && missing == 0) {
            stats_.hits += COOPRT_MUTATE(CacheHitMiscount) ? 2 : 1;
            COOPRT_CHECK_ONLY(auditInvariants(line, now);)
            return now + cfg_.latency;
        }
        stats_.misses++;
        if (resident != 0)
            stats_.sector_misses++;
        // fetchBelow reaches the next level only, never this cache,
        // so `slot` and `mshr` stay valid across the call.
        const std::uint64_t ready =
            fetchBelow(line, missing ? missing : sectors,
                       now + cfg_.latency);
        Mshr &fill =
            mshr != nullptr ? *mshr : insertMshr(bucket, line);
        if (fill.ready <= now)
            fill.sectors = 0;
        fill.ready = std::max(fill.ready, ready);
        fill.sectors |= sectors;
        if (slot != kNil)
            slot_[slot].sectors |= sectors;
        else
            insert(set, line, sectors);
        // Drop completed fills occasionally so the MSHR table stays
        // small. The rule is part of the model: on the L2, whose
        // `now` is a bank-local start and not monotone, it changes
        // which fills a later access still merges into.
        if (mshr_count_ >= 4096 && now - last_compact_ >= 10000)
            compactMshrs(now);
        COOPRT_CHECK_ONLY(auditInvariants(line, now);)
        return ready;
    }

    /** Backward-compatible whole-line access. */
    template <typename FetchFn>
    std::uint64_t
    access(std::uint64_t line, std::uint64_t now, FetchFn fetchBelow)
    {
        return access(line, fullSectorMask(), now,
                      [&](std::uint64_t l, std::uint32_t,
                          std::uint64_t t) { return fetchBelow(l, t); });
    }

    /** True when @p line currently resides in the cache. */
    bool contains(std::uint64_t line) const;

    /** Invalidate everything (tests/start of run). */
    void reset();

    /**
     * Reset timing state (in-flight fills, whose ready times are in
     * absolute cycles) and statistics, but keep the cached tags —
     * used when a new pass restarts the clock on a warm machine.
     */
    void resetTiming();

  private:
#if COOPRT_CHECK_ENABLED
    /**
     * Per-access audit: counter conservation plus LRU/tag-lookup
     * consistency of the set @p line maps to (DESIGN.md catalogue).
     */
    void auditInvariants(std::uint64_t line, std::uint64_t now) const;
#endif

    /** No slot / empty index bucket / end of an LRU list. */
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /** Sets with more ways than this find lines through index_. */
    static constexpr std::uint32_t kMaxScanWays = 32;

    /** Per-line state, slot = set * ways + way. */
    struct Slot
    {
        std::uint32_t sectors = 0; ///< resident-sector mask
        std::uint32_t prev = kNil; ///< toward MRU
        std::uint32_t next = kNil; ///< toward LRU
    };
    /** Per-set LRU ends; ways [0, fill) hold lines. */
    struct SetLru
    {
        std::uint32_t head = kNil; ///< MRU slot
        std::uint32_t tail = kNil; ///< LRU slot (next victim)
        std::uint32_t fill = 0;
    };
    /** In-flight fill of one line: ready cycle + sectors filling. */
    struct Mshr
    {
        std::uint64_t line = 0;
        std::uint64_t ready = 0;
        std::uint32_t sectors = 0;
        std::uint32_t used = 0; ///< 0 = empty bucket
    };

    /** Fibonacci hash of @p line into `64 - shift` bits. */
    static std::uint32_t
    hashLine(std::uint64_t line, std::uint32_t shift)
    {
        return std::uint32_t((line * 0x9e3779b97f4a7c15ull) >> shift);
    }

    /** Slot of resident @p line in @p set, or kNil. */
    std::uint32_t
    findSlot(std::uint32_t set, std::uint64_t line) const
    {
        if (index_.empty()) {
            const std::uint32_t base = set * ways_;
            const std::uint64_t *tags = tag_.data() + base;
            const std::uint32_t fill = sets_[set].fill;
            for (std::uint32_t w = 0; w < fill; ++w)
                if (tags[w] == line)
                    return base + w;
            return kNil;
        }
        for (std::uint32_t i = hashLine(line, index_shift_);;
             i = (i + 1) & index_mask_) {
            const std::uint32_t s = index_[i];
            if (s == kNil || tag_[s] == line)
                return s;
        }
    }

    /** Move @p slot of @p set to the MRU end. */
    void
    touch(std::uint32_t set, std::uint32_t slot)
    {
        SetLru &s = sets_[set];
        if (s.head == slot)
            return;
        unlink(s, slot);
        pushFront(s, slot);
    }

    void
    unlink(SetLru &s, std::uint32_t slot)
    {
        const Slot &x = slot_[slot];
        if (x.prev != kNil)
            slot_[x.prev].next = x.next;
        else
            s.head = x.next;
        if (x.next != kNil)
            slot_[x.next].prev = x.prev;
        else
            s.tail = x.prev;
    }

    void
    pushFront(SetLru &s, std::uint32_t slot)
    {
        slot_[slot].prev = kNil;
        slot_[slot].next = s.head;
        if (s.head != kNil)
            slot_[s.head].prev = slot;
        else
            s.tail = slot;
        s.head = slot;
    }

    /** Install absent @p line at the MRU end, evicting the LRU line
     *  of a full set. */
    void insert(std::uint32_t set, std::uint64_t line,
                std::uint32_t sectors);
    void indexInsert(std::uint32_t slot);
    void indexErase(std::uint32_t slot);

    /** Bucket holding @p line, else the empty bucket ending its
     *  probe run. */
    std::uint32_t
    probeMshr(std::uint64_t line) const
    {
        std::uint32_t i = hashLine(line, mshr_shift_);
        while (mshr_[i].used != 0 && mshr_[i].line != line)
            i = (i + 1) & mshr_mask_;
        return i;
    }

    /** New zeroed entry for absent @p line in the empty @p bucket
     *  probeMshr() returned (grows past three-quarters load). */
    Mshr &insertMshr(std::uint32_t bucket, std::uint64_t line);
    /** Place @p m in its first free bucket (no growth check). */
    Mshr &placeMshr(const Mshr &m);
    void resizeMshrs(std::size_t buckets);
    /** Erase every fill with `ready <= now`; restart the interval. */
    void compactMshrs(std::uint64_t now);
    void clearMshrs();

    CacheConfig cfg_;
    CacheStats stats_;
    std::uint32_t num_sets_;
    /** num_sets_ - 1 when a power of two (set = line & mask), else
     *  kNil (set = line % num_sets_). */
    std::uint32_t set_mask_;
    std::uint32_t ways_;

    std::vector<std::uint64_t> tag_; ///< line held by each slot
    std::vector<Slot> slot_;
    std::vector<SetLru> sets_;
    /**
     * Open-addressed (linear probing) line -> slot index over the
     * whole cache, used when ways > kMaxScanWays; empty otherwise.
     * At most half full, so probes stay short.
     */
    std::vector<std::uint32_t> index_;
    std::uint32_t index_shift_ = 0;
    std::uint32_t index_mask_ = 0;

    /**
     * Open-addressed (linear probing) MSHR table, at most three
     * quarters full: denser than index_ because it holds thousands of
     * entries per cache, so its size sets the L1s' memory footprint.
     * Entries leave only through compactMshrs() and resets.
     */
    std::vector<Mshr> mshr_;
    std::uint32_t mshr_shift_ = 0;
    std::uint32_t mshr_mask_ = 0;
    std::size_t mshr_count_ = 0;
    std::uint64_t last_compact_ = 0;

#if COOPRT_CHECK_ENABLED
    std::string check_label_ = "mem.cache";
#endif
};

} // namespace cooprt::mem

#endif // COOPRT_MEM_CACHE_HPP
