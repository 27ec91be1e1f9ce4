/**
 * @file
 * Test-only reference model of `mem::Cache`: the original node-based
 * layout (a `std::list` LRU plus an `unordered_map` tag map per set,
 * and an `unordered_map` MSHR table). Its timing, LRU order and MSHR
 * compaction rule are what the flat cache must reproduce bit for bit;
 * test_cache_differential.cpp drives both with the same seeded
 * streams. Observers (memscope, metrics, audits) are left out.
 */

#ifndef COOPRT_TESTS_MEM_REFERENCE_CACHE_HPP
#define COOPRT_TESTS_MEM_REFERENCE_CACHE_HPP

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "mem/cache.hpp"

namespace cooprt::mem::testref {

class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config) : cfg_(config)
    {
        const std::uint64_t lines = cfg_.size_bytes / cfg_.line_bytes;
        if (cfg_.assoc == 0) {
            num_sets_ = 1;
            ways_ = std::uint32_t(lines);
        } else {
            ways_ = cfg_.assoc;
            num_sets_ = std::uint32_t(lines / cfg_.assoc);
            if (num_sets_ == 0)
                num_sets_ = 1;
        }
        sets_.resize(num_sets_);
    }

    const CacheStats &stats() const { return stats_; }

    std::vector<Cache::MshrEntry>
    outstandingLines() const
    {
        std::vector<Cache::MshrEntry> out;
        // cooprt-lint: allow(nondeterministic-iteration) snapshot is
        // sorted immediately below; hash-order appends cannot leak out
        for (const auto &[line, mshr] : outstanding_)
            out.push_back({line, mshr.ready, mshr.sectors});
        std::sort(out.begin(), out.end(),
                  [](const Cache::MshrEntry &a,
                     const Cache::MshrEntry &b) {
                      return a.line < b.line;
                  });
        return out;
    }

    std::size_t mshrLive() const { return outstanding_.size(); }

    template <typename FetchFn>
    std::uint64_t
    access(std::uint64_t line, std::uint32_t sectors, std::uint64_t now,
           FetchFn fetchBelow)
    {
        stats_.accesses++;
        if (cfg_.sector_bytes == 0)
            sectors = 1u;
        auto mshr = outstanding_.find(line);
        if (mshr != outstanding_.end() && mshr->second.ready > now &&
            (sectors & ~mshr->second.sectors) == 0) {
            stats_.mshr_merges++;
            lookupAndTouch(line, 0);
            return mshr->second.ready;
        }
        const std::uint32_t resident = lookupAndTouch(line, 0);
        std::uint32_t missing = sectors & ~resident;
        if (resident != 0 && missing == 0) {
            stats_.hits++;
            return now + cfg_.latency;
        }
        stats_.misses++;
        if (resident != 0)
            stats_.sector_misses++;
        const std::uint64_t ready =
            fetchBelow(line, missing ? missing : sectors,
                       now + cfg_.latency);
        auto &slot = outstanding_[line];
        if (slot.ready <= now)
            slot.sectors = 0;
        slot.ready = std::max(slot.ready, ready);
        slot.sectors |= sectors;
        insert(line, sectors);
        maybeCompactOutstanding(now);
        return ready;
    }

    bool
    contains(std::uint64_t line) const
    {
        const Set &s = sets_[setOf(line)];
        return s.where.find(line) != s.where.end();
    }

    void
    reset()
    {
        for (auto &s : sets_) {
            s.lru.clear();
            s.where.clear();
        }
        outstanding_.clear();
        stats_ = CacheStats{};
    }

    void
    resetTiming()
    {
        outstanding_.clear();
        last_compact_ = 0;
        stats_ = CacheStats{};
    }

  private:
    std::uint32_t
    setOf(std::uint64_t line) const
    {
        return std::uint32_t(line % num_sets_);
    }

    std::uint32_t
    lookupAndTouch(std::uint64_t line, std::uint32_t add_sectors)
    {
        Set &s = sets_[setOf(line)];
        auto it = s.where.find(line);
        if (it == s.where.end())
            return 0;
        s.lru.splice(s.lru.begin(), s.lru, it->second.pos);
        it->second.sectors |= add_sectors;
        return it->second.sectors;
    }

    void
    insert(std::uint64_t line, std::uint32_t sectors)
    {
        Set &s = sets_[setOf(line)];
        auto it = s.where.find(line);
        if (it != s.where.end()) {
            it->second.sectors |= sectors;
            return;
        }
        if (s.lru.size() >= ways_) {
            s.where.erase(s.lru.back());
            s.lru.pop_back();
        }
        s.lru.push_front(line);
        s.where[line] = Way{s.lru.begin(), sectors};
    }

    void
    maybeCompactOutstanding(std::uint64_t now)
    {
        if (outstanding_.size() < 4096 || now - last_compact_ < 10000)
            return;
        last_compact_ = now;
        for (auto it = outstanding_.begin(); it != outstanding_.end();) {
            if (it->second.ready <= now)
                it = outstanding_.erase(it);
            else
                ++it;
        }
    }

    struct Way
    {
        std::list<std::uint64_t>::iterator pos;
        std::uint32_t sectors = 0;
    };
    struct Set
    {
        std::list<std::uint64_t> lru; // front = most recent
        std::unordered_map<std::uint64_t, Way> where;
    };
    struct Mshr
    {
        std::uint64_t ready = 0;
        std::uint32_t sectors = 0;
    };

    CacheConfig cfg_;
    CacheStats stats_;
    std::uint32_t num_sets_;
    std::uint32_t ways_;
    std::vector<Set> sets_;
    std::unordered_map<std::uint64_t, Mshr> outstanding_;
    std::uint64_t last_compact_ = 0;
};

} // namespace cooprt::mem::testref

#endif // COOPRT_TESTS_MEM_REFERENCE_CACHE_HPP
