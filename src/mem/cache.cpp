#include "mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cooprt::mem {

void
Cache::registerMetrics(cooprt::trace::Registry &registry,
                       const std::string &prefix,
                       const void *owner) const
{
    const CacheStats *s = &stats_;
    auto add = [&](const char *name, const std::uint64_t *src) {
        registry.probe(prefix + "." + name,
                       [src] { return double(*src); }, owner);
    };
    add("accesses", &s->accesses);
    add("hits", &s->hits);
    add("misses", &s->misses);
    add("mshr_merges", &s->mshr_merges);
    add("sector_misses", &s->sector_misses);
    registry.probe(prefix + ".miss_rate",
                   [s] { return s->missRate(); }, owner);
    registry.probe(prefix + ".mshr_live",
                   [this] { return double(mshr_count_); }, owner);
}

std::vector<Cache::MshrEntry>
Cache::outstandingLines() const
{
    std::vector<MshrEntry> out;
    out.reserve(mshr_count_);
    for (const Mshr &m : mshr_)
        if (m.used != 0)
            out.push_back({m.line, m.ready, m.sectors});
    std::sort(out.begin(), out.end(),
              [](const MshrEntry &a, const MshrEntry &b) {
                  return a.line < b.line;
              });
    return out;
}

Cache::Cache(const CacheConfig &config) : cfg_(config)
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
    if (ways_ == 0)
        throw std::invalid_argument("cache must hold at least one line");
    set_mask_ = std::has_single_bit(num_sets_) ? num_sets_ - 1 : kNil;
    const std::size_t slots = std::size_t(num_sets_) * ways_;
    tag_.assign(slots, 0);
    slot_.assign(slots, Slot{});
    sets_.assign(num_sets_, SetLru{});
    if (ways_ > kMaxScanWays) {
        index_.assign(std::bit_ceil(2 * slots), kNil); // <= 1/2 full
        index_shift_ =
            64 - std::uint32_t(std::countr_zero(index_.size()));
        index_mask_ = std::uint32_t(index_.size() - 1);
    }
    resizeMshrs(64);
}

bool
Cache::contains(std::uint64_t line) const
{
    return findSlot(setOf(line), line) != kNil;
}

void
Cache::insert(std::uint32_t set, std::uint64_t line,
              std::uint32_t sectors)
{
    SetLru &s = sets_[set];
    std::uint32_t slot;
    if (s.fill < ways_) {
        slot = set * ways_ + s.fill++;
    } else {
        slot = s.tail; // evict the LRU line, reuse its slot
        unlink(s, slot);
        if (!index_.empty() && !COOPRT_MUTATE(StaleLineIndex))
            indexErase(slot);
    }
    tag_[slot] = line;
    slot_[slot].sectors = sectors;
    pushFront(s, slot);
    if (!index_.empty())
        indexInsert(slot);
}

void
Cache::indexInsert(std::uint32_t slot)
{
    std::uint32_t i = hashLine(tag_[slot], index_shift_);
    while (index_[i] != kNil)
        i = (i + 1) & index_mask_;
    index_[i] = slot;
}

void
Cache::indexErase(std::uint32_t slot)
{
    std::uint32_t hole = hashLine(tag_[slot], index_shift_);
    while (index_[hole] != slot)
        hole = (hole + 1) & index_mask_;
    // Backward-shift deletion: pull later entries of the probe run
    // into the hole unless that would move one before its home.
    for (std::uint32_t j = (hole + 1) & index_mask_;
         index_[j] != kNil; j = (j + 1) & index_mask_) {
        const std::uint32_t home =
            hashLine(tag_[index_[j]], index_shift_);
        if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = kNil;
}

Cache::Mshr &
Cache::insertMshr(std::uint32_t bucket, std::uint64_t line)
{
    mshr_count_++;
    Mshr m;
    m.line = line;
    m.used = 1;
    if (4 * mshr_count_ > 3 * mshr_.size()) {
        resizeMshrs(2 * mshr_.size());
        return placeMshr(m);
    }
    mshr_[bucket] = m;
    return mshr_[bucket];
}

Cache::Mshr &
Cache::placeMshr(const Mshr &m)
{
    std::uint32_t i = hashLine(m.line, mshr_shift_);
    while (mshr_[i].used != 0)
        i = (i + 1) & mshr_mask_;
    mshr_[i] = m;
    return mshr_[i];
}

void
Cache::resizeMshrs(std::size_t buckets)
{
    std::vector<Mshr> old(buckets);
    old.swap(mshr_);
    mshr_shift_ = 64 - std::uint32_t(std::countr_zero(buckets));
    mshr_mask_ = std::uint32_t(buckets - 1);
    for (const Mshr &m : old)
        if (m.used != 0)
            placeMshr(m);
}

void
Cache::compactMshrs(std::uint64_t now)
{
    last_compact_ = now;
    std::vector<Mshr> live;
    for (const Mshr &m : mshr_)
        if (m.used != 0 && m.ready > now)
            live.push_back(m);
    clearMshrs();
    for (const Mshr &m : live)
        placeMshr(m);
    mshr_count_ = live.size();
}

void
Cache::clearMshrs()
{
    std::fill(mshr_.begin(), mshr_.end(), Mshr{});
    mshr_count_ = 0;
}

#if COOPRT_CHECK_ENABLED
void
Cache::auditInvariants(std::uint64_t line, std::uint64_t now) const
{
    // Every access is classified exactly once.
    COOPRT_AUDIT(check_label_, "mem.cache_access_conservation", now,
                 stats_.accesses ==
                     stats_.hits + stats_.misses + stats_.mshr_merges,
                 "accesses=" + std::to_string(stats_.accesses) +
                     " hits=" + std::to_string(stats_.hits) +
                     " misses=" + std::to_string(stats_.misses) +
                     " mshr_merges=" +
                     std::to_string(stats_.mshr_merges));
    COOPRT_AUDIT(check_label_, "mem.cache_access_conservation", now,
                 stats_.sector_misses <= stats_.misses,
                 "sector_misses=" +
                     std::to_string(stats_.sector_misses) +
                     " > misses=" + std::to_string(stats_.misses));

    // Walking the touched set's LRU list from MRU to LRU visits
    // exactly its `fill` slots, each back-linked to its predecessor
    // and found again by the tag lookup (index or set scan).
    const std::uint32_t set = setOf(line);
    const SetLru &s = sets_[set];
    const std::uint32_t base = set * ways_;
    std::uint32_t len = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t slot = s.head; slot != kNil && len <= s.fill;
         slot = slot_[slot].next, ++len) {
        const bool in_set = slot >= base && slot - base < ways_;
        COOPRT_AUDIT(check_label_, "mem.cache_lru_consistent", now,
                     in_set && slot_[slot].prev == prev &&
                         findSlot(set, tag_[slot]) == slot,
                     "set " + std::to_string(set) + " slot " +
                         std::to_string(slot) + " (line " +
                         std::to_string(in_set ? tag_[slot] : 0) +
                         ") is not linked or found back");
        if (!in_set)
            return;
        prev = slot;
    }
    COOPRT_AUDIT(check_label_, "mem.cache_lru_consistent", now,
                 len == s.fill && s.tail == prev && s.fill <= ways_,
                 "set " + std::to_string(set) + " lru=" +
                     std::to_string(len) + " fill=" +
                     std::to_string(s.fill) + " ways=" +
                     std::to_string(ways_));
    // The index holds one entry per resident line, no stale ones.
    if (!index_.empty()) {
        std::size_t resident = 0;
        for (const SetLru &x : sets_)
            resident += x.fill;
        const std::size_t entries = std::size_t(
            std::count_if(index_.begin(), index_.end(),
                          [](std::uint32_t e) { return e != kNil; }));
        COOPRT_AUDIT(check_label_, "mem.cache_lru_consistent", now,
                     entries == resident,
                     "index holds " + std::to_string(entries) +
                         " entries for " + std::to_string(resident) +
                         " resident lines");
    }
}
#endif // COOPRT_CHECK_ENABLED

void
Cache::resetTiming()
{
    clearMshrs();
    last_compact_ = 0;
    stats_ = CacheStats{};
}

void
Cache::reset()
{
    std::fill(sets_.begin(), sets_.end(), SetLru{});
    std::fill(index_.begin(), index_.end(), kNil);
    clearMshrs();
    stats_ = CacheStats{};
}

} // namespace cooprt::mem
