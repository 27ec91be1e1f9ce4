#include "memscope/memscope.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <ostream>

#include "trace/json.hpp"

namespace cooprt::memscope {

namespace {

constexpr std::array<const char *, kNumLevels> kLevelNames = {
    "l1", "l2", "dram"};

constexpr std::array<const char *, kNumPhases> kPhaseNames = {
    "ramp", "traverse", "drain"};

/** Reuse-distance bucket of distance @p d: bit_width, clamped. */
int
bucketOf(std::uint64_t d)
{
    const int b = std::bit_width(d);
    return b >= kReuseBuckets ? kReuseBuckets - 1 : b;
}

void
writeLevels(std::ostream &os,
            const std::array<std::uint64_t, kNumLevels> &level)
{
    for (int l = 0; l < kNumLevels; ++l)
        os << ',' << trace::quoteJson(kLevelNames[std::size_t(l)])
           << ':' << level[std::size_t(l)];
}

void
writeReuse(std::ostream &os, std::uint64_t cold,
           std::uint64_t tracked,
           const std::array<std::uint64_t, kReuseBuckets> &hist)
{
    os << "{\"cold\":" << cold << ",\"tracked\":" << tracked
       << ",\"hist\":[";
    for (int b = 0; b < kReuseBuckets; ++b) {
        if (b)
            os << ',';
        os << hist[std::size_t(b)];
    }
    os << "]}";
}

} // namespace

void
UnitScope::record(std::uint32_t node_id, int depth, int level,
                  int lanes, int phase, std::uint32_t fetch_bytes)
{
    accesses++;
    bytes += fetch_bytes;
    owner_->record(node_id, depth, level, lanes, phase, fetch_bytes);
}

void
UnitScope::onFetch(const rtunit::FetchEvent &f, std::uint64_t)
{
    record(f.node_id, f.depth, int(f.level), std::popcount(f.consumers),
           int(f.phase), f.bytes);
}

std::uint32_t
CacheScope::prefix(std::uint32_t p) const
{
    std::uint32_t s = 0;
    for (std::uint32_t i = p; i > 0; i -= i & (~i + 1))
        s += fen_[i - 1];
    return s;
}

void
CacheScope::add(std::uint32_t pos, std::uint32_t delta)
{
    // Unsigned wrap-around makes a delta of ~0u an exact decrement.
    for (std::size_t i = std::size_t(pos) + 1; i <= fen_.size();
         i += i & (~i + 1))
        fen_[i - 1] += delta;
}

std::size_t
CacheScope::find(std::uint64_t line) const
{
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = std::size_t((line * 0x9e3779b97f4a7c15ull) >>
                                     shift_);
         ; i = (i + 1) & mask) {
        const Entry &e = table_[i];
        if (e.pos == kNone || e.line == line)
            return i;
    }
}

void
CacheScope::grow()
{
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.empty() ? 1024 : old.size() * 2, Entry{});
    shift_ = 64 - std::uint32_t(std::countr_zero(table_.size()));
    for (const Entry &e : old) {
        if (e.pos == kNone)
            continue;
        const std::size_t s = find(e.line);
        table_[s] = e;
        owner_[e.pos] = std::uint32_t(s);
    }
}

void
CacheScope::compact()
{
    // Distances count present positions only, so renumbering them in
    // order keeps every distance.
    std::uint32_t live = 0;
    for (std::uint32_t p = 0; p < now_; ++p) {
        const std::uint32_t s = owner_[p];
        if (s == kNone)
            continue;
        table_[s].pos = live;
        owner_[live++] = s;
    }
    const std::size_t size =
        std::max<std::size_t>(1024, 2 * std::size_t(live));
    owner_.resize(size);
    std::fill(owner_.begin() + live, owner_.end(), kNone);
    // Node i (1-based) sums positions (i - lowbit(i), i], of which
    // the first `live` are present.
    fen_.resize(size);
    for (std::size_t i = 1; i <= size; ++i) {
        const std::size_t lo =
            std::min<std::size_t>(i - (i & (~i + 1)), live);
        fen_[i - 1] = std::uint32_t(std::min<std::size_t>(i, live) - lo);
    }
    now_ = live;
}

void
CacheScope::touch(std::uint64_t line, std::uint32_t set)
{
    accesses_++;
    if (set >= set_accesses_.size())
        set_accesses_.resize(std::size_t(set) + 1, 0);
    set_accesses_[set]++;

    if (now_ == owner_.size())
        compact();
    if (2 * (std::size_t(lines_) + 1) > table_.size())
        grow();
    const std::size_t s = find(line);
    Entry &e = table_[s];
    if (e.pos == kNone) {
        cold_++;
        e.line = line;
        lines_++;
    } else {
        // Stack distance: distinct lines touched since the previous
        // access to this line == present positions after it.
        hist_[std::size_t(bucketOf(lines_ - prefix(e.pos + 1)))]++;
        owner_[e.pos] = kNone;
        add(e.pos, ~0u);
    }
    e.pos = now_;
    owner_[now_] = std::uint32_t(s);
    add(now_, 1);
    now_++;
}

std::uint64_t
CacheScope::maxSetAccesses() const
{
    std::uint64_t best = 0;
    for (const std::uint64_t n : set_accesses_)
        best = std::max(best, n);
    return best;
}

std::size_t
CacheScope::setsTouched() const
{
    std::size_t n = 0;
    for (const std::uint64_t a : set_accesses_)
        n += a != 0;
    return n;
}

void
CacheScope::reset()
{
    table_.clear();
    shift_ = 64;
    lines_ = 0;
    owner_.clear();
    fen_.clear();
    now_ = 0;
    accesses_ = 0;
    cold_ = 0;
    hist_.fill(0);
    set_accesses_.clear();
}

void
DramScope::onAccess(std::uint64_t addr, std::uint32_t access_bytes,
                    std::uint32_t channel)
{
    if (channel >= last_row_.size())
        last_row_.resize(std::size_t(channel) + 1, -1);
    const std::int64_t row = std::int64_t(addr / row_bytes);
    if (last_row_[channel] == row)
        row_hits++;
    else
        row_misses++;
    last_row_[channel] = row;
    requests++;
    bytes += access_bytes;
}

void
DramScope::reset()
{
    requests = 0;
    bytes = 0;
    row_hits = 0;
    row_misses = 0;
    last_row_.clear();
}

Collector::~Collector()
{
    if (registry_ != nullptr)
        registry_->unregisterOwner(this);
}

UnitScope &
Collector::unit(int sm_id)
{
    while (int(units_.size()) <= sm_id)
        units_.push_back(std::make_unique<UnitScope>(*this));
    return *units_[std::size_t(sm_id)];
}

CacheScope &
Collector::l1Scope(int sm_id)
{
    while (int(l1_scopes_.size()) <= sm_id)
        l1_scopes_.push_back(std::make_unique<CacheScope>());
    return *l1_scopes_[std::size_t(sm_id)];
}

void
Collector::record(std::uint32_t node_id, int depth, int level,
                  int lanes, int phase, std::uint32_t fetch_bytes)
{
    if (node_id >= nodes_.size())
        nodes_.resize(std::size_t(node_id) + 1);
    if (std::size_t(depth) >= depths_.size())
        depths_.resize(std::size_t(depth) + 1);

    for (NodeCounters *c : {&nodes_[node_id], &totals_}) {
        c->accesses++;
        c->bytes += fetch_bytes;
        c->lanes += std::uint64_t(lanes);
        c->level[std::size_t(level)]++;
    }
    nodes_[node_id].depth = std::uint16_t(depth);

    DepthCounters &d = depths_[std::size_t(depth)];
    d.accesses++;
    d.bytes += fetch_bytes;
    d.lanes += std::uint64_t(lanes);
    d.level[std::size_t(level)]++;
    d.phase[std::size_t(phase)]++;
}

void
Collector::reset()
{
    nodes_.clear();
    depths_.clear();
    totals_ = NodeCounters{};
    for (auto &u : units_)
        u->reset();
    for (auto &s : l1_scopes_)
        s->reset();
    l2_scope_.reset();
    traffic_.reset();
    dram_.reset();
}

std::vector<HotNode>
Collector::hotNodes(std::size_t k) const
{
    std::vector<HotNode> hot;
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].accesses != 0)
            hot.push_back(HotNode{std::uint32_t(i),
                                  int(nodes_[i].depth), nodes_[i]});
    std::sort(hot.begin(), hot.end(),
              [](const HotNode &a, const HotNode &b) {
                  if (a.c.accesses != b.c.accesses)
                      return a.c.accesses > b.c.accesses;
                  return a.node < b.node;
              });
    if (hot.size() > k)
        hot.resize(k);
    return hot;
}

void
Collector::l1ReuseTotals(
    std::uint64_t &cold, std::uint64_t &tracked,
    std::array<std::uint64_t, kReuseBuckets> &hist) const
{
    cold = 0;
    tracked = 0;
    hist.fill(0);
    for (const auto &s : l1_scopes_) {
        cold += s->cold();
        tracked += s->accesses();
        for (int b = 0; b < kReuseBuckets; ++b)
            hist[std::size_t(b)] += s->hist()[std::size_t(b)];
    }
}

Summary
Collector::summary() const
{
    Summary s;
    s.enabled = true;
    s.node_accesses = totals_.accesses;
    s.node_bytes = totals_.bytes;
    s.node_lanes = totals_.lanes;
    s.node_level = totals_.level;
    for (std::size_t d = 0; d < depths_.size(); ++d) {
        if (depths_[d].accesses == 0)
            continue;
        Summary::DepthRow row;
        row.depth = int(d);
        row.accesses = depths_[d].accesses;
        row.bytes = depths_[d].bytes;
        row.lanes = depths_[d].lanes;
        row.level = depths_[d].level;
        s.depths.push_back(row);
    }
    s.traffic = traffic_;
    s.dram_row_hits = dram_.row_hits;
    s.dram_row_misses = dram_.row_misses;
    std::array<std::uint64_t, kReuseBuckets> hist;
    l1ReuseTotals(s.l1_reuse_cold, s.l1_reuse_tracked, hist);
    s.l2_reuse_cold = l2_scope_.cold();
    s.l2_reuse_tracked = l2_scope_.accesses();
    return s;
}

void
Collector::registerMetrics(cooprt::trace::Registry &registry)
{
    registry_ = &registry;
    for (std::size_t i = 0; i < units_.size(); ++i) {
        const UnitScope *u = units_[i].get();
        const std::string p =
            "memscope.sm" + std::to_string(i) + ".";
        registry.probe(p + "node_accesses",
                       [u] { return double(u->accesses); }, this);
        registry.probe(p + "node_bytes",
                       [u] { return double(u->bytes); }, this);
    }
    const NodeCounters *t = &totals_;
    registry.probe("memscope.gpu.node_accesses",
                   [t] { return double(t->accesses); }, this);
    registry.probe("memscope.gpu.node_bytes",
                   [t] { return double(t->bytes); }, this);
    registry.probe("memscope.gpu.lanes",
                   [t] { return double(t->lanes); }, this);
    for (int l = 0; l < kNumLevels; ++l)
        registry.probe(std::string("memscope.gpu.level_") +
                           kLevelNames[std::size_t(l)],
                       [t, l] { return double(t->level[std::size_t(l)]); },
                       this);

    const MemTraffic *mt = &traffic_;
    registry.probe("memscope.mem.line_l1",
                   [mt] { return double(mt->line_level[0]); }, this);
    registry.probe("memscope.mem.line_l2",
                   [mt] { return double(mt->line_level[1]); }, this);
    registry.probe("memscope.mem.line_dram",
                   [mt] { return double(mt->line_level[2]); }, this);
    registry.probe("memscope.mem.l2_fill_bytes",
                   [mt] { return double(mt->l2_fill_bytes); }, this);
    registry.probe("memscope.mem.bank_requests",
                   [mt] { return double(mt->bank_requests); }, this);
    registry.probe("memscope.mem.bank_conflicts",
                   [mt] { return double(mt->bank_conflicts); }, this);
    registry.probe("memscope.mem.bank_wait_cycles",
                   [mt] { return double(mt->bank_wait_cycles); },
                   this);

    const DramScope *ds = &dram_;
    registry.probe("memscope.dram.requests",
                   [ds] { return double(ds->requests); }, this);
    registry.probe("memscope.dram.bytes",
                   [ds] { return double(ds->bytes); }, this);
    registry.probe("memscope.dram.row_hits",
                   [ds] { return double(ds->row_hits); }, this);
    registry.probe("memscope.dram.row_misses",
                   [ds] { return double(ds->row_misses); }, this);

    registry.probe("memscope.l1.reuse_cold",
                   [this] {
                       std::uint64_t c = 0;
                       for (const auto &s : l1_scopes_)
                           c += s->cold();
                       return double(c);
                   },
                   this);
    registry.probe("memscope.l1.reuse_tracked",
                   [this] {
                       std::uint64_t a = 0;
                       for (const auto &s : l1_scopes_)
                           a += s->accesses();
                       return double(a);
                   },
                   this);
    registry.probe("memscope.l2.reuse_cold",
                   [this] { return double(l2_scope_.cold()); }, this);
    registry.probe("memscope.l2.reuse_tracked",
                   [this] { return double(l2_scope_.accesses()); },
                   this);
}

void
Collector::writeJson(std::ostream &os,
                     const std::string &scene) const
{
    const NodeCounters &t = totals_;
    os << "{\"schema_version\":" << trace::kSchemaVersion;
    if (run_key_.valid())
        os << ",\"run_key\":" << trace::runKeyJson(run_key_);
    os << ",\"scene\":" << trace::quoteJson(scene)
       << ",\"nodes\":{\"accesses\":" << t.accesses
       << ",\"bytes\":" << t.bytes << ",\"lanes\":" << t.lanes
       << ",\"levels\":{";
    for (int l = 0; l < kNumLevels; ++l) {
        if (l)
            os << ',';
        os << trace::quoteJson(kLevelNames[std::size_t(l)]) << ':'
           << t.level[std::size_t(l)];
    }
    os << "}},\"depths\":[";
    bool first = true;
    for (std::size_t d = 0; d < depths_.size(); ++d) {
        const DepthCounters &row = depths_[d];
        if (row.accesses == 0)
            continue;
        if (!first)
            os << ',';
        first = false;
        os << "{\"depth\":" << d << ",\"accesses\":" << row.accesses
           << ",\"bytes\":" << row.bytes << ",\"lanes\":" << row.lanes;
        writeLevels(os, row.level);
        os << ",\"phases\":{";
        for (int p = 0; p < kNumPhases; ++p) {
            if (p)
                os << ',';
            os << trace::quoteJson(kPhaseNames[std::size_t(p)]) << ':'
               << row.phase[std::size_t(p)];
        }
        os << "}}";
    }
    os << "],\"hot_nodes\":[";
    const std::vector<HotNode> hot = hotNodes(32);
    for (std::size_t i = 0; i < hot.size(); ++i) {
        if (i)
            os << ',';
        os << "{\"node\":" << hot[i].node
           << ",\"depth\":" << hot[i].depth
           << ",\"accesses\":" << hot[i].c.accesses
           << ",\"bytes\":" << hot[i].c.bytes
           << ",\"lanes\":" << hot[i].c.lanes;
        writeLevels(os, hot[i].c.level);
        os << '}';
    }
    os << "],\"reuse\":{\"l1\":";
    std::uint64_t cold, tracked;
    std::array<std::uint64_t, kReuseBuckets> hist;
    l1ReuseTotals(cold, tracked, hist);
    writeReuse(os, cold, tracked, hist);
    os << ",\"l2\":";
    writeReuse(os, l2_scope_.cold(), l2_scope_.accesses(),
               l2_scope_.hist());
    os << ",\"l2_sets_touched\":" << l2_scope_.setsTouched()
       << ",\"l2_set_max_accesses\":" << l2_scope_.maxSetAccesses()
       << "},\"mem\":{\"line_l1\":" << traffic_.line_level[0]
       << ",\"line_l2\":" << traffic_.line_level[1]
       << ",\"line_dram\":" << traffic_.line_level[2]
       << ",\"l2_fill_bytes\":" << traffic_.l2_fill_bytes
       << ",\"bank_requests\":" << traffic_.bank_requests
       << ",\"bank_conflicts\":" << traffic_.bank_conflicts
       << ",\"bank_wait_cycles\":" << traffic_.bank_wait_cycles
       << "},\"dram\":{\"requests\":" << dram_.requests
       << ",\"bytes\":" << dram_.bytes
       << ",\"row_hits\":" << dram_.row_hits
       << ",\"row_misses\":" << dram_.row_misses << "},\"units\":[";
    for (std::size_t i = 0; i < units_.size(); ++i) {
        if (i)
            os << ',';
        os << "{\"sm\":" << i
           << ",\"accesses\":" << units_[i]->accesses
           << ",\"bytes\":" << units_[i]->bytes << '}';
    }
    os << "]}";
}

void
Collector::writeFolded(std::ostream &os,
                       const std::string &scene) const
{
    // Emit in (depth, node id) order so the file is byte-identical
    // however many workers produced the data.
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].accesses != 0)
            ids.push_back(std::uint32_t(i));
    std::sort(ids.begin(), ids.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (nodes_[a].depth != nodes_[b].depth)
                      return nodes_[a].depth < nodes_[b].depth;
                  return a < b;
              });
    for (const std::uint32_t id : ids)
        os << scene << ";depth" << nodes_[id].depth << ";node" << id
           << ' ' << nodes_[id].accesses << '\n';
}

void
Collector::writeHotNodes(std::ostream &os, std::size_t k) const
{
    const std::vector<HotNode> hot = hotNodes(k);
    os << "      node  depth      fetches        bytes    l1-served"
          "  avg-lanes\n";
    for (const HotNode &h : hot) {
        const double l1 =
            h.c.accesses
                ? 100.0 * double(h.c.level[0]) / double(h.c.accesses)
                : 0.0;
        const double lanes =
            h.c.accesses ? double(h.c.lanes) / double(h.c.accesses)
                         : 0.0;
        os << std::setw(10) << h.node << "  " << std::setw(5)
           << h.depth << "  " << std::setw(11) << h.c.accesses
           << "  " << std::setw(11) << h.c.bytes << "  "
           << std::setw(10) << std::fixed << std::setprecision(1)
           << l1 << "%  " << std::setw(9) << std::setprecision(2)
           << lanes << '\n';
    }
    os.unsetf(std::ios::fixed);
}

} // namespace cooprt::memscope
