#include "query/query.hpp"

#include <algorithm>
#include <stdexcept>

namespace cooprt::query {

using geom::Pcg32;
using geom::Ray;
using geom::Vec3;
using rtunit::kWarpSize;

const char *
workloadName(Workload wl)
{
    switch (wl) {
    case Workload::Knn: return "knn";
    case Workload::Radius: return "radius";
    case Workload::Contain: return "contain";
    }
    return "?";
}

// --- ResultStore --------------------------------------------------

ResultStore::~ResultStore()
{
    if (registry_ != nullptr)
        registry_->unregisterOwner(this);
}

std::uint64_t
ResultStore::totalFound() const
{
    std::uint64_t n = 0;
    for (const auto &e : results_)
        n += e.count;
    return n;
}

std::uint64_t
ResultStore::totalRounds() const
{
    std::uint64_t n = 0;
    for (const auto &e : results_)
        n += e.rounds;
    return n;
}

std::uint64_t
ResultStore::checksum() const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const auto &e : results_)
        h = geom::mix64(h ^ e.hash ^
                        (std::uint64_t(e.count) << 32) ^ e.rounds);
    return h;
}

void
ResultStore::registerMetrics(trace::Registry &reg)
{
    registry_ = &reg;
    reg.probe("query.queries",
              [this] { return double(results_.size()); }, this);
    reg.probe("query.rounds",
              [this] { return double(totalRounds()); }, this);
    reg.probe("query.found",
              [this] { return double(totalFound()); }, this);
}

Summary
summarize(Workload wl, const ResultStore &store)
{
    Summary s;
    s.enabled = true;
    s.workload = workloadName(wl);
    s.queries = store.size();
    s.rounds = store.totalRounds();
    s.found = store.totalFound();
    s.checksum = store.checksum();
    return s;
}

// --- Query sample points ------------------------------------------

geom::AABB
queryDomain(const scene::Scene &scene)
{
    geom::AABB b = scene.mesh.bounds();
    if (scene.kind == scene::SceneKind::AmrCells) {
        // Stay strictly inside the grid: advectPoint clamps to the
        // same inset, so every locate step finds a cell.
        const Vec3 e = b.extent();
        return {b.lo + e * 0.004f, b.hi - e * 0.004f};
    }
    return b;
}

Vec3
queryPointFor(const geom::AABB &domain, std::uint64_t frame_seed,
              int id)
{
    // Same per-stream seeding idiom as the shader pixels, so query
    // ids decorrelate and the point set is a pure function of the
    // seed.
    Pcg32 rng(geom::mix64(std::uint64_t(id) * 69069u ^ frame_seed),
              std::uint64_t(id));
    return rng.nextInBox(domain.lo, domain.hi);
}

// --- The warp program ---------------------------------------------

namespace {

/**
 * One warp of up to 32 queries, all of the same workload. Each lane
 * runs its own refinement loop; the warp issues one TraceJob per
 * round covering every still-active lane (divergent lanes simply
 * stop contributing rays, the exact analogue of threads leaving the
 * bounce loop in Listing 1).
 */
class QueryProgram : public gpu::WarpProgram
{
  public:
    QueryProgram(Workload wl, ResultStore &store,
                 const geom::AABB &domain, int first_query, int total,
                 const QueryParams &params)
        : wl_(wl), store_(store), params_(params), domain_(domain)
    {
        for (int t = 0; t < kWarpSize; ++t) {
            const int id = first_query + t;
            if (id >= total)
                continue;
            LaneState &l = lanes_[std::size_t(t)];
            l.valid = true;
            l.id = std::uint32_t(id);
            l.point =
                queryPointFor(domain, params.frame_seed, id);
        }
    }

    gpu::WarpAction
    start() override
    {
        return makeRound();
    }

    gpu::WarpAction
    resume(const rtunit::TraceResult &result) override
    {
        for (int t = 0; t < kWarpSize; ++t) {
            LaneState &l = lanes_[std::size_t(t)];
            if (!l.valid || !l.issued)
                continue;
            l.issued = false;
            l.round++;
            QueryResult &e = store_.at(l.id);
            e.rounds++;
            const geom::HitRecord &hit =
                result.hits[std::size_t(t)];
            switch (wl_) {
            case Workload::Knn:
                if (hit.hit()) {
                    accept(e, l, hit);
                    l.done = l.round >= params_.k;
                } else {
                    // Fewer than k points beyond tmin: exhausted.
                    l.done = true;
                }
                break;
            case Workload::Radius:
                if (hit.hit()) {
                    accept(e, l, hit);
                    l.done = l.round >= params_.max_rounds;
                } else {
                    l.done = true;
                }
                break;
            case Workload::Contain:
                if (hit.hit()) {
                    accept(e, l, hit);
                } else {
                    // Should not happen (samples stay inside the
                    // grid); fold the miss so it cannot hide.
                    e.hash =
                        hashStep(e.hash, 0xffffffffu, geom::kNoHit);
                }
                l.point = advectPoint(l.point, domain_);
                l.done = l.round >= params_.steps;
                break;
            }
        }
        return makeRound();
    }

  private:
    struct LaneState
    {
        bool valid = false;
        bool done = false;
        bool issued = false;
        std::uint32_t id = 0;
        Vec3 point;
        float last_d = 0.0f;
        int round = 0;
    };

    /** Fold an accepted (prim, value) into the lane's query. */
    void
    accept(QueryResult &e, LaneState &l, const geom::HitRecord &hit)
    {
        e.count++;
        e.hash = hashStep(e.hash, hit.prim_id, hit.thit);
        e.last_prim = hit.prim_id;
        e.last_value = hit.thit;
        l.last_d = hit.thit;
    }

    gpu::WarpAction
    makeRound()
    {
        gpu::WarpAction a;
        a.cost = params_.shade_cost;
        a.kind = gpu::WarpAction::Kind::Finish;
        a.trace.query = wl_ == Workload::Contain
                            ? geom::QueryKind::CellContain
                            : geom::QueryKind::NearestPoint;
        for (int t = 0; t < kWarpSize; ++t) {
            LaneState &l = lanes_[std::size_t(t)];
            if (!l.valid || l.done)
                continue;
            switch (wl_) {
            case Workload::Knn:
                a.trace.rays[std::size_t(t)] =
                    Ray(l.point, Vec3{}, l.last_d, geom::kNoHit);
                break;
            case Workload::Radius:
                a.trace.rays[std::size_t(t)] =
                    Ray(l.point, Vec3{}, l.last_d, params_.radius);
                break;
            case Workload::Contain:
                a.trace.rays[std::size_t(t)] =
                    Ray(l.point, Vec3{}, 0.0f, geom::kNoHit);
                break;
            }
            l.issued = true;
            a.kind = gpu::WarpAction::Kind::Trace;
        }
        return a;
    }

    Workload wl_;
    ResultStore &store_;
    QueryParams params_;
    geom::AABB domain_;
    std::array<LaneState, kWarpSize> lanes_;
};

} // namespace

std::vector<std::unique_ptr<gpu::WarpProgram>>
makeQueryFrame(const scene::Scene &scene, Workload wl,
               ResultStore &store, int width, int height,
               const QueryParams &params)
{
    params.validate();
    const bool points = scene.kind == scene::SceneKind::PointCloud;
    const bool cells = scene.kind == scene::SceneKind::AmrCells;
    if ((wl == Workload::Contain && !cells) ||
        (wl != Workload::Contain && !points))
        throw std::invalid_argument(
            std::string("query workload '") + workloadName(wl) +
            "' needs a " +
            (wl == Workload::Contain ? "cell (amr*)"
                                     : "point-cloud (pts*)") +
            " scene, got '" + scene.name + "'");

    const int total = width * height;
    if (std::size_t(total) != store.size())
        throw std::invalid_argument(
            "query ResultStore size does not match width*height");

    const geom::AABB domain = queryDomain(scene);
    std::vector<std::unique_ptr<gpu::WarpProgram>> out;
    for (int first = 0; first < total; first += kWarpSize)
        out.push_back(std::make_unique<QueryProgram>(
            wl, store, domain, first, total, params));
    return out;
}

// --- Brute-force oracles ------------------------------------------

namespace {

/** One accepted (prim, value) of a brute-force scan. */
struct Best
{
    float value = geom::kNoHit;
    std::uint32_t prim = 0xffffffffu;

    bool found() const { return value != geom::kNoHit; }
};

/**
 * Every round of a Knn/Radius query in one pass: the (at most)
 * @p rounds smallest distinct distances d with 0 < d < @p tmax, in
 * ascending order, each held by the lowest prim reaching it. That is
 * what rounds of the leaf test's accept rule give: round j rejects
 * d <= round j-1's distance, so every prim at that exact float drops
 * out, and a strict d < best keeps the first prim of the scan at a
 * tie. The distance is the leaf test's own expression, compared as
 * is: a squared distance could split one float shell into two.
 */
std::vector<Best>
selectNearest(const scene::Mesh &mesh, const Vec3 &q, float tmax,
              std::size_t rounds)
{
    std::vector<Best> sel;
    sel.reserve(std::min(rounds, mesh.size()));
    float cut = tmax;
    for (std::uint32_t prim = 0; prim < mesh.size(); ++prim) {
        const float d = (mesh.tri(prim).v0 - q).length();
        if (!(d > 0.0f && d < cut))
            continue;
        const auto at = std::lower_bound(
            sel.begin(), sel.end(), d,
            [](const Best &b, float v) { return b.value < v; });
        if (at != sel.end() && at->value == d)
            continue; // a lower prim holds this distance
        const auto pos = at - sel.begin();
        if (sel.size() == rounds)
            sel.pop_back();
        sel.insert(sel.begin() + pos, Best{d, prim});
        if (sel.size() == rounds)
            cut = sel.back().value;
    }
    return sel;
}

Best
scanContain(const scene::Mesh &mesh, const Vec3 &p)
{
    Best b;
    for (std::uint32_t prim = 0; prim < mesh.size(); ++prim) {
        const geom::Triangle &tri = mesh.tri(prim);
        if (p.x < tri.v0.x || p.x > tri.v1.x || p.y < tri.v0.y ||
            p.y > tri.v1.y || p.z < tri.v0.z || p.z > tri.v1.z)
            continue;
        const float width = tri.v1.x - tri.v0.x;
        if (width <= 0.0f || width >= b.value)
            continue;
        b.value = width;
        b.prim = prim;
    }
    return b;
}

void
foldResult(QueryResult &e, const Best &b)
{
    e.count++;
    e.hash = hashStep(e.hash, b.prim, b.value);
    e.last_prim = b.prim;
    e.last_value = b.value;
}

/** The reference QueryResult of one query, by exhaustive scan. */
QueryResult
oracleQuery(const scene::Scene &scene, Workload wl,
            const QueryParams &params, const geom::AABB &domain,
            int id)
{
    QueryResult e;
    Vec3 p = queryPointFor(domain, params.frame_seed, id);

    if (wl == Workload::Contain) {
        for (int r = 0; r < params.steps; ++r) {
            e.rounds++;
            const Best b = scanContain(scene.mesh, p);
            if (b.found())
                foldResult(e, b);
            else
                e.hash = hashStep(e.hash, 0xffffffffu, geom::kNoHit);
            p = advectPoint(p, domain);
        }
        return e;
    }

    const int rounds =
        wl == Workload::Knn ? params.k : params.max_rounds;
    if (rounds <= 0)
        return e;
    const float tmax =
        wl == Workload::Radius ? params.radius : geom::kNoHit;
    const std::vector<Best> sel =
        selectNearest(scene.mesh, p, tmax, std::size_t(rounds));
    for (const Best &b : sel)
        foldResult(e, b);
    // A query that found fewer than `rounds` also issued the round
    // that came back empty.
    e.rounds =
        std::uint32_t(std::min(sel.size() + 1, std::size_t(rounds)));
    return e;
}

bool
sameResult(const QueryResult &a, const QueryResult &b)
{
    // last_value compared bit-for-bit: the oracle folds the same
    // float expressions, so even the sign of zero must agree.
    std::uint32_t abits, bbits;
    std::memcpy(&abits, &a.last_value, sizeof(abits));
    std::memcpy(&bbits, &b.last_value, sizeof(bbits));
    return a.count == b.count && a.rounds == b.rounds &&
           a.last_prim == b.last_prim && abits == bbits &&
           a.hash == b.hash;
}

} // namespace

OracleCheck
verifyAgainstOracle(const scene::Scene &scene, Workload wl,
                    const QueryParams &params, int width, int height,
                    const ResultStore &store)
{
    const geom::AABB domain = queryDomain(scene);
    OracleCheck chk;
    const int total = width * height;
    for (int id = 0; id < total; ++id) {
        const QueryResult want =
            oracleQuery(scene, wl, params, domain, id);
        chk.checked++;
        if (!sameResult(store.at(std::size_t(id)), want))
            chk.mismatches++;
    }
    return chk;
}

} // namespace cooprt::query
