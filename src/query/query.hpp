/**
 * @file
 * Non-rendering query workloads on the RT unit (`cooprt::query`), a
 * peer of `cooprt::shaders`:
 *
 *  - k-nearest neighbor search over point clouds (RTNN mapping):
 *    each query point is a zero-direction ray; round j sets
 *    `tmin` to round j-1's neighbor distance, so closest-hit
 *    traversal returns the j-th neighbor exactly (shrinking-sphere
 *    refinement with no exclusion lists — see geom/proxy.hpp);
 *  - fixed-radius search: the same loop with `tmax` clamped to the
 *    radius, terminating at the first empty round;
 *  - point containment over AMR cell hierarchies (Zellmann et al.):
 *    a sample point is located in its finest containing leaf cell,
 *    then advected through an analytic velocity field and relocated,
 *    `steps` times (the flow-visualization access pattern).
 *
 * Every workload runs through the unmodified `RtUnit`/`Gpu` timing
 * pipeline — the only RT-unit difference is the leaf test dispatch on
 * `TraceJob::query` — so baseline vs CoopRT comparisons, stall
 * buckets, memscope heatmaps and ray provenance all apply unchanged.
 *
 * Results are stored per query id (scheduling-independent), folded
 * in query-id order into a checksum, and cross-checked against
 * brute-force oracles that fold the leaf test's exact float
 * expressions: the simulator must match the oracle bit-for-bit.
 */

#ifndef COOPRT_QUERY_QUERY_HPP
#define COOPRT_QUERY_QUERY_HPP

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/proxy.hpp"
#include "geom/rng.hpp"
#include "geom/vec3.hpp"
#include "gpu/warp_program.hpp"
#include "scene/scene.hpp"
#include "trace/registry.hpp"

namespace cooprt::query {

/** The three query workloads (RunConfig selects one). */
enum class Workload
{
    /** k-nearest neighbors per query point (PointCloud scenes). */
    Knn,
    /** All neighbors within a fixed radius (PointCloud scenes). */
    Radius,
    /** Locate-and-advect cell containment (AmrCells scenes). */
    Contain,
};

/** Stable lowercase name: "knn", "radius", "contain". */
const char *workloadName(Workload wl);

/** Tunables of a query run (defaults used by benches and CI). */
struct QueryParams
{
    /** Neighbors per query (Knn). */
    int k = 4;
    /** Search radius (Radius). */
    float radius = 0.22f;
    /** Locate-advect steps per sample point (Contain). */
    int steps = 4;
    /** Seed for the deterministic per-query sample points. */
    std::uint64_t frame_seed = 7;
    /** Safety cap on refinement rounds per query (Radius). */
    int max_rounds = 64;
    /** Cross-check against the brute-force oracle after the run. */
    bool verify = true;
    /** Per-round shading cost (result consumption + next-round
     *  setup), the analogue of the shaders' bounce cost. */
    gpu::ShadingCost shade_cost{6, 2, 4};

    /** Validate parameter values; throws std::invalid_argument. */
    void
    validate() const
    {
        if (k < 1)
            throw std::invalid_argument("query k >= 1");
        if (max_rounds < 1)
            throw std::invalid_argument("query max_rounds >= 1");
        if (steps < 1)
            throw std::invalid_argument("query steps >= 1");
        // Written so that a NaN radius fails too.
        if (!(radius > 0.0f))
            throw std::invalid_argument("query radius > 0");
    }
};

/**
 * Per-query result, indexed by query id. All fields are pure
 * functions of (scene, workload, params, query id): warp scheduling,
 * work stealing and observer attachment cannot change them.
 */
struct QueryResult
{
    /** Neighbors found / cells located. */
    std::uint32_t count = 0;
    /** Traversal rounds issued for this query. */
    std::uint32_t rounds = 0;
    /** Final primitive (k-th neighbor / last containing cell). */
    std::uint32_t last_prim = 0xffffffffu;
    /** Final distance (Knn/Radius) or cell width (Contain). */
    float last_value = 0.0f;
    /** Order-sensitive fold over every (prim, value) this query
     *  produced; the oracle recomputes it bit-for-bit. */
    std::uint64_t hash = 0;
};

/** One (prim, value) step folded into a query's running hash. */
inline std::uint64_t
hashStep(std::uint64_t h, std::uint32_t prim, float value)
{
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return geom::mix64(h ^ (std::uint64_t(prim) << 32) ^ bits);
}

/**
 * Per-run result sink shared by the warp programs of one frame.
 * Registers the `query.*` probes (single registration authority; see
 * DESIGN.md section 17) when a trace session is attached.
 */
class ResultStore
{
  public:
    explicit ResultStore(std::size_t queries) : results_(queries) {}
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    QueryResult &at(std::size_t i) { return results_[i]; }
    const QueryResult &at(std::size_t i) const { return results_[i]; }
    std::size_t size() const { return results_.size(); }

    /** Sum of per-query counts. */
    std::uint64_t totalFound() const;
    /** Sum of per-query traversal rounds. */
    std::uint64_t totalRounds() const;
    /** Order-sensitive mix64 chain over every query's hash, count
     *  and rounds, in query-id order; scheduling cannot change it
     *  because results are stored by query id. */
    std::uint64_t checksum() const;

    /** Register the `query.*` probes; the destructor unregisters. */
    void registerMetrics(trace::Registry &reg);

  private:
    std::vector<QueryResult> results_;
    trace::Registry *registry_ = nullptr;
};

/** Deterministic run summary, reported alongside the GPU results. */
struct Summary
{
    bool enabled = false;
    std::string workload;
    std::uint64_t queries = 0;
    std::uint64_t rounds = 0;
    std::uint64_t found = 0;
    std::uint64_t checksum = 0;
    /** Oracle cross-check ran (QueryParams::verify). */
    bool verified = false;
    std::uint64_t oracle_checked = 0;
    std::uint64_t oracle_mismatches = 0;

    bool oracleMatches() const
    { return verified && oracle_mismatches == 0; }
};

/** Condense @p store into a Summary (oracle fields left unset). */
Summary summarize(Workload wl, const ResultStore &store);

/** Outcome of a brute-force oracle cross-check. */
struct OracleCheck
{
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
};

/**
 * The box query sample points are drawn from: the mesh bounds for
 * point clouds, the AMR domain shrunk slightly inward (so advected
 * samples never leave the grid) for cell scenes.
 */
geom::AABB queryDomain(const scene::Scene &scene);

/**
 * The sample point of query @p id — a pure function of (domain, seed,
 * id), shared by the warp programs and the oracle.
 */
geom::Vec3 queryPointFor(const geom::AABB &domain,
                         std::uint64_t frame_seed, int id);

/**
 * One advection step of the Contain workload: an analytic swirl
 * velocity field (a function of the position only, so locate results
 * cannot feed back into the trajectory), clamped into @p domain.
 * Inline so the simulator programs and the oracle fold the exact
 * same float expressions.
 */
inline geom::Vec3
advectPoint(const geom::Vec3 &p, const geom::AABB &domain)
{
    const geom::Vec3 v{
        std::sin(3.1f * p.y) + 0.3f * std::cos(2.3f * p.z),
        std::sin(2.7f * p.z) + 0.3f * std::cos(3.7f * p.x),
        std::sin(3.3f * p.x) + 0.3f * std::cos(2.9f * p.y)};
    const geom::Vec3 q = p + v * 0.11f;
    const geom::Vec3 e = domain.extent();
    return geom::min(geom::max(q, domain.lo + e * 0.004f),
                     domain.hi - e * 0.004f);
}

/**
 * Build the warp programs of one query frame: width x height queries,
 * one per "pixel" (so resolution plumbing, campaign matrices and
 * film-less runs work unchanged), 32 per warp. Results are written
 * into @p store, which must outlive the programs and hold
 * width*height entries.
 *
 * @throws std::invalid_argument when @p params fail
 *         QueryParams::validate, or the scene kind does not match
 *         the workload (Knn/Radius need PointCloud, Contain needs
 *         AmrCells).
 */
std::vector<std::unique_ptr<gpu::WarpProgram>>
makeQueryFrame(const scene::Scene &scene, Workload wl,
               ResultStore &store, int width, int height,
               const QueryParams &params);

/**
 * Recompute every query by a brute-force scan of all primitives,
 * folding the identical float expressions, and compare each
 * QueryResult field bit-for-bit against @p store. Knn and Radius
 * select all of a query's rounds in one pass (DESIGN.md section
 * 17.4); Contain scans once per step.
 */
OracleCheck verifyAgainstOracle(const scene::Scene &scene, Workload wl,
                                const QueryParams &params, int width,
                                int height, const ResultStore &store);

} // namespace cooprt::query

#endif // COOPRT_QUERY_QUERY_HPP
