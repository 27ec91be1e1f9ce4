/**
 * @file
 * Google-benchmark micro-kernels for the substrate hot paths: the
 * intersection math the RT unit's math units model, BVH construction
 * and traversal, cache access, one full RT-unit trace, and the
 * observers' own hot paths (memscope's reuse-distance stack, the
 * metrics CSV writer) and the query workloads' brute-force oracle.
 * These are
 * host-performance benchmarks of the simulator itself (useful when
 * optimizing it), not simulated-GPU results.
 */

#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bvh/flat_bvh.hpp"
#include "bvh/traversal.hpp"
#include "geom/rng.hpp"
#include "mem/memory_system.hpp"
#include "memscope/memscope.hpp"
#include "query/query.hpp"
#include "rtunit/rt_unit.hpp"
#include "scene/generators.hpp"
#include "scene/registry.hpp"
#include "trace/metrics.hpp"
#include "trace/registry.hpp"

namespace {

using namespace cooprt;

scene::Mesh
soup(int n)
{
    scene::Mesh m;
    geom::Pcg32 rng(42);
    for (int i = 0; i < n; ++i) {
        geom::Vec3 p = rng.nextInBox(geom::Vec3(-10), geom::Vec3(10));
        m.addTriangle({p, p + rng.nextUnitVector() * 0.5f,
                       p + rng.nextUnitVector() * 0.5f});
    }
    return m;
}

void
BM_RayBoxIntersect(benchmark::State &state)
{
    geom::Pcg32 rng(1);
    geom::AABB box{{-1, -1, -1}, {1, 1, 1}};
    geom::Ray ray({-3, 0.1f, 0.2f}, normalize(geom::Vec3(1, 0.05f, 0.1f)));
    for (auto _ : state)
        benchmark::DoNotOptimize(box.intersect(ray, geom::kNoHit));
}
BENCHMARK(BM_RayBoxIntersect);

void
BM_RayTriangleIntersect(benchmark::State &state)
{
    geom::Triangle tri{{-1, -1, 5}, {1, -1, 5}, {0, 1, 5}};
    geom::Ray ray({0.1f, 0.0f, 0}, {0, 0, 1});
    for (auto _ : state)
        benchmark::DoNotOptimize(tri.intersect(ray, geom::kNoHit));
}
BENCHMARK(BM_RayTriangleIntersect);

void
BM_QuantizedDecode(benchmark::State &state)
{
    geom::AABB parent{{-10, -10, -10}, {10, 10, 10}};
    auto frame = geom::QuantFrame::forParent(parent);
    auto q = geom::QuantizedAabb::encode({{-3, 1, -2}, {4, 5, 6}},
                                         frame);
    for (auto _ : state)
        benchmark::DoNotOptimize(q.decode(frame));
}
BENCHMARK(BM_QuantizedDecode);

void
BM_BvhBuild(benchmark::State &state)
{
    scene::Mesh m = soup(int(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(bvh::buildWideBvh(m));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BvhBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void
BM_CpuClosestHit(benchmark::State &state)
{
    scene::Mesh m = soup(20000);
    bvh::FlatBvh flat(bvh::buildWideBvh(m));
    geom::Pcg32 rng(3);
    for (auto _ : state) {
        geom::Ray r(rng.nextInBox(geom::Vec3(-15), geom::Vec3(15)),
                    rng.nextUnitVector());
        benchmark::DoNotOptimize(bvh::closestHit(flat, m, r));
    }
}
BENCHMARK(BM_CpuClosestHit);

/** The paper's L1 (Arg 0: 64 KB fully associative) or L2 (Arg 1:
 *  3 MB 16-way), on lines drawn from 4x its capacity. */
void
BM_CacheAccess(benchmark::State &state)
{
    const mem::CacheConfig cfg =
        state.range(0) == 0 ? mem::MemConfig{}.l1 : mem::MemConfig{}.l2;
    mem::Cache cache(cfg);
    const auto lines = std::uint32_t(4 * cfg.size_bytes / cfg.line_bytes);
    geom::Pcg32 rng(4);
    std::uint64_t now = 0;
    auto below = [](std::uint64_t, std::uint64_t t) { return t + 300; };
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBelow(lines), now, below));
        now += 3;
    }
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1);

/**
 * MemorySystem::fetch on the bench-scale GPU's hierarchy (10 SMs,
 * 1 MB L2) over one seeded stream of BVH-node-sized fetches whose
 * depth is uniform, so shallow nodes are shared by every SM and
 * deep ones are mostly cold, as in a traversal.
 */
void
BM_MemFetch(benchmark::State &state)
{
    mem::MemConfig mc;
    mc.num_sms = 10;
    mc.l2.size_bytes = 1024 * 1024;
    mc.l2_banks = 4;
    mem::MemorySystem memsys(mc);
    struct Fetch
    {
        int sm;
        std::uint64_t addr;
    };
    std::vector<Fetch> stream(1 << 16);
    geom::Pcg32 rng(6);
    for (Fetch &f : stream) {
        const std::uint32_t depth = 4 + rng.nextBelow(17);
        f.sm = int(rng.nextBelow(std::uint32_t(mc.num_sms)));
        f.addr = std::uint64_t(rng.nextBelow(1u << depth)) *
                 bvh::kNodeBytes;
    }
    std::uint64_t now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const Fetch &f = stream[i];
        benchmark::DoNotOptimize(
            memsys.fetch(f.sm, f.addr, bvh::kNodeBytes, now));
        i = (i + 1) & (stream.size() - 1);
        now += (i & 1); // ~2 fetches per cycle across the GPU
    }
}
BENCHMARK(BM_MemFetch);

/**
 * memscope's reuse-distance stack on a ship-sized L2 stream: ship
 * CoopRT at bench scale touches its L2 scope ~75K times over ~4.7K
 * distinct lines in 512 sets. Low line ids are drawn more often, as
 * shallow BVH nodes are. The scope keeps every touch, so the loop
 * runs at the steady state of a long run: a bounded live set and
 * periodic compactions.
 */
void
BM_CacheScopeTouch(benchmark::State &state)
{
    constexpr std::uint32_t kLines = 4700;
    std::vector<std::uint64_t> stream(1 << 16);
    geom::Pcg32 rng(7);
    for (std::uint64_t &line : stream)
        line = 0x40000 + rng.nextBelow(rng.nextBelow(kLines) + 1);
    memscope::CacheScope scope;
    benchmark::DoNotOptimize(&scope);
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint64_t line = stream[i];
        scope.touch(line, std::uint32_t(line % 512));
        benchmark::ClobberMemory();
        i = (i + 1) & (stream.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheScopeTouch);

/**
 * The metrics CSV of one observed ship CoopRT frame: 168 rows of the
 * 457 columns every observer registers, half integer counters and
 * half fractions.
 */
void
BM_MetricsCsvWrite(benchmark::State &state)
{
    constexpr int kColumns = 457;
    constexpr int kRows = 168;
    trace::Registry registry;
    std::vector<double> values(kColumns);
    for (int c = 0; c < kColumns; ++c)
        registry.probe("metric." + std::to_string(1000 + c),
                       [&values, c] { return values[std::size_t(c)]; });
    trace::MetricsSampler sampler(&registry);
    geom::Pcg32 rng(8);
    for (int r = 0; r < kRows; ++r) {
        for (int c = 0; c < kColumns; ++c)
            values[std::size_t(c)] =
                c % 2 == 0 ? double(rng.nextBelow(1u << 24))
                           : rng.nextFloat();
        sampler.sample(std::uint64_t(500) * std::uint64_t(r));
    }
    for (auto _ : state) {
        std::ostringstream os;
        sampler.writeCsv(os);
        benchmark::DoNotOptimize(os.tellp());
    }
    state.SetItemsProcessed(state.iterations() * kRows * kColumns);
}
BENCHMARK(BM_MetricsCsvWrite);

/**
 * One 8-ray warp traced to retirement. Args: coop (LBU on), bfs
 * (queue order instead of DFS stacks), any_hit (the first hit makes
 * the ray's whole stack stale at once, so pop-time elimination
 * drains it).
 */
void
BM_RtUnitFullTrace(benchmark::State &state)
{
    scene::Mesh m = soup(20000);
    bvh::FlatBvh flat(bvh::buildWideBvh(m));
    rtunit::TraceConfig cfg;
    cfg.coop = state.range(0) != 0;
    if (state.range(1) != 0)
        cfg.order = rtunit::TraversalOrder::Bfs;
    const bool any_hit = state.range(2) != 0;
    geom::Pcg32 rng(5);

    for (auto _ : state) {
        rtunit::RtUnit unit(flat, m, cfg,
                            [](std::uint64_t, std::uint32_t,
                               std::uint64_t now) { return now + 300; });
        rtunit::TraceJob job;
        job.any_hit = any_hit;
        for (int t = 0; t < 8; ++t)
            job.rays[std::size_t(t)] =
                geom::Ray(rng.nextInBox(geom::Vec3(-15), geom::Vec3(15)),
                          rng.nextUnitVector());
        bool done = false;
        unit.submit(job, 0,
                    [&](int, const rtunit::TraceResult &) {
                        done = true;
                    });
        std::uint64_t now = 0;
        while (!done) {
            const std::uint64_t e = unit.nextEventCycle(now);
            if (e > now)
                now = e;
            unit.tick(now);
            now++;
        }
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_RtUnitFullTrace)
    ->ArgNames({"coop", "bfs", "any_hit"})
    ->Args({0, 0, 0})
    ->Args({1, 0, 0})
    ->Args({1, 1, 0})
    ->Args({1, 0, 1});

/**
 * The query oracle alone (query::verifyAgainstOracle) over the
 * knn_coop_ptsc frame: ptsc at 32x32 with the default QueryParams.
 * Arg 0 checks Knn (k = 4), Arg 1 Radius. The store is left at its
 * defaults: the oracle recomputes every query whatever it is
 * compared against, so its cost does not depend on the stored
 * results.
 */
void
BM_QueryOracle(benchmark::State &state)
{
    constexpr int kSide = 32;
    const scene::Scene &ptsc = scene::SceneRegistry::get("ptsc");
    const query::Workload wl = state.range(0) == 0
                                   ? query::Workload::Knn
                                   : query::Workload::Radius;
    const query::QueryParams params;
    const query::ResultStore store(std::size_t(kSide * kSide));
    for (auto _ : state)
        benchmark::DoNotOptimize(query::verifyAgainstOracle(
            ptsc, wl, params, kSide, kSide, store));
    state.SetItemsProcessed(state.iterations() * kSide * kSide);
}
BENCHMARK(BM_QueryOracle)
    ->ArgName("radius")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
