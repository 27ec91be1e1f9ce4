/**
 * @file
 * Correctness anchor of the cooprt::query workloads: every simulator
 * result must match the brute-force reference oracle bit-for-bit, on
 * every query scene. The oracle scans all primitives with the
 * identical float expressions the RT-unit leaf test folds, so
 * any traversal bug — a culled subtree that should have been
 * visited, a stale pop eliminating a live entry — surfaces as a
 * mismatch here rather than as a silently wrong neighbor. The
 * report a query run writes names its workload, a hex checksum and
 * the oracle's counters.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "../sink_checks.hpp"
#include "core/simulation.hpp"
#include "exec/exec.hpp"
#include "geom/proxy.hpp"
#include "query/query.hpp"

namespace {

using namespace cooprt;
using testutil::at;

core::RunOutcome
runQuery(const std::string &scene, core::ShaderKind shader,
         int resolution = 8, bool coop = false,
         query::QueryParams params = {})
{
    core::RunConfig cfg;
    cfg.shader = shader;
    cfg.resolution = resolution;
    cfg.gpu.trace.coop = coop;
    cfg.query = params;
    return core::simulationFor(scene).run(cfg);
}

std::vector<std::string>
labelsOfKind(scene::SceneKind kind)
{
    std::vector<std::string> out;
    for (const auto &l : scene::SceneRegistry::queryLabels())
        if (scene::SceneRegistry::get(l).kind == kind)
            out.push_back(l);
    return out;
}

TEST(QueryScenes, RegisteredWithExpectedKinds)
{
    const auto &labels = scene::SceneRegistry::queryLabels();
    ASSERT_EQ(labels.size(), 5u);
    EXPECT_EQ(labelsOfKind(scene::SceneKind::PointCloud).size(), 3u);
    EXPECT_EQ(labelsOfKind(scene::SceneKind::AmrCells).size(), 2u);
    for (const auto &l : labels) {
        SCOPED_TRACE(l);
        EXPECT_TRUE(scene::SceneRegistry::has(l));
        const auto &s = scene::SceneRegistry::get(l);
        EXPECT_NE(s.kind, scene::SceneKind::Triangles);
        EXPECT_GT(s.mesh.size(), 0u);
        EXPECT_EQ(scene::SceneRegistry::benchResolution(l), 32);
    }
}

TEST(QueryScenes, RenderingAxisUnchanged)
{
    // The query scenes must NOT join allLabels(): every existing
    // bench sweeps that list with rendering shaders.
    const auto &all = scene::SceneRegistry::allLabels();
    EXPECT_EQ(all.size(), 15u);
    for (const auto &l : scene::SceneRegistry::queryLabels())
        for (const auto &a : all)
            EXPECT_NE(a, l);
}

TEST(QueryFrame, RejectsSceneKindMismatch)
{
    EXPECT_THROW(runQuery("amrs", core::ShaderKind::QueryKnn),
                 std::invalid_argument);
    EXPECT_THROW(runQuery("ptsu", core::ShaderKind::QueryContain),
                 std::invalid_argument);
    EXPECT_THROW(runQuery("wknd", core::ShaderKind::QueryRadius),
                 std::invalid_argument);
}

TEST(QueryOracle, KnnAgreesOnEveryPointCloud)
{
    for (const auto &l : labelsOfKind(scene::SceneKind::PointCloud)) {
        SCOPED_TRACE(l);
        const auto out = runQuery(l, core::ShaderKind::QueryKnn);
        ASSERT_TRUE(out.query.enabled);
        EXPECT_EQ(out.query.workload, "knn");
        EXPECT_EQ(out.query.queries, 64u);
        ASSERT_TRUE(out.query.verified);
        EXPECT_EQ(out.query.oracle_checked, 64u);
        EXPECT_EQ(out.query.oracle_mismatches, 0u);
        EXPECT_TRUE(out.query.oracleMatches());
    }
}

TEST(QueryOracle, RadiusAgreesOnEveryPointCloud)
{
    for (const auto &l : labelsOfKind(scene::SceneKind::PointCloud)) {
        SCOPED_TRACE(l);
        const auto out = runQuery(l, core::ShaderKind::QueryRadius);
        ASSERT_TRUE(out.query.verified);
        EXPECT_EQ(out.query.oracle_checked, out.query.queries);
        EXPECT_EQ(out.query.oracle_mismatches, 0u);
        // Every neighbor round plus one trailing empty round, unless
        // a query saturated max_rounds; every query issues a round.
        EXPECT_GE(out.query.rounds, out.query.found);
        EXPECT_GE(out.query.rounds, out.query.queries);
    }
}

TEST(QueryOracle, ContainAgreesOnEveryAmrScene)
{
    for (const auto &l : labelsOfKind(scene::SceneKind::AmrCells)) {
        SCOPED_TRACE(l);
        const auto out = runQuery(l, core::ShaderKind::QueryContain);
        ASSERT_TRUE(out.query.verified);
        EXPECT_EQ(out.query.oracle_mismatches, 0u);
        EXPECT_TRUE(out.query.oracleMatches());
    }
}

TEST(QueryOracle, AgreesUnderCoopToo)
{
    // CoopRT reorders traversal (steals, subwarp scopes); results
    // must still be the oracle's, on every query scene and workload.
    const auto agrees = [](const std::string &l, core::ShaderKind shader) {
        SCOPED_TRACE(l);
        const auto out = runQuery(l, shader, 8, /*coop=*/true);
        ASSERT_TRUE(out.query.verified);
        EXPECT_EQ(out.query.oracle_checked, out.query.queries);
        EXPECT_EQ(out.query.oracle_mismatches, 0u);
    };
    for (const auto &l : labelsOfKind(scene::SceneKind::PointCloud)) {
        agrees(l, core::ShaderKind::QueryKnn);
        agrees(l, core::ShaderKind::QueryRadius);
    }
    for (const auto &l : labelsOfKind(scene::SceneKind::AmrCells))
        agrees(l, core::ShaderKind::QueryContain);
}

TEST(QuerySemantics, KnnFindsExactlyKNeighbors)
{
    query::QueryParams p;
    p.k = 3;
    const auto out =
        runQuery("ptsu", core::ShaderKind::QueryKnn, 8, false, p);
    // 9000 points, 64 queries: every query has 3 neighbors.
    EXPECT_EQ(out.query.found, 64u * 3u);
    EXPECT_EQ(out.query.rounds, 64u * 3u);
}

TEST(QuerySemantics, ContainIssuesExactlyStepsRounds)
{
    query::QueryParams p;
    p.steps = 6;
    const auto out =
        runQuery("amrs", core::ShaderKind::QueryContain, 8, false, p);
    EXPECT_EQ(out.query.rounds, 64u * 6u);
    // The AMR grid tiles its domain, so every locate step lands in
    // some leaf cell.
    EXPECT_EQ(out.query.found, 64u * 6u);
    EXPECT_TRUE(out.query.oracleMatches());
}

TEST(QuerySemantics, LargerRadiusFindsMoreNeighbors)
{
    query::QueryParams small;
    small.radius = 0.1f;
    query::QueryParams large;
    large.radius = 0.3f;
    const auto a = runQuery("ptss", core::ShaderKind::QueryRadius, 8,
                            false, small);
    const auto b = runQuery("ptss", core::ShaderKind::QueryRadius, 8,
                            false, large);
    EXPECT_LT(a.query.found, b.query.found);
    EXPECT_TRUE(a.query.oracleMatches());
    EXPECT_TRUE(b.query.oracleMatches());
}

TEST(QuerySemantics, VerifyOffSkipsOracle)
{
    query::QueryParams p;
    p.verify = false;
    const auto out =
        runQuery("ptsu", core::ShaderKind::QueryKnn, 8, false, p);
    EXPECT_TRUE(out.query.enabled);
    EXPECT_FALSE(out.query.verified);
    EXPECT_FALSE(out.query.oracleMatches());
    EXPECT_EQ(out.query.oracle_checked, 0u);
}

TEST(QueryParamsValidate, DefaultsAreValid)
{
    EXPECT_NO_THROW(query::QueryParams{}.validate());
}

TEST(QueryParamsValidate, RejectsNonPositiveK)
{
    for (const int k : {0, -1}) {
        SCOPED_TRACE(k);
        query::QueryParams p;
        p.k = k;
        EXPECT_THROW(runQuery("ptsu", core::ShaderKind::QueryKnn, 8,
                              false, p),
                     std::invalid_argument);
    }
}

TEST(QueryParamsValidate, RejectsZeroMaxRounds)
{
    query::QueryParams p;
    p.max_rounds = 0;
    EXPECT_THROW(runQuery("ptsu", core::ShaderKind::QueryRadius, 8,
                          false, p),
                 std::invalid_argument);
}

TEST(QueryParamsValidate, RejectsZeroSteps)
{
    query::QueryParams p;
    p.steps = 0;
    EXPECT_THROW(runQuery("amrs", core::ShaderKind::QueryContain, 8,
                          false, p),
                 std::invalid_argument);
}

TEST(QueryParamsValidate, RejectsNonPositiveOrNanRadius)
{
    for (const float r :
         {0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN()}) {
        SCOPED_TRACE(r);
        query::QueryParams p;
        p.radius = r;
        EXPECT_THROW(runQuery("ptsu", core::ShaderKind::QueryRadius, 8,
                              false, p),
                     std::invalid_argument);
    }
}

// --- The one-pass oracle against the round-by-round definition ----

/**
 * The definition the oracle must meet, written out as the simulator
 * issues it: round r scans every point for the nearest strictly
 * beyond round r-1's distance (0 before the first round) and
 * strictly inside @p tmax, the lowest prim winning a tie, and the
 * query stops at its first empty round.
 */
query::QueryResult
roundByRound(const scene::Mesh &mesh, const geom::Vec3 &q, int rounds,
             float tmax)
{
    query::QueryResult e;
    float last = 0.0f;
    for (int r = 0; r < rounds; ++r) {
        e.rounds++;
        float best = tmax;
        std::uint32_t best_prim = 0xffffffffu;
        for (std::uint32_t prim = 0; prim < mesh.size(); ++prim) {
            const float d = (mesh.tri(prim).v0 - q).length();
            if (d > last && d < best) {
                best = d;
                best_prim = prim;
            }
        }
        if (best_prim == 0xffffffffu)
            break;
        e.count++;
        e.hash = query::hashStep(e.hash, best_prim, best);
        e.last_prim = best_prim;
        e.last_value = best;
        last = best;
    }
    return e;
}

/**
 * A hand-made point cloud queried by a 2x2 frame. Its first two
 * points are the unit cube's corners, which fix queryDomain; every
 * later point lies inside the cube, so the query points are known
 * before the rest of the cloud is placed around them.
 */
struct HandCloud
{
    static constexpr int kSide = 2;

    scene::Scene scene;
    geom::AABB domain;

    HandCloud()
    {
        scene.name = "hand";
        scene.kind = scene::SceneKind::PointCloud;
        add({0.0f, 0.0f, 0.0f});
        add({1.0f, 1.0f, 1.0f});
        domain = query::queryDomain(scene);
    }

    void add(const geom::Vec3 &p)
    { scene.mesh.addTriangle(geom::pointProxy(p)); }

    geom::Vec3 query(int id) const
    {
        return query::queryPointFor(domain,
                                    query::QueryParams{}.frame_seed, id);
    }

    /** The point a fraction @p t of the way from query @p id to the
     *  cube's centre (inside the cube for t in [0, 1]). */
    geom::Vec3 toward(int id, float t) const
    {
        const geom::Vec3 q = query(id);
        return q + (geom::Vec3(0.5f) - q) * t;
    }
};

/**
 * Fill a store from the round-by-round definition and check that
 * verifyAgainstOracle agrees on every query of @p wl; then flip one
 * stored hash and check that exactly that query disagrees.
 */
void
expectOracleMeetsDefinition(const HandCloud &cloud, query::Workload wl,
                            const query::QueryParams &params)
{
    SCOPED_TRACE(query::workloadName(wl));
    // Every point stayed inside the corners, so the domain (and with
    // it every query point) is the one the cloud was built around.
    const geom::AABB now = query::queryDomain(cloud.scene);
    ASSERT_TRUE(now.lo == cloud.domain.lo && now.hi == cloud.domain.hi);

    const int side = HandCloud::kSide;
    query::ResultStore store(std::size_t(side * side));
    const bool knn = wl == query::Workload::Knn;
    for (int id = 0; id < side * side; ++id)
        store.at(std::size_t(id)) = roundByRound(
            cloud.scene.mesh, cloud.query(id),
            knn ? params.k : params.max_rounds,
            knn ? geom::kNoHit : params.radius);
    ASSERT_GT(store.totalFound(), 0u);

    const query::OracleCheck ok = query::verifyAgainstOracle(
        cloud.scene, wl, params, side, side, store);
    EXPECT_EQ(ok.checked, std::uint64_t(side * side));
    EXPECT_EQ(ok.mismatches, 0u);

    store.at(1).hash ^= 1;
    const query::OracleCheck flipped = query::verifyAgainstOracle(
        cloud.scene, wl, params, side, side, store);
    EXPECT_EQ(flipped.mismatches, 1u);
}

void
expectOracleMeetsDefinition(const HandCloud &cloud,
                            const query::QueryParams &params)
{
    expectOracleMeetsDefinition(cloud, query::Workload::Knn, params);
    expectOracleMeetsDefinition(cloud, query::Workload::Radius, params);
}

TEST(QueryOracleProperty, DuplicatePointsTieToTheLowestPrim)
{
    HandCloud c;
    const int n = HandCloud::kSide * HandCloud::kSide;
    // Each query's two nearest shells are held two or three times,
    // the copies far apart in prim order.
    for (int pass = 0; pass < 2; ++pass)
        for (int id = 0; id < n; ++id) {
            c.add(c.toward(id, 0.1f));
            c.add(c.toward(id, 0.2f));
        }
    for (int id = n - 1; id >= 0; --id)
        c.add(c.toward(id, 0.1f));
    query::QueryParams p;
    p.radius = 0.5f;
    expectOracleMeetsDefinition(c, p);
}

TEST(QueryOracleProperty, PointAtTheQueryIsExcluded)
{
    HandCloud c;
    const int n = HandCloud::kSide * HandCloud::kSide;
    for (int id = 0; id < n; ++id) {
        c.add(c.query(id)); // d == 0 for query id
        c.add(c.toward(id, 0.3f));
        c.add(c.query(id));
    }
    query::QueryParams p;
    p.radius = 0.5f;
    expectOracleMeetsDefinition(c, p);
}

TEST(QueryOracleProperty, PointsAtAndBeyondTheRadius)
{
    HandCloud c;
    for (const float t : {0.2f, 0.4f, 0.6f, 0.8f, 0.4f, 1.0f})
        c.add(c.toward(0, t));
    query::QueryParams p;
    // Query 0's point at t = 0.4 (held twice) lies exactly on the
    // radius, so it and every farther point are outside.
    p.radius = (c.toward(0, 0.4f) - c.query(0)).length();
    expectOracleMeetsDefinition(c, p);
    // A cap below the shell count: Radius stops at max_rounds.
    p.max_rounds = 1;
    expectOracleMeetsDefinition(c, query::Workload::Radius, p);
}

TEST(QueryOracleProperty, KLargerThanThePointCount)
{
    HandCloud c;
    for (int id = 0; id < HandCloud::kSide * HandCloud::kSide; ++id) {
        c.add(c.toward(id, 0.25f));
        c.add(c.toward(id, 0.25f));
    }
    query::QueryParams p;
    p.k = int(c.scene.mesh.size()) + 3;
    p.radius = 2.0f; // beyond the cube's diagonal
    expectOracleMeetsDefinition(c, p);
}

/** @p v moved by @p ulps representable floats (down when negative). */
float
nudged(float v, int ulps)
{
    for (; ulps > 0; --ulps)
        v = std::nextafter(v, 2.0f);
    for (; ulps < 0; ++ulps)
        v = std::nextafter(v, -2.0f);
    return v;
}

TEST(QueryOracleProperty, TwoSquaresOneDistanceAreOneShell)
{
    // Two points whose squared distances from query 0 differ but
    // whose distances round to the same float: the rounds see one
    // shell, which the lower prim wins. Nudging x up and y by a few
    // ulps each finds such a pair.
    HandCloud c;
    const geom::Vec3 q = c.query(0);
    const geom::Vec3 a = c.toward(0, 0.5f);
    const auto sameShell = [&](const geom::Vec3 &b) {
        return (b - q).lengthSq() != (a - q).lengthSq() &&
               (b - q).length() == (a - q).length();
    };
    geom::Vec3 b = a;
    for (int i = 1; i <= 16 && !sameShell(b); ++i)
        for (int j = -16; j <= 16 && !sameShell(b); ++j)
            b = {nudged(a.x, i), nudged(a.y, j), a.z};
    ASSERT_TRUE(sameShell(b));
    c.add(a);
    c.add(b);
    c.add(c.toward(0, 0.25f));
    query::QueryParams p;
    p.radius = 0.9f;
    expectOracleMeetsDefinition(c, p);
}

/** One campaign JSON line of a query job (exec::writeJsonLine, what
 *  campaign_cli --json-out writes): `ok`, and an outcome that is the
 *  stamped run report with the workload named after @p shader, a
 *  64-bit hex checksum and the oracle's counters. */
void
expectQueryLine(const trace::JsonValue &line, const std::string &shader)
{
    EXPECT_TRUE(at(line, "ok").isBool() && at(line, "ok").boolValue())
        << "job not ok";
    const trace::JsonValue &report = at(line, "outcome");
    testutil::expectStamp(report);
    const trace::JsonValue &q = at(report, "query");
    EXPECT_EQ(at(q, "workload").stringValue(), shader);
    const std::string &checksum = at(q, "checksum").stringValue();
    EXPECT_TRUE(testutil::isHex64(checksum))
        << "checksum '" << checksum << "'";
    for (const char *key : {"queries", "rounds", "found"})
        EXPECT_TRUE(testutil::isCounter(at(q, key))) << "query." << key;
    const trace::JsonValue &oracle = at(q, "oracle");
    EXPECT_TRUE(testutil::isCounter(at(oracle, "checked")) &&
                testutil::isCounter(at(oracle, "mismatches")) &&
                at(oracle, "matches").isBool())
        << "query.oracle";
}

TEST(QueryReport, CampaignLinesCarryOkQueryReports)
{
    const std::pair<const char *, core::ShaderKind> workloads[] = {
        {"ptsu", core::ShaderKind::QueryKnn},
        {"ptsu", core::ShaderKind::QueryRadius},
        {"amrs", core::ShaderKind::QueryContain}};
    std::vector<exec::Job> jobs;
    for (const auto &[scene, shader] : workloads) {
        core::RunConfig cfg;
        cfg.shader = shader;
        cfg.resolution = 8;
        jobs.push_back(exec::Job{scene, cfg, core::shaderToken(shader)});
    }
    exec::CampaignOptions opt;
    opt.jobs = 2;
    std::ostringstream os;
    for (const auto &r : exec::runCampaign(std::move(jobs), opt))
        exec::writeJsonLine(os, r);
    std::istringstream in(os.str());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), std::size(workloads));
    for (std::size_t i = 0; i < lines.size(); ++i)
        expectQueryLine(testutil::parseJson(lines[i]),
                        core::shaderToken(workloads[i].second));

    // Seeded corruptions of the knn line.
    const auto rejects = [&](std::string_view from, std::string_view to,
                             const char *failure) {
        const trace::JsonValue bad =
            testutil::parseJson(testutil::corrupted(lines[0], from, to));
        EXPECT_NONFATAL_FAILURE(expectQueryLine(bad, "knn"), failure);
    };
    rejects("\"ok\":true", "\"ok\":false", "job not ok");
    rejects("\"workload\":\"knn\"", "\"workload\":\"radius\"",
            "radius");
    rejects("\"checksum\":\"0x", "\"checksum\":\"0xZ", "checksum '0xZ");
    rejects("\"mismatches\":", "\"mismatch\":", "query.oracle");
}

} // namespace
