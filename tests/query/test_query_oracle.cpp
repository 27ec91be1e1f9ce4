/**
 * @file
 * Correctness anchor of the cooprt::query workloads: every simulator
 * result must match the brute-force reference oracle bit-for-bit, on
 * every query scene. The oracle scans all primitives per round with
 * the identical float expressions the RT-unit leaf test folds, so
 * any traversal bug — a culled subtree that should have been
 * visited, a stale pop eliminating a live entry — surfaces as a
 * mismatch here rather than as a silently wrong neighbor. The
 * report a query run writes names its workload, a hex checksum and
 * the oracle's counters.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "../sink_checks.hpp"
#include "core/simulation.hpp"
#include "exec/exec.hpp"

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
