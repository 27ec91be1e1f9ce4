/**
 * @file
 * The differential attribution engine on real simulations: the
 * pinned wknd (baseline, CoopRT) pair must reproduce fig09's speedup
 * arithmetic bit-for-bit, bucket deltas must conserve exactly, and
 * every output path must be deterministic — including the campaign
 * diff sink, which must be byte-identical between --jobs 1 and
 * --jobs 4.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../byte_mutator.hpp"
#include "../sink_checks.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "diff/diff.hpp"
#include "exec/exec.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"

namespace {

using namespace cooprt;
using testutil::at;

/** The pinned pair: wknd at 32x32, path tracing, base vs CoopRT,
 *  with the profiler and memscope attached to both runs. */
core::Comparison
wkndPair()
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::Comparison cmp;

    core::RunConfig base;
    base.resolution = 32;
    prof::Profiler base_prof;
    memscope::Collector base_scope;
    base.profiler = &base_prof;
    base.memscope = &base_scope;
    cmp.base = sim.run(base);

    core::RunConfig coop = base;
    coop.gpu.trace.coop = true;
    prof::Profiler coop_prof;
    memscope::Collector coop_scope;
    coop.profiler = &coop_prof;
    coop.memscope = &coop_scope;
    cmp.coop = sim.run(coop);
    return cmp;
}

std::string
diffJson(const diff::RunDiff &d)
{
    std::ostringstream ss;
    diff::writeJson(ss, d);
    return ss.str();
}

/** Every {base, other, delta} object in @p v, at any depth, holds
 *  integers with delta == other - base. */
void
expectDeltas(const trace::JsonValue &v)
{
    if (v.find("delta") != nullptr) {
        const trace::JsonValue &base = at(v, "base"),
                               &other = at(v, "other"),
                               &delta = at(v, "delta");
        EXPECT_TRUE(base.isInt() && other.isInt() && delta.isInt() &&
                    delta.intValue() == other.intValue() - base.intValue())
            << "delta " << delta.intValue() << " != other "
            << other.intValue() << " - base " << base.intValue();
    }
    for (const auto &member : v.members())
        expectDeltas(member.second);
    for (const auto &element : v.array())
        expectDeltas(element);
}

/** One diff sink document (diff::writeJson): both run keys stamped,
 *  the build object, the headline fields, and every delta triple. */
void
expectDiffSink(const trace::JsonValue &doc)
{
    testutil::expectStamp(doc, {"run_key", "other_key"});
    testutil::expectBuild(at(doc, "build"));
    EXPECT_TRUE(at(doc, "speedup").isNumber()) << "speedup";
    EXPECT_TRUE(at(doc, "attribution").isString()) << "attribution";
    const trace::JsonValue &bandwidth = at(doc, "bandwidth");
    for (const trace::JsonValue *triple :
         {&at(doc, "cycles"), &at(bandwidth, "l2_bytes"),
          &at(bandwidth, "dram_bytes")})
        EXPECT_NE(triple->find("delta"), nullptr)
            << "cycles or bandwidth triple missing";
    expectDeltas(doc);
}

TEST(Fingerprint, StableAndSensitiveToConfigOnly)
{
    core::RunConfig a;
    core::RunConfig b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    core::RunConfig coop = a;
    coop.gpu.trace.coop = true;
    EXPECT_NE(a.fingerprint(), coop.fingerprint());

    core::RunConfig res = a;
    res.resolution = 64;
    EXPECT_NE(a.fingerprint(), res.fingerprint());

    // Observers are borrowed pointers outside the determinism
    // boundary: attaching one must not move the run identity.
    core::RunConfig observed = a;
    prof::Profiler profiler;
    observed.profiler = &profiler;
    EXPECT_EQ(a.fingerprint(), observed.fingerprint());
}

TEST(Fingerprint, StampedIntoOutcomeRunKey)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg;
    cfg.resolution = 24;
    const core::RunOutcome out = sim.run(cfg);
    EXPECT_TRUE(out.run_key.valid());
    EXPECT_EQ(out.run_key.scene, "wknd");
    EXPECT_EQ(out.run_key.shader, "pt");
    EXPECT_EQ(out.run_key.resolution, 24);
    EXPECT_EQ(out.run_key.fingerprint.substr(0, 2), "0x");
    EXPECT_EQ(out.run_key.fingerprint.size(), 18u);
}

TEST(Diff, WkndPairReproducesFig09Arithmetic)
{
    const core::Comparison cmp = wkndPair();
    const diff::RunDiff d =
        diff::diffRuns(diff::recordFromOutcome(cmp.base),
                       diff::recordFromOutcome(cmp.coop));

    // Exactly the same doubles, not within-epsilon.
    EXPECT_EQ(d.speedup, cmp.speedup());
    EXPECT_EQ(d.power_ratio, cmp.powerRatio());
    EXPECT_EQ(d.energy_ratio, cmp.energyRatio());
    EXPECT_EQ(d.edp_improvement, cmp.edpImprovement());
    EXPECT_EQ(std::uint64_t(d.cycles.base), cmp.base.gpu.cycles);
    EXPECT_EQ(std::uint64_t(d.cycles.other), cmp.coop.gpu.cycles);
    EXPECT_FALSE(d.same_fingerprint);
    EXPECT_GT(d.speedup, 1.0);
}

TEST(Diff, BucketDeltasConserveBitExactly)
{
    const core::Comparison cmp = wkndPair();
    const diff::RunDiff d =
        diff::diffRuns(diff::recordFromOutcome(cmp.base),
                       diff::recordFromOutcome(cmp.coop));
    ASSERT_TRUE(d.has_prof);
    ASSERT_FALSE(d.buckets.empty());

    std::int64_t sum = 0;
    for (const auto &nd : d.buckets)
        if (nd.name != "warp_buffer_full")
            sum += nd.d.delta();
    EXPECT_EQ(sum, d.resident_cycles.delta());

    // The memscope deltas conserve the same way: serving-level
    // deltas and depth-row deltas each sum to the node-fetch delta,
    // over depths in strictly ascending order.
    ASSERT_TRUE(d.has_memscope);
    const auto levelSum = [](const auto &level) {
        return level[0].delta() + level[1].delta() + level[2].delta();
    };
    EXPECT_EQ(levelSum(d.node_level), d.node_accesses.delta());
    std::int64_t accesses = 0, bytes = 0;
    int last_depth = 0;
    for (const auto &row : d.depths) {
        EXPECT_GT(row.depth, last_depth);
        last_depth = row.depth;
        EXPECT_EQ(levelSum(row.level), row.accesses.delta())
            << "depth " << row.depth;
        accesses += row.accesses.delta();
        bytes += row.bytes.delta();
    }
    EXPECT_EQ(accesses, d.node_accesses.delta());
    EXPECT_EQ(bytes, d.node_bytes.delta());
}

TEST(Diff, ReportRoundTripKeepsDoublesExact)
{
    const core::Comparison cmp = wkndPair();
    for (const core::RunOutcome *out : {&cmp.base, &cmp.coop}) {
        std::string err;
        const trace::JsonValue doc =
            trace::JsonValue::parse(core::toJson(*out), &err);
        ASSERT_TRUE(doc.valid()) << err;
        diff::RunRecord rec;
        ASSERT_TRUE(diff::recordFromReportJson(doc, &rec, &err)) << err;

        // Bit-equal, not within-epsilon: the report is the run's only
        // way into the diff engine, so it must lose nothing.
        EXPECT_EQ(rec.avg_watts, out->power.avgWatts());
        EXPECT_EQ(rec.total_joules, out->power.totalJoules());
        EXPECT_EQ(rec.edp, out->power.edp());
        EXPECT_EQ(rec.avg_thread_utilization,
                  out->gpu.avg_thread_utilization);
        EXPECT_EQ(std::uint64_t(rec.cycles), out->gpu.cycles);

        // The integer sections against the outcome's own fields, by
        // name and level, so a writer or reader that swaps two
        // buckets or two serving levels fails here.
        EXPECT_EQ(std::uint64_t(rec.l2_bytes), out->gpu.mem_sys.l2_bytes);
        EXPECT_EQ(std::uint64_t(rec.dram_bytes), out->gpu.dram.bytes);

        const auto &p = out->gpu.prof_summary;
        ASSERT_TRUE(rec.has_prof);
        EXPECT_EQ(std::uint64_t(rec.resident_cycles), p.resident_cycles);
        EXPECT_EQ(std::uint64_t(rec.rt_stall_cycles), p.rtStallCycles());
        ASSERT_EQ(rec.buckets.size(), std::size_t(prof::kNumBuckets));
        for (int b = 0; b < prof::kNumBuckets; ++b) {
            const auto &[name, cycles] = rec.buckets[std::size_t(b)];
            EXPECT_EQ(name, prof::bucketName(prof::Bucket(b)));
            EXPECT_EQ(std::uint64_t(cycles), p.buckets[std::size_t(b)])
                << name;
        }

        const auto &m = out->gpu.memscope_summary;
        ASSERT_TRUE(rec.has_memscope);
        EXPECT_EQ(std::uint64_t(rec.node_accesses), m.node_accesses);
        EXPECT_EQ(std::uint64_t(rec.node_bytes), m.node_bytes);
        for (std::size_t l = 0; l < 3; ++l)
            EXPECT_EQ(std::uint64_t(rec.node_level[l]), m.node_level[l])
                << "level " << l;
        ASSERT_EQ(rec.depths.size(), m.depths.size());
        for (std::size_t i = 0; i < m.depths.size(); ++i) {
            const auto &d = m.depths[i];
            const diff::DepthRow &r = rec.depths[i];
            EXPECT_EQ(r.depth, d.depth);
            EXPECT_EQ(std::uint64_t(r.accesses), d.accesses);
            EXPECT_EQ(std::uint64_t(r.bytes), d.bytes);
            for (std::size_t l = 0; l < 3; ++l)
                EXPECT_EQ(std::uint64_t(r.level[l]), d.level[l])
                    << "depth " << d.depth << " level " << l;
        }
    }
}

TEST(Diff, SeededByteMutantsOfAReportParseOrFailCleanly)
{
    std::ostringstream ss;
    core::writeJson(ss, wkndPair().base);
    const std::string valid = ss.str();

    // Every mutant either normalizes, or is rejected with a message
    // (Invalid parse, false from recordFromReportJson) or an
    // exception; the sanitizer builds run this too.
    geom::Pcg32 rng(0xd1ff);
    int loaded = 0;
    int rejected = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::string m = testutil::mutate(
            valid, testutil::Mutation(i % testutil::kNumMutations), rng);
        std::string err;
        diff::RunRecord rec;
        try {
            const trace::JsonValue doc = trace::JsonValue::parse(m, &err);
            if (doc.valid() && diff::recordFromReportJson(doc, &rec, &err)) {
                ++loaded;
                continue;
            }
            EXPECT_FALSE(err.empty()) << "mutant " << i;
        } catch (const std::exception &) {
        }
        ++rejected;
    }
    EXPECT_GT(loaded, 0);
    EXPECT_GT(rejected, 0);
}

TEST(Diff, JsonEmissionIsDeterministic)
{
    const core::Comparison cmp = wkndPair();
    const diff::RunDiff d =
        diff::diffRuns(diff::recordFromOutcome(cmp.base),
                       diff::recordFromOutcome(cmp.coop));
    EXPECT_EQ(diffJson(d), diffJson(d));

    // And across independent re-simulations of the same configs.
    const core::Comparison again = wkndPair();
    const diff::RunDiff d2 =
        diff::diffRuns(diff::recordFromOutcome(again.base),
                       diff::recordFromOutcome(again.coop));
    EXPECT_EQ(diffJson(d), diffJson(d2));
}

TEST(Diff, JsonSinkIsStampedAndEveryDeltaConserves)
{
    const core::Comparison cmp = wkndPair();
    const std::string json =
        diffJson(diff::diffRuns(diff::recordFromOutcome(cmp.base),
                                diff::recordFromOutcome(cmp.coop)));
    expectDiffSink(testutil::parseJson(json));
    // Seeded corruptions: a triple that no longer conserves, an
    // unstamped build, a malformed run key.
    const trace::JsonValue bumped = testutil::parseJson(
        testutil::corrupted(json, "\"other\":", "\"other\":1"));
    EXPECT_NONFATAL_FAILURE(expectDiffSink(bumped), "!= other");
    const trace::JsonValue no_revision =
        testutil::parseJson(testutil::corrupted(
            json, "\"revision\":\"", "\"revision\":0,\"was\":\""));
    EXPECT_NONFATAL_FAILURE(expectDiffSink(no_revision),
                            "build.revision");
    const trace::JsonValue bad_key = testutil::parseJson(
        testutil::corrupted(json, "\"fingerprint\":\"0x",
                            "\"fingerprint\":\"0X"));
    EXPECT_NONFATAL_FAILURE(expectDiffSink(bad_key),
                            "run_key.fingerprint");
}

TEST(Diff, IdentityDiffIsAllZero)
{
    const core::Simulation &sim = core::simulationFor("wknd");
    core::RunConfig cfg;
    cfg.resolution = 24;
    const core::RunOutcome out = sim.run(cfg);

    const diff::RunRecord rec = diff::recordFromOutcome(out);
    const diff::RunDiff d = diff::diffRuns(rec, rec);
    EXPECT_TRUE(d.same_fingerprint);
    EXPECT_EQ(d.cycles.delta(), 0);
    EXPECT_EQ(d.speedup, 1.0);
    EXPECT_TRUE(diff::attributionSummary(d).empty());
}

TEST(Diff, KeyMismatchIsExplained)
{
    const core::Simulation &wknd = core::simulationFor("wknd");
    const core::Simulation &fox = core::simulationFor("fox");
    core::RunConfig cfg;
    cfg.resolution = 24;
    const diff::RunRecord a =
        diff::recordFromOutcome(wknd.run(cfg));
    const diff::RunRecord b = diff::recordFromOutcome(fox.run(cfg));

    EXPECT_NE(diff::checkComparable(a, b).find("scene mismatch"),
              std::string::npos);
    EXPECT_TRUE(diff::checkComparable(a, a).empty());
}

TEST(Differ, SchemaV1ReportIsRejected)
{
    std::string err;
    const trace::JsonValue doc = trace::JsonValue::parse(
        R"({"scene":"wknd","resolution":32,"cycles":100})", &err);
    ASSERT_TRUE(doc.valid()) << err;
    diff::RunRecord rec;
    EXPECT_FALSE(diff::recordFromReportJson(doc, &rec, &err));
    EXPECT_NE(err.find("run_key"), std::string::npos);
}

/** wknd, fox and ship at 24x24, each base and CoopRT. */
std::vector<exec::Job>
smallCampaignJobs()
{
    std::vector<exec::Job> jobs;
    for (const char *scene : {"wknd", "fox", "ship"})
        for (const bool coop : {false, true}) {
            core::RunConfig cfg;
            cfg.resolution = 24;
            cfg.gpu.trace.coop = coop;
            jobs.push_back(exec::Job{
                scene, cfg,
                std::string(scene) + "/" + (coop ? "coop" : "base")});
        }
    return jobs;
}

/** Diff each job against its `--report-dir` report under
 *  @p baseline_dir, as campaign_cli --diff-baseline does. */
std::vector<diff::RunDiff>
diffAgainstReports(const std::vector<exec::JobResult> &results,
                   const std::string &baseline_dir)
{
    std::vector<diff::RunDiff> diffs;
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok) << r.tag;
        diff::RunRecord base;
        std::string error;
        EXPECT_TRUE(diff::loadReportFile(
            baseline_dir + "/" + exec::sanitizeTag(r.tag) +
                ".report.json",
            &base, &error))
            << error;
        diff::RunRecord other = diff::recordFromOutcome(r.outcome);
        other.source = r.tag;
        EXPECT_EQ(diff::checkComparable(base, other), "") << r.tag;
        diffs.push_back(diff::diffRuns(base, other));
    }
    return diffs;
}

/** Campaign diff sink (what campaign_cli --diff-baseline emits) for
 *  @p jobs worker threads, against reports in @p baseline_dir. */
std::string
campaignDiffSink(const std::string &baseline_dir, int jobs)
{
    exec::CampaignOptions opt;
    opt.jobs = jobs;
    opt.attach_profiler = true;
    std::ostringstream sink;
    for (const diff::RunDiff &d : diffAgainstReports(
             exec::runCampaign(smallCampaignJobs(), opt), baseline_dir))
        diff::writeJson(sink, d);
    return sink.str();
}

TEST(Diff, CampaignJobAgainstItsOwnReportIsExactIdentity)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cooprt_diff_identity_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    exec::CampaignOptions opt;
    opt.jobs = 2;
    opt.attach_profiler = true;
    opt.attach_memscope = true;
    opt.report_dir = dir.string();
    const auto results = exec::runCampaign(smallCampaignJobs(), opt);
    const auto diffs = diffAgainstReports(results, dir.string());
    ASSERT_EQ(diffs.size(), results.size());

    const auto expectZero = [](const diff::Delta &d, const char *what,
                               const std::string &tag) {
        EXPECT_EQ(d.delta(), 0) << tag << ": " << what;
    };
    for (std::size_t i = 0; i < diffs.size(); ++i) {
        const diff::RunDiff &d = diffs[i];
        const std::string &tag = results[i].tag;
        EXPECT_TRUE(d.same_fingerprint) << tag;
        expectZero(d.cycles, "cycles", tag);
        expectZero(d.l2_bytes, "l2_bytes", tag);
        expectZero(d.dram_bytes, "dram_bytes", tag);
        ASSERT_TRUE(d.has_prof) << tag;
        expectZero(d.resident_cycles, "resident_cycles", tag);
        expectZero(d.rt_stall_cycles, "rt_stall_cycles", tag);
        for (const auto &nd : d.buckets)
            expectZero(nd.d, nd.name.c_str(), tag);
        ASSERT_TRUE(d.has_memscope) << tag;
        expectZero(d.node_accesses, "node_accesses", tag);
        expectZero(d.node_bytes, "node_bytes", tag);
        for (const auto &row : d.depths) {
            expectZero(row.accesses, "depth accesses", tag);
            expectZero(row.bytes, "depth bytes", tag);
            for (const auto &level : row.level)
                expectZero(level, "depth level", tag);
        }
        // The ratios of a run with itself are exactly 1: the report
        // side and the live side carry the same doubles.
        EXPECT_EQ(d.speedup, 1.0) << tag;
        EXPECT_EQ(d.power_ratio, 1.0) << tag;
        EXPECT_EQ(d.energy_ratio, 1.0) << tag;
        EXPECT_EQ(d.edp_improvement, 1.0) << tag;
        EXPECT_EQ(d.utilization_base, d.utilization_other) << tag;
        EXPECT_TRUE(diff::attributionSummary(d).empty()) << tag;
    }
    fs::remove_all(dir);
}

TEST(Differ, CampaignDiffSinkIsJobsInvariant)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cooprt_diff_sink_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Baseline campaign: write per-job reports (the --report-dir
    // sink the diff baselines come from).
    exec::CampaignOptions base_opt;
    base_opt.jobs = 2;
    base_opt.attach_profiler = true;
    base_opt.report_dir = dir.string();
    const auto base_results =
        exec::runCampaign(smallCampaignJobs(), base_opt);
    for (const auto &r : base_results)
        ASSERT_TRUE(r.ok) << r.tag;

    const std::string serial = campaignDiffSink(dir.string(), 1);
    const std::string parallel = campaignDiffSink(dir.string(), 4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    std::istringstream lines(serial);
    for (std::string line; std::getline(lines, line);)
        expectDiffSink(testutil::parseJson(line));

    fs::remove_all(dir);
}

} // namespace
