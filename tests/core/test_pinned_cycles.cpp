/**
 * @file
 * Pinned end-to-end cycle counts. These exact values were captured
 * from the repository's reference build and pin the timing model
 * bit-for-bit: *any* change to reported cycles — including from code
 * that claims to be purely observational (tracing, COOPRT_CHECK
 * audits) — fails here and must be an explicit, reviewed re-pin.
 *
 * The default build and the COOPRT_CHECK build must both pass this
 * file unchanged; that is the audit layer's zero-perturbation proof.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/simulation.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;

core::RunOutcome
runPinned(const std::string &scene, int resolution,
          core::ShaderKind shader, bool coop,
          raytrace::Recorder *ray = nullptr,
          memscope::Collector *mscope = nullptr,
          telemetry::Recorder *telem = nullptr)
{
    core::RunConfig cfg;
    cfg.resolution = resolution;
    cfg.shader = shader;
    cfg.gpu.trace.coop = coop;
    cfg.ray_recorder = ray;
    cfg.memscope = mscope;
    cfg.telemetry = telem;
    return core::simulationFor(scene).run(cfg);
}

TEST(PinnedCycles, WkndPathTracingBaseline)
{
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, false);
    EXPECT_EQ(out.gpu.cycles, 34868u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 4545u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 2430u);
    EXPECT_EQ(out.gpu.rt.box_tests, 45996u);
    EXPECT_EQ(out.gpu.rt.tri_tests, 11363u);
    EXPECT_EQ(out.gpu.rt.steals, 0u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 844u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 155u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 11839u);
    EXPECT_EQ(out.gpu.l1.accesses, 10863u);
    EXPECT_EQ(out.gpu.dram.bytes, 158336u);
    EXPECT_EQ(out.gpu.stalls.rt, 310412u);
}

TEST(PinnedCycles, WkndPathTracingCoop)
{
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 6060u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 3028u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 155u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoop)
{
    const auto out = runPinned(
        "bunny", 24, core::ShaderKind::AmbientOcclusion, true);
    EXPECT_EQ(out.gpu.cycles, 17550u);
    EXPECT_EQ(out.gpu.rt.steals, 5129u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
}

TEST(PinnedCycles, ShipShadowBaseline)
{
    const auto out =
        runPinned("ship", 24, core::ShaderKind::Shadow, false);
    EXPECT_EQ(out.gpu.cycles, 36233u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5123u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
}

// The ray-provenance recorder claims to be purely observational; the
// pins below repeat two coop and one base run with a recorder
// attached and demand the exact same cycle counts as above.

TEST(PinnedCycles, WkndPathTracingCoopWithRayRecorder)
{
    raytrace::Recorder ray;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true,
                               &ray);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
    EXPECT_TRUE(out.gpu.ray_summary.enabled);
    EXPECT_GT(ray.stats().rays_sampled, 0u);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithRayRecorder)
{
    raytrace::Recorder ray;
    const auto out = runPinned(
        "bunny", 24, core::ShaderKind::AmbientOcclusion, true, &ray);
    EXPECT_EQ(out.gpu.cycles, 17550u);
    EXPECT_EQ(out.gpu.rt.steals, 5129u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
}

TEST(PinnedCycles, ShipShadowBaselineWithRayRecorder)
{
    raytrace::Recorder ray;
    const auto out =
        runPinned("ship", 24, core::ShaderKind::Shadow, false, &ray);
    EXPECT_EQ(out.gpu.cycles, 36233u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5123u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
}

// The memscope collector also claims to be purely observational; the
// four seed pins are repeated with memscope attached and must report
// the exact same cycle counts, plus a profiler/counter cross-check:
// every RT-unit node or leaf fetch is exactly one memscope record.

std::uint64_t
memscopeAccesses(const memscope::Collector &mscope)
{
    std::uint64_t total = 0;
    for (int i = 0; i < mscope.unitCount(); ++i)
        total += mscope.unitAt(i).accesses;
    return total;
}

TEST(PinnedCycles, WkndPathTracingBaselineWithMemscope)
{
    memscope::Collector mscope;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, false,
                               nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 34868u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 4545u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 2430u);
    EXPECT_EQ(out.gpu.l1.accesses, 10863u);
    EXPECT_EQ(out.gpu.dram.bytes, 158336u);
    EXPECT_EQ(out.gpu.stalls.rt, 310412u);
    EXPECT_TRUE(out.gpu.memscope_summary.enabled);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

TEST(PinnedCycles, WkndPathTracingCoopWithMemscope)
{
    memscope::Collector mscope;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true,
                               nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithMemscope)
{
    memscope::Collector mscope;
    const auto out =
        runPinned("bunny", 24, core::ShaderKind::AmbientOcclusion,
                  true, nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 17550u);
    EXPECT_EQ(out.gpu.rt.steals, 5129u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

TEST(PinnedCycles, ShipShadowBaselineWithMemscope)
{
    memscope::Collector mscope;
    const auto out = runPinned("ship", 24, core::ShaderKind::Shadow,
                               false, nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 36233u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5123u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

// The host-telemetry recorder watches the simulator process (wall
// clock, RSS), not the simulated machine; the four seed pins are
// repeated with a recorder attached and must report the exact same
// cycle counts, while the telemetry summary's deterministic fields
// must mirror the outcome.

TEST(PinnedCycles, WkndPathTracingBaselineWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, false,
                               nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 34868u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 4545u);
    EXPECT_EQ(out.gpu.l1.accesses, 10863u);
    EXPECT_EQ(out.gpu.dram.bytes, 158336u);
    EXPECT_EQ(out.gpu.stalls.rt, 310412u);
    EXPECT_TRUE(out.telemetry.enabled);
    EXPECT_EQ(out.telemetry.cycles, out.gpu.cycles);
    EXPECT_EQ(out.telemetry.rays_retired, out.gpu.rt.retired_warps);
}

TEST(PinnedCycles, WkndPathTracingCoopWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true,
                               nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
    EXPECT_EQ(out.telemetry.cycles, out.gpu.cycles);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out =
        runPinned("bunny", 24, core::ShaderKind::AmbientOcclusion,
                  true, nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 17550u);
    EXPECT_EQ(out.gpu.rt.steals, 5129u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
    EXPECT_EQ(out.telemetry.rays_retired, 78u);
}

TEST(PinnedCycles, ShipShadowBaselineWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out = runPinned("ship", 24, core::ShaderKind::Shadow,
                               false, nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 36233u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5123u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
    EXPECT_EQ(out.telemetry.cycles, 36233u);
}

// Every observer at once — profiler, memscope, ray recorder,
// telemetry and a tracing + metrics session, all fed by one RT-unit
// event stream — must leave the four seed pins exactly where they
// are.

core::RunOutcome
runWithAllObservers(const std::string &scene, int resolution,
                    core::ShaderKind shader, bool coop)
{
    // The session's registry must outlive the observers it serves.
    trace::SessionOptions opt;
    opt.events = true;
    opt.metrics = true;
    trace::Session session(opt);
    prof::Profiler prof;
    memscope::Collector mscope;
    raytrace::Recorder ray;
    telemetry::Recorder telem;
    core::RunConfig cfg;
    cfg.resolution = resolution;
    cfg.shader = shader;
    cfg.gpu.trace.coop = coop;
    cfg.profiler = &prof;
    cfg.memscope = &mscope;
    cfg.ray_recorder = &ray;
    cfg.telemetry = &telem;
    cfg.trace_session = &session;
    const core::RunOutcome out =
        core::simulationFor(scene).run(cfg);
    EXPECT_EQ(prof.residentCycles(), out.gpu.rt.retired_trace_latency);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
    return out;
}

TEST(PinnedCycles, WkndPathTracingBaselineWithAllObservers)
{
    const auto out = runWithAllObservers(
        "wknd", 32, core::ShaderKind::PathTracing, false);
    EXPECT_EQ(out.gpu.cycles, 34868u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 4545u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 2430u);
    EXPECT_EQ(out.gpu.rt.box_tests, 45996u);
    EXPECT_EQ(out.gpu.rt.tri_tests, 11363u);
    EXPECT_EQ(out.gpu.rt.steals, 0u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 844u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 155u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 11839u);
    EXPECT_EQ(out.gpu.l1.accesses, 10863u);
    EXPECT_EQ(out.gpu.dram.bytes, 158336u);
    EXPECT_EQ(out.gpu.stalls.rt, 310412u);
}

TEST(PinnedCycles, WkndPathTracingCoopWithAllObservers)
{
    const auto out = runWithAllObservers(
        "wknd", 32, core::ShaderKind::PathTracing, true);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 6060u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 3028u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 155u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithAllObservers)
{
    const auto out = runWithAllObservers(
        "bunny", 24, core::ShaderKind::AmbientOcclusion, true);
    EXPECT_EQ(out.gpu.cycles, 17550u);
    EXPECT_EQ(out.gpu.rt.steals, 5129u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
}

TEST(PinnedCycles, ShipShadowBaselineWithAllObservers)
{
    const auto out = runWithAllObservers(
        "ship", 24, core::ShaderKind::Shadow, false);
    EXPECT_EQ(out.gpu.cycles, 36233u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5123u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
}

// Every TraceConfig knob of the RT unit, one row each, on a small
// divergent fox frame: four SMs keep several warps resident so the
// scheduler and warp-buffer rows differ, and the 24 px frame is deep
// enough to overflow the 16-entry stack. Values: cycles, node
// fetches, leaf fetches, steals, stale pops, stack overflows.

struct Variant
{
    const char *name;
    core::ShaderKind shader;
    void (*apply)(rtunit::TraceConfig &);
    std::array<std::uint64_t, 6> pinned;
};

// gtest's default printer dumps the raw bytes (pointers included) into
// the "# GetParam() = ..." comment that gtest_discover_tests keeps in
// the ctest name; printing the variant name keeps that name stable
// from build to build.
void PrintTo(const Variant &v, std::ostream *os) { *os << v.name; }

using Cfg = rtunit::TraceConfig;
constexpr auto kPt = core::ShaderKind::PathTracing;

const Variant kVariants[] = {
    {"CoopSubwarp4", kPt, [](Cfg &t) { t.coop = true; t.subwarp_size = 4; },
     {1006419, 100862, 90069, 18573, 4747, 1801}},
    {"CoopSubwarp8", kPt, [](Cfg &t) { t.coop = true; t.subwarp_size = 8; },
     {731159, 101904, 90411, 28354, 5574, 1531}},
    {"CoopSubwarp16", kPt,
     [](Cfg &t) { t.coop = true; t.subwarp_size = 16; },
     {674195, 103456, 90866, 36431, 6420, 1593}},
    {"CoopHelperMayBePending", kPt,
     [](Cfg &t) { t.coop = true; t.helper_requires_idle = false; },
     {1094945, 102158, 91151, 3376617, 5017, 1895}},
    {"CoopLbuMoves2", kPt,
     [](Cfg &t) { t.coop = true; t.lbu_moves_per_cycle = 2; },
     {662824, 105118, 91648, 42114, 7080, 1517}},
    {"CoopStealFromBottom", kPt,
     [](Cfg &t) { t.coop = true; t.steal_from_bottom = true; },
     {644430, 106625, 92139, 41854, 7922, 1471}},
    {"BaseBfs", kPt, [](Cfg &t) { t.order = rtunit::TraversalOrder::Bfs; },
     {2912661, 143584, 99430, 0, 59913, 272571}},
    {"CoopBfs", kPt,
     [](Cfg &t) { t.coop = true; t.order = rtunit::TraversalOrder::Bfs; },
     {752881, 136996, 102250, 60778, 48050, 191534}},
    {"CoopGreedyThenOldest", kPt,
     [](Cfg &t) {
         t.coop = true;
         t.sched = rtunit::WarpSchedPolicy::GreedyThenOldest;
     },
     {663929, 106008, 92277, 42990, 7154, 1507}},
    {"CoopOldestFirst", kPt,
     [](Cfg &t) {
         t.coop = true;
         t.sched = rtunit::WarpSchedPolicy::OldestFirst;
     },
     {654572, 105924, 92257, 42691, 6801, 1486}},
    {"CoopWarpBuffer8", kPt,
     [](Cfg &t) { t.coop = true; t.warp_buffer_entries = 8; },
     {656571, 105876, 91894, 43293, 6972, 1497}},
    {"CoopChildPrefetch", kPt,
     [](Cfg &t) { t.coop = true; t.child_prefetch = true; },
     {655108, 105428, 92091, 41857, 7009, 1501}},
    {"CoopPredictorAo", core::ShaderKind::AmbientOcclusion,
     [](Cfg &t) { t.coop = true; t.intersection_predictor = true; },
     {369267, 88787, 75746, 26349, 10170, 1632}},
    {"CoopAnyHitShadow", core::ShaderKind::Shadow,
     [](Cfg &t) { t.coop = true; },
     {276779, 81668, 61871, 22584, 15170, 1865}},
};

class FoxVariant : public ::testing::TestWithParam<Variant>
{
};

TEST_P(FoxVariant, Pinned)
{
    const Variant &v = GetParam();
    core::RunConfig cfg;
    cfg.gpu = gpu::GpuConfig::rtx2060HighOccupancy();
    cfg.resolution = 24;
    cfg.shader = v.shader;
    v.apply(cfg.gpu.trace);
    const auto out = core::simulationFor("fox").run(cfg);
    const std::array<std::uint64_t, 6> got = {
        out.gpu.cycles,          out.gpu.rt.node_fetches,
        out.gpu.rt.leaf_fetches, out.gpu.rt.steals,
        out.gpu.rt.stale_pops,   out.gpu.rt.stack_overflows};
    EXPECT_EQ(got, v.pinned);
    EXPECT_GT(out.gpu.rt.stack_overflows, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedCycles, FoxVariant, ::testing::ValuesIn(kVariants),
    [](const ::testing::TestParamInfo<Variant> &info) {
        return std::string(info.param.name);
    });

} // namespace
