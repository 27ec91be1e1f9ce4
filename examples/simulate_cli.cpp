/**
 * @file
 * The command-line front end to the simulator: run any scene under
 * any configuration and get human-readable or JSON output. This is
 * the "driver binary" a downstream user scripts against.
 *
 *   ./simulate_cli --scene fox --coop --subwarp 8 --json
 *   ./simulate_cli --scene spnza --shader ao --resolution 64
 *   ./simulate_cli --list
 *
 * Flags:
 *   --scene <label>       scene to simulate (default crnvl; query
 *                         shaders default to ptsu / amrs instead)
 *   --shader pt|ao|sh|knn|radius|contain
 *                         workload (default pt). knn/radius run
 *                         nearest-neighbor / fixed-radius search over
 *                         point-cloud scenes; contain runs point
 *                         containment over AMR scenes (src/query/)
 *   --resolution N        square frame size (default: scene's bench)
 *   --coop                enable CoopRT
 *   --subwarp N           CoopRT helper scope (4/8/16/32)
 *   --warp-buffer N       RT warp-buffer entries
 *   --prefetch            treelet-style child prefetch
 *   --predictor           intersection predictor
 *   --bfs                 BFS traversal order
 *   --mobile              mobile GPU configuration (composes with
 *                         the traversal flags in any order)
 *   --bounces N           path-tracing bounce limit
 *   --query-k N           k for the knn workload (default 4)
 *   --query-radius R      search radius for the radius workload
 *   --query-steps N       locate-advect rounds for contain
 *   --no-oracle           skip the brute-force oracle cross-check
 *                         that query runs perform by default
 *   --json                emit a JSON report instead of text
 *   --list                list scene labels and exit
 *   --version             print build provenance (git revision,
 *                         compiler, COOPRT_CHECK) and exit
 *
 * Observability (see DESIGN.md "Observability" and src/trace/):
 *   --trace FILE          write Chrome trace_event JSON (open in
 *                         chrome://tracing or https://ui.perfetto.dev)
 *   --metrics FILE        write the sampled metric time-series CSV
 *   --trace-filter PAT    restrict events/metric columns, e.g.
 *                         "rtunit.*" or "mem.l2.*,rtunit.sm0.*"
 *   --trace-capacity N    event ring-buffer capacity (default 1M)
 *
 * Stall-attribution profiling (see DESIGN.md "Profiling" / src/prof/):
 *   --profile             collect the warp stall taxonomy and print a
 *                         per-bucket summary (adds a "prof" object to
 *                         --json reports)
 *   --profile-out FILE    write folded flamegraph stacks, one
 *                         `scene;sm<i>;rtunit;<bucket> N` line each —
 *                         pipe into flamegraph.pl or load in
 *                         speedscope (implies --profile)
 *   --profile-json FILE   write the hierarchical JSON profile
 *                         (implies --profile)
 *
 * Ray-level provenance tracing (DESIGN.md "Ray provenance" /
 * src/raytrace/):
 *   --ray-trace           sample K rays per warp, record their
 *                         lifecycle events and print the per-SM
 *                         critical-path attribution (adds a "ray"
 *                         object to --json reports; sampled rays get
 *                         their own tracks in --trace exports)
 *   --ray-sample-k N      rays sampled per warp (default 4; implies
 *                         --ray-trace)
 *   --ray-out FILE        write the per-ray statistics summary —
 *                         JSON, or CSV when FILE ends in ".csv"
 *                         (implies --ray-trace)
 *
 * Memory & BVH-topology profiling (DESIGN.md "Memscope" /
 * src/memscope/):
 *   --memscope            tag every node fetch with node id, tree
 *                         depth and serving level; print per-depth
 *                         miss/divergence rows and the hot-node table
 *                         (adds a "memscope" object to --json reports
 *                         and memscope counter tracks to --trace)
 *   --memscope-out FILE   write folded `scene;depth<d>;node<id> N`
 *                         stacks for flamegraph.pl / speedscope
 *                         (implies --memscope)
 *   --memscope-json FILE  write the hierarchical JSON memscope
 *                         profile (implies --memscope)
 *
 * Host-side telemetry (DESIGN.md "Telemetry" / src/telemetry/):
 *   --telemetry           record phase-scoped wall-clock spans
 *                         (scene load, BVH build, warmup, sim loop,
 *                         report) and RSS; print a summary line.
 *                         Unlike the observers above this measures
 *                         the simulator process, not the simulated
 *                         GPU; simulated results stay bit-identical.
 *   --telemetry-out FILE  write the per-run telemetry JSON sink —
 *                         deterministic "sim" fields plus a "host"
 *                         object with the wall-clock/RSS fields
 *                         (implies --telemetry)
 *   --heartbeat-s S       print a live progress line (simulated
 *                         cycle, rays retired, RSS) to stderr every
 *                         S seconds while the run executes; S must
 *                         be positive (implies --telemetry)
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include <optional>

#include "cli_args.hpp"
#include "core/build_info.hpp"
#include "core/observers.hpp"
#include "core/report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

int
usage(const char *msg = nullptr)
{
    if (msg)
        std::cerr << "error: " << msg << "\n";
    std::cerr << "see the header of simulate_cli.cpp or run --help\n";
    return 2;
}

void
printVersion(std::ostream &os)
{
    os << "cooprt simulate_cli\n"
       << "  revision:   " << cooprt::build::kGitRevision
       << (cooprt::build::kGitDirty ? " (dirty)" : "") << "\n"
       << "  compiler:   " << cooprt::build::kCompiler << "\n"
       << "  build type: " << cooprt::build::kBuildType << "\n"
       << "  check:      "
       << (cooprt::build::kCheckEnabled ? "on" : "off") << "\n"
       << "  schema:     v" << cooprt::trace::kSchemaVersion << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cooprt;

    std::string scene_label = "crnvl";
    bool scene_explicit = false;
    core::RunConfig cfg;
    bool json = false;
    bool mobile = false;
    core::ObserverRequest req;
    double heartbeat_s = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--version") {
            printVersion(std::cout);
            return 0;
        } else if (a == "--list") {
            for (const auto &l : scene::SceneRegistry::allLabels())
                std::cout << l << "\n";
            for (const auto &l : scene::SceneRegistry::queryLabels())
                std::cout << l << "\n";
            return 0;
        } else if (a == "--help" || a == "-h") {
            std::cout <<
                "usage: simulate_cli [--scene L]\n"
                "  [--shader pt|ao|sh|knn|radius|contain]\n"
                "  [--resolution N] [--coop] [--subwarp N]\n"
                "  [--warp-buffer N] [--prefetch] [--predictor]\n"
                "  [--bfs] [--mobile] [--bounces N]\n"
                "  [--query-k N] [--query-radius R] [--query-steps N]\n"
                "  [--no-oracle] [--json] [--list] [--version]\n"
                "  [--trace FILE] [--metrics FILE]\n"
                "  [--trace-filter PAT] [--trace-capacity N]\n"
                "  [--profile] [--profile-out FILE]\n"
                "  [--profile-json FILE]\n"
                "  [--ray-trace] [--ray-sample-k N] [--ray-out FILE]\n"
                "  [--memscope] [--memscope-out FILE]\n"
                "  [--memscope-json FILE]\n"
                "  [--telemetry] [--telemetry-out FILE]\n"
                "  [--heartbeat-s S]\n";
            return 0;
        } else if (a == "--scene") {
            scene_label = next("--scene");
            scene_explicit = true;
        } else if (a == "--shader") {
            const std::string s = next("--shader");
            if (s == "pt")
                cfg.shader = core::ShaderKind::PathTracing;
            else if (s == "ao")
                cfg.shader = core::ShaderKind::AmbientOcclusion;
            else if (s == "sh")
                cfg.shader = core::ShaderKind::Shadow;
            else if (s == "knn")
                cfg.shader = core::ShaderKind::QueryKnn;
            else if (s == "radius")
                cfg.shader = core::ShaderKind::QueryRadius;
            else if (s == "contain")
                cfg.shader = core::ShaderKind::QueryContain;
            else
                return usage(
                    "unknown shader (pt|ao|sh|knn|radius|contain)");
        } else if (a == "--resolution") {
            cfg.resolution =
                cli::intArg("--resolution", next("--resolution"), 1,
                            16384);
        } else if (a == "--coop") {
            cfg.gpu.trace.coop = true;
        } else if (a == "--subwarp") {
            cfg.gpu.trace.subwarp_size = cli::intArg(
                "--subwarp", next("--subwarp"), 4, rtunit::kWarpSize);
        } else if (a == "--warp-buffer") {
            cfg.gpu.trace.warp_buffer_entries =
                cli::intArg("--warp-buffer", next("--warp-buffer"), 1,
                            64);
        } else if (a == "--prefetch") {
            cfg.gpu.trace.child_prefetch = true;
        } else if (a == "--predictor") {
            cfg.gpu.trace.intersection_predictor = true;
        } else if (a == "--bfs") {
            cfg.gpu.trace.order = rtunit::TraversalOrder::Bfs;
        } else if (a == "--mobile") {
            mobile = true;
        } else if (a == "--bounces") {
            cfg.pt.max_bounces =
                cli::intArg("--bounces", next("--bounces"), 0);
        } else if (a == "--query-k") {
            cfg.query.k = cli::intArg("--query-k", next("--query-k"), 1);
        } else if (a == "--query-radius") {
            cfg.query.radius = float(
                cli::realArg("--query-radius", next("--query-radius")));
        } else if (a == "--query-steps") {
            cfg.query.steps =
                cli::intArg("--query-steps", next("--query-steps"), 1);
        } else if (a == "--no-oracle") {
            cfg.query.verify = false;
        } else if (a == "--json") {
            json = true;
        } else if (a == "--trace") {
            req.sinks.trace = next("--trace");
        } else if (a == "--metrics") {
            req.sinks.metrics = next("--metrics");
        } else if (a == "--trace-filter") {
            req.trace.filter = next("--trace-filter");
        } else if (a == "--trace-capacity") {
            req.trace.ring_capacity = std::size_t(cli::intArg(
                "--trace-capacity", next("--trace-capacity"), 1));
        } else if (a == "--profile") {
            req.profiler = true;
        } else if (a == "--profile-out") {
            req.sinks.prof_folded = next("--profile-out");
        } else if (a == "--profile-json") {
            req.sinks.prof_json = next("--profile-json");
        } else if (a == "--ray-trace") {
            req.ray_recorder = true;
        } else if (a == "--ray-sample-k") {
            req.ray.sample_k =
                cli::intArg("--ray-sample-k", next("--ray-sample-k"), 1);
            req.ray_recorder = true;
        } else if (a == "--ray-out") {
            req.sinks.raystats = next("--ray-out");
        } else if (a == "--memscope") {
            req.memscope = true;
        } else if (a == "--memscope-out") {
            req.sinks.memscope_folded = next("--memscope-out");
        } else if (a == "--memscope-json") {
            req.sinks.memscope_json = next("--memscope-json");
        } else if (a == "--telemetry") {
            req.telemetry = true;
        } else if (a == "--telemetry-out") {
            req.sinks.telemetry = next("--telemetry-out");
        } else if (a == "--heartbeat-s") {
            heartbeat_s =
                cli::realArg("--heartbeat-s", next("--heartbeat-s"));
            req.telemetry = true;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }

    // The mobile GPU replaces the machine, not the traversal knobs
    // parsed above, so flag order does not matter.
    if (mobile) {
        const rtunit::TraceConfig trace = cfg.gpu.trace;
        cfg.gpu = gpu::GpuConfig::mobileBench();
        cfg.gpu.trace = trace;
    }

    // Query workloads need a query scene; when the user didn't pick
    // one, swap the rendering default for the matching query default
    // (point cloud for knn/radius, AMR hierarchy for contain).
    if (core::isQueryShader(cfg.shader) && !scene_explicit)
        scene_label = cfg.shader == core::ShaderKind::QueryContain
                          ? "amrs"
                          : "ptsu";
    if (!scene::SceneRegistry::has(scene_label))
        return usage(("unknown scene " + scene_label).c_str());
    if (core::isQueryShader(cfg.shader)) {
        const auto kind = scene::SceneRegistry::get(scene_label).kind;
        const bool want_amr =
            cfg.shader == core::ShaderKind::QueryContain;
        if (kind != (want_amr ? scene::SceneKind::AmrCells
                              : scene::SceneKind::PointCloud))
            return usage((std::string("query shaders need a ") +
                          (want_amr ? "cell (amr*)"
                                    : "point-cloud (pts*)") +
                          " scene, got '" + scene_label + "'")
                             .c_str());
    } else if (scene::SceneRegistry::get(scene_label).kind !=
               scene::SceneKind::Triangles) {
        return usage(("rendering shaders need a triangle scene; '" +
                      scene_label + "' is a query scene (use "
                      "--shader knn/radius/contain)")
                         .c_str());
    }
    try {
        cfg.gpu.trace.validate();
    } catch (const std::exception &e) {
        return usage(e.what());
    }

    core::ObserverSet observers(std::move(req), cfg);
    const core::Simulation &sim = core::simulationFor(scene_label);
    core::RunOutcome out;
    {
        // Heartbeat scope: lives exactly as long as the run, reading
        // the recorder's lock-free live gauges from its own thread.
        std::optional<telemetry::Heartbeat> heartbeat;
        if (heartbeat_s > 0.0)
            heartbeat.emplace(
                heartbeat_s,
                [&] {
                    const telemetry::Rss rss = telemetry::readRss();
                    return scene_label + " cycle " +
                           std::to_string(cfg.telemetry->liveCycle()) +
                           ", rays retired " +
                           std::to_string(cfg.telemetry->liveRays()) +
                           ", rss " +
                           std::to_string(rss.current_kb / 1024) +
                           " MB";
                },
                std::cerr);
        out = sim.run(cfg);
    }
    try {
        observers.writeSinks(out, &std::cerr);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    if (cfg.trace_session != nullptr) {
        const auto &ts = out.traceSummary();
        std::cerr << "[trace] events recorded " << ts.events_recorded
                  << " (dropped " << ts.events_dropped
                  << "), metric samples " << ts.metric_samples
                  << " over " << ts.registered_metrics
                  << " metrics\n";
    }

    if (json) {
        core::writeJson(std::cout, out);
        return 0;
    }
    std::cout << "scene " << out.scene << " @" << out.resolution << "x"
              << out.resolution
              << (cfg.gpu.trace.coop ? " [CoopRT]" : " [baseline]")
              << "\n";
    std::cout << "  cycles:           " << out.gpu.cycles << "\n";
    std::cout << "  trace_rays:       " << out.gpu.rt.retired_warps
              << "\n";
    std::cout << "  node fetches:     "
              << out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches
              << " (steals " << out.gpu.rt.steals << ")\n";
    std::cout << "  thread util:      "
              << 100.0 * out.gpu.avg_thread_utilization << "%\n";
    std::cout << "  L1/L2 miss:       " << out.gpu.l1.missRate() << " / "
              << out.gpu.l2.missRate() << "\n";
    std::cout << "  DRAM util:        " << out.gpu.dram_utilization
              << "\n";
    std::cout << "  avg power:        " << out.power.avgWatts()
              << " W\n";
    std::cout << "  energy:           " << out.power.totalJoules()
              << " J (EDP " << out.power.edp() << ")\n";
    if (out.query.enabled) {
        std::printf("  query:            %s, %llu queries, "
                    "%llu rounds, %llu found, checksum 0x%llx\n",
                    out.query.workload.c_str(),
                    static_cast<unsigned long long>(out.query.queries),
                    static_cast<unsigned long long>(out.query.rounds),
                    static_cast<unsigned long long>(out.query.found),
                    static_cast<unsigned long long>(
                        out.query.checksum));
        if (out.query.verified)
            std::printf("  oracle:           %llu checked, "
                        "%llu mismatches (%s)\n",
                        static_cast<unsigned long long>(
                            out.query.oracle_checked),
                        static_cast<unsigned long long>(
                            out.query.oracle_mismatches),
                        out.query.oracleMatches() ? "agree"
                                                  : "DISAGREE");
    }
    if (cfg.profiler != nullptr) {
        const auto &p = out.gpu.prof_summary;
        std::cout << "  stall taxonomy (" << p.resident_cycles
                  << " warp-resident cycles):\n";
        for (int b = 0; b < prof::kNumBuckets; ++b) {
            const std::uint64_t c = p.buckets[std::size_t(b)];
            if (c == 0)
                continue;
            const double denom = double(p.rtStallCycles());
            std::printf("    %-16s %12llu  %5.1f%%\n",
                        prof::bucketName(prof::Bucket(b)),
                        static_cast<unsigned long long>(c),
                        denom > 0 ? 100.0 * double(c) / denom : 0.0);
        }
    }
    if (cfg.ray_recorder != nullptr) {
        const auto &r = out.gpu.ray_summary;
        std::cout << "  ray provenance:   " << r.stats.rays_sampled
                  << " rays over " << r.stats.warps_sampled << "/"
                  << r.stats.warps_seen << " warps, "
                  << r.stats.events_recorded << " events (dropped "
                  << r.stats.events_dropped << ")\n";
        raytrace::writeCriticalPath(std::cout,
                                    cfg.ray_recorder->criticalPath());
    }
    if (cfg.memscope != nullptr) {
        const auto &m = out.gpu.memscope_summary;
        std::cout << "  memscope:         " << m.node_accesses
                  << " node fetches, " << m.node_bytes
                  << " B (l1 " << m.node_level[0] << " / l2 "
                  << m.node_level[1] << " / dram " << m.node_level[2]
                  << ")\n";
        std::cout << "  per-depth attribution:\n";
        for (const auto &d : m.depths)
            std::printf(
                "    depth %2d  %10llu fetches  miss %5.1f%%  "
                "avg lanes %5.2f\n",
                d.depth,
                static_cast<unsigned long long>(d.accesses),
                100.0 * d.missRate(), d.avgLanes());
        cfg.memscope->writeHotNodes(std::cout, 10);
    }
    if (cfg.telemetry != nullptr) {
        const auto &t = cfg.telemetry->summary();
        std::printf("  telemetry:        sim %.3f s, rss %llu/%llu MB\n",
                    t.sim_seconds,
                    static_cast<unsigned long long>(
                        t.rss.current_kb / 1024),
                    static_cast<unsigned long long>(
                        t.rss.peak_kb / 1024));
        std::cout << "  phases:          ";
        for (int p = 0; p < telemetry::kNumPhases; ++p) {
            const auto phase = telemetry::Phase(p);
            std::printf(" %s %.3fs",
                        telemetry::phaseName(phase),
                        t.phase(phase).seconds);
        }
        std::cout << "\n";
    }
    return 0;
}
