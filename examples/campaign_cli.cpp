/**
 * @file
 * Campaign driver over the `cooprt::exec` engine: expand a
 * scenes × configs matrix into jobs, run them across the
 * worker pool, and emit a summary table plus optional
 * JSON-lines results. Parallel output is byte-identical to
 * `--jobs 1` (see DESIGN.md "Campaign engine").
 *
 *   ./campaign_cli --matrix wknd,ship x base,coop --jobs 8
 *   ./campaign_cli --scenes fox --configs base,coop,sw8 --json-out r.ndjson
 *   ./campaign_cli --configs base,coop --retries 1 --timeout-s 600
 *
 * Flags:
 *   --matrix S x C        scene list and config list in one flag
 *                         (either side may be "all"); equivalent to
 *                         --scenes S --configs C
 *   --scenes a,b,c        scene axis (default: all 15 rendering
 *                         scenes; query shaders default to their
 *                         matching query scenes instead — point
 *                         clouds for knn/radius, AMR grids for
 *                         contain — and "all" resolves the same way)
 *   --configs c1,c2       config axis (default: base,coop); see
 *                         --list-configs for the named presets
 *   --shader pt|ao|sh|knn|radius|contain
 *                         workload applied to every config (query
 *                         workloads: see src/query/)
 *   --resolution N        square frame size (default: scene's bench)
 *   --jobs N              worker threads (default: hardware
 *                         concurrency)
 *   --retries K           extra attempts after a thrown job failure
 *   --timeout-s T         per-job wall-clock budget in seconds
 *   --json-out FILE       append one JSON line per job; "-" writes
 *                         the lines to stdout (and the summary table
 *                         moves to stderr, so stdout stays pure JSON)
 *   --report-dir DIR      per-job schema-stamped run report
 *                         (`<tag>.report.json`) — the files
 *                         diff_cli and --diff-baseline consume;
 *                         byte-identical across --jobs counts
 *   --metrics-dir DIR     per-job metrics CSV, named by job tag
 *   --profile-dir DIR     per-job folded + JSON stall profiles
 *   --ray-dir DIR         per-job ray-provenance stats JSON, named
 *                         by job tag (see DESIGN.md "Ray provenance")
 *   --ray-sample-k N      rays sampled per warp for --ray-dir
 *                         recorders (default 4)
 *   --memscope-dir DIR    per-job memscope JSON + folded node
 *                         heatmaps, named by job tag (see DESIGN.md
 *                         "Memory & BVH-topology profiling")
 *   --csv                 CSV summary table
 *   --list-configs        list named configs and exit
 *   --version             print build provenance (git revision,
 *                         compiler, COOPRT_CHECK) and exit
 *
 * Differential attribution (DESIGN.md section 18 / src/diff/):
 *   --diff-baseline DIR   diff every successful job against the
 *                         matching `<tag>.report.json` under DIR (a
 *                         previous run's --report-dir); requires
 *                         --diff-out. A missing DIR exits 2 before
 *                         any job runs.
 *   --diff-out FILE       where the per-job diff documents go, one
 *                         JSON line per job in submission order —
 *                         byte-identical across --jobs counts.
 *                         "-" writes them to stdout (the summary
 *                         table then moves to stderr)
 *
 * Host-side telemetry (DESIGN.md "Telemetry" / src/telemetry/):
 *   --telemetry-dir DIR   per-job telemetry JSON (phase spans,
 *                         throughput, RSS), named by job tag;
 *                         deterministic fields are byte-identical
 *                         across --jobs counts, wall-clock fields
 *                         live in each sink's "host" object
 *   --telemetry-log FILE  campaign lifecycle event log, one JSON
 *                         line per job start/retry/timeout/finish
 *                         plus campaign begin/end
 *
 * Progress: one "[campaign] <tag> ok [k/N]" line per finished job
 * on stderr, then a summary line with the final counts.
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "cli_args.hpp"
#include "core/build_info.hpp"
#include "diff/diff.hpp"
#include "exec/exec.hpp"
#include "stats/table.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;

/** Named configuration presets for the config axis. */
struct NamedConfig
{
    const char *name;
    const char *what;
    void (*apply)(core::RunConfig &);
};

const NamedConfig kConfigs[] = {
    {"base", "baseline RT unit", [](core::RunConfig &) {}},
    {"coop", "CoopRT",
     [](core::RunConfig &c) { c.gpu.trace.coop = true; }},
    {"sw4", "CoopRT, subwarp 4",
     [](core::RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.subwarp_size = 4;
     }},
    {"sw8", "CoopRT, subwarp 8",
     [](core::RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.subwarp_size = 8;
     }},
    {"sw16", "CoopRT, subwarp 16",
     [](core::RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.subwarp_size = 16;
     }},
    {"prefetch", "treelet-style child prefetch",
     [](core::RunConfig &c) { c.gpu.trace.child_prefetch = true; }},
    {"predictor", "intersection predictor",
     [](core::RunConfig &c) {
         c.gpu.trace.intersection_predictor = true;
     }},
    {"bfs", "BFS traversal order",
     [](core::RunConfig &c) {
         c.gpu.trace.order = rtunit::TraversalOrder::Bfs;
     }},
    {"mobile", "mobile GPU, baseline",
     [](core::RunConfig &c) { c.gpu = gpu::GpuConfig::mobileBench(); }},
    {"mobile-coop", "mobile GPU, CoopRT",
     [](core::RunConfig &c) {
         c.gpu = gpu::GpuConfig::mobileBench();
         c.gpu.trace.coop = true;
     }},
};

const NamedConfig *
findConfig(const std::string &name)
{
    for (const auto &c : kConfigs)
        if (name == c.name)
            return &c;
    return nullptr;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

int
usage(const std::string &msg = {})
{
    if (!msg.empty())
        std::cerr << "error: " << msg << "\n";
    std::cerr << "see the header of campaign_cli.cpp or run --help\n";
    return 2;
}

void
printVersion(std::ostream &os)
{
    os << "cooprt campaign_cli\n"
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
    std::vector<std::string> scenes =
        scene::SceneRegistry::allLabels();
    bool scenes_explicit = false;
    std::vector<std::string> config_names = {"base", "coop"};
    core::ShaderKind shader = core::ShaderKind::PathTracing;
    int resolution = 0;
    exec::CampaignOptions copt;
    bool csv = false;
    std::string json_out;
    std::string diff_baseline;
    std::string diff_out;
    std::string telemetry_log;

    auto set_scenes = [&](const std::string &list) {
        if (list == "all")
            return; // keeps the shader-dependent default axis
        scenes_explicit = true;
        scenes = splitList(list);
        for (const auto &s : scenes)
            if (!scene::SceneRegistry::has(s)) {
                std::cerr << "error: unknown scene '" << s
                          << "' (run simulate_cli --list)\n";
                std::exit(2);
            }
        if (scenes.empty()) {
            std::cerr << "error: empty scene list\n";
            std::exit(2);
        }
    };
    auto set_configs = [&](const std::string &list) {
        if (list == "all") {
            config_names.clear();
            for (const auto &c : kConfigs)
                config_names.push_back(c.name);
            return;
        }
        config_names = splitList(list);
        for (const auto &c : config_names)
            if (findConfig(c) == nullptr) {
                std::cerr << "error: unknown config '" << c
                          << "' (run --list-configs)\n";
                std::exit(2);
            }
        if (config_names.empty()) {
            std::cerr << "error: empty config list\n";
            std::exit(2);
        }
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            std::cout
                << "usage: campaign_cli [--matrix S x C]\n"
                   "  [--scenes a,b,c] [--configs c1,c2]\n"
                   "  [--shader pt|ao|sh|knn|radius|contain]\n"
                   "  [--resolution N]\n"
                   "  [--jobs N] [--retries K] [--timeout-s T]\n"
                   "  [--json-out FILE] [--report-dir DIR]\n"
                   "  [--diff-baseline DIR --diff-out FILE]\n"
                   "  [--metrics-dir DIR]\n"
                   "  [--profile-dir DIR] [--ray-dir DIR]\n"
                   "  [--ray-sample-k N] [--memscope-dir DIR]\n"
                   "  [--telemetry-dir DIR] [--telemetry-log FILE]\n"
                   "  [--csv] [--list-configs] [--version]\n";
            return 0;
        } else if (a == "--version") {
            printVersion(std::cout);
            return 0;
        } else if (a == "--list-configs") {
            for (const auto &c : kConfigs)
                std::printf("%-12s %s\n", c.name, c.what);
            return 0;
        } else if (a == "--matrix") {
            // "--matrix scenes x configs" (x or ×), e.g.
            // "--matrix wknd,ship x base,coop".
            const std::string s = next("--matrix");
            if (i + 2 < argc && (std::string(argv[i + 1]) == "x" ||
                                 std::string(argv[i + 1]) == "×")) {
                set_scenes(s);
                ++i; // the separator
                set_configs(next("--matrix"));
            } else {
                return usage("--matrix wants 'SCENES x CONFIGS'");
            }
        } else if (a == "--scenes") {
            set_scenes(next("--scenes"));
        } else if (a == "--configs") {
            set_configs(next("--configs"));
        } else if (a == "--shader") {
            const std::string s = next("--shader");
            if (s == "pt")
                shader = core::ShaderKind::PathTracing;
            else if (s == "ao")
                shader = core::ShaderKind::AmbientOcclusion;
            else if (s == "sh")
                shader = core::ShaderKind::Shadow;
            else if (s == "knn")
                shader = core::ShaderKind::QueryKnn;
            else if (s == "radius")
                shader = core::ShaderKind::QueryRadius;
            else if (s == "contain")
                shader = core::ShaderKind::QueryContain;
            else
                return usage(
                    "unknown shader (pt|ao|sh|knn|radius|contain)");
        } else if (a == "--resolution") {
            resolution = cli::intArg("--resolution", next("--resolution"),
                                     1, 16384);
        } else if (a == "--jobs") {
            copt.jobs = cli::intArg("--jobs", next("--jobs"), 0, 1024);
        } else if (a == "--retries") {
            copt.retries = cli::intArg("--retries", next("--retries"), 0);
        } else if (a == "--timeout-s") {
            copt.timeout_s =
                cli::realArg("--timeout-s", next("--timeout-s"), true);
        } else if (a == "--json-out") {
            json_out = next("--json-out");
        } else if (a == "--report-dir") {
            copt.report_dir = next("--report-dir");
        } else if (a == "--diff-baseline") {
            diff_baseline = next("--diff-baseline");
        } else if (a == "--diff-out") {
            diff_out = next("--diff-out");
        } else if (a == "--metrics-dir") {
            copt.metrics_dir = next("--metrics-dir");
        } else if (a == "--profile-dir") {
            copt.profile_dir = next("--profile-dir");
        } else if (a == "--ray-dir") {
            copt.raytrace_dir = next("--ray-dir");
        } else if (a == "--memscope-dir") {
            copt.memscope_dir = next("--memscope-dir");
        } else if (a == "--ray-sample-k") {
            copt.ray_config.sample_k =
                cli::intArg("--ray-sample-k", next("--ray-sample-k"), 1);
        } else if (a == "--telemetry-dir") {
            copt.telemetry_dir = next("--telemetry-dir");
        } else if (a == "--telemetry-log") {
            telemetry_log = next("--telemetry-log");
        } else if (a == "--csv") {
            csv = true;
        } else {
            return usage("unknown flag " + a);
        }
    }

    // The diff sink is a gate: refuse to start a campaign whose
    // comparison target cannot exist, so "regressed" (exit 1 from a
    // downstream gate) stays distinguishable from "not comparable"
    // (exit 2 here, before any job has run).
    if (diff_baseline.empty() != diff_out.empty())
        return usage("--diff-baseline and --diff-out go together");
    if (!diff_baseline.empty() &&
        !std::filesystem::is_directory(diff_baseline)) {
        std::cerr << "error: --diff-baseline " << diff_baseline
                  << " is not a directory (expected a previous "
                     "run's --report-dir)\n";
        return 2;
    }
    // A sink directory that cannot be created is a usage error too,
    // caught here before any job starts.
    if (const std::string err = exec::createSinkDirs(copt);
        !err.empty()) {
        std::cerr << "error: cannot create sink directory " << err
                  << "\n";
        return 2;
    }

    // Query shaders only run on query scenes, so when the scene axis
    // was left at its default (or given as "all"), resolve it to the
    // query scenes whose kind matches the workload.
    if (core::isQueryShader(shader) && !scenes_explicit) {
        const scene::SceneKind need =
            shader == core::ShaderKind::QueryContain
                ? scene::SceneKind::AmrCells
                : scene::SceneKind::PointCloud;
        scenes.clear();
        for (const auto &l : scene::SceneRegistry::queryLabels())
            if (scene::SceneRegistry::get(l).kind == need)
                scenes.push_back(l);
    }

    // --diff-baseline counts, printed with the summary.
    std::uint64_t diff_comparisons = 0;
    std::uint64_t diff_key_mismatches = 0;

    // Campaign telemetry: the event log streams lifecycle events as
    // JSON lines.
    std::ofstream telemetry_log_os;
    if (!telemetry_log.empty()) {
        telemetry_log_os.open(telemetry_log);
        if (!telemetry_log_os) {
            std::cerr << "error: cannot open " << telemetry_log
                      << " for the telemetry event log\n";
            return 1;
        }
    }
    telemetry::EventLog event_log(
        telemetry_log_os.is_open() ? &telemetry_log_os : nullptr);
    if (event_log.enabled())
        copt.event_log = &event_log;

    const std::size_t total = scenes.size() * config_names.size();
    std::atomic<std::size_t> completed{0};
    copt.on_job_done = [&](const exec::JobResult &r) {
        std::fprintf(stderr, "[campaign] %s %s [%zu/%zu]%s\n",
                     r.tag.c_str(), r.ok ? "ok" : "FAILED",
                     ++completed, total,
                     r.attempts > 1
                         ? (" (attempts " + std::to_string(r.attempts) +
                            ")")
                               .c_str()
                         : "");
    };

    exec::Campaign campaign(copt);
    for (const auto &label : scenes)
        for (const auto &cname : config_names) {
            core::RunConfig cfg;
            findConfig(cname)->apply(cfg);
            cfg.shader = shader;
            cfg.resolution = resolution;
            campaign.add(
                exec::Job{label, cfg, label + "/" + cname});
        }

    const std::vector<exec::JobResult> results = campaign.run();

    // "--json-out -" streams the JSON lines to stdout; the summary
    // table then moves to stderr so stdout stays pure JSON.
    const bool json_to_stdout = json_out == "-";
    if (!json_out.empty()) {
        if (json_to_stdout) {
            for (const auto &r : results)
                exec::writeJsonLine(std::cout, r);
        } else {
            std::ofstream os(json_out, std::ios::app);
            if (!os) {
                std::cerr << "error: cannot append to " << json_out
                          << "\n";
                return 1;
            }
            for (const auto &r : results)
                exec::writeJsonLine(os, r);
        }
    }

    // Differential attribution sink: each successful job diffed
    // against the matching report under --diff-baseline, one JSON
    // line per job. Results are walked in submission order, so the
    // sink is byte-identical between --jobs 1 and --jobs N.
    const bool diff_to_stdout = diff_out == "-";
    if (!diff_baseline.empty()) {
        std::ofstream diff_file;
        std::ostream *diff_os = &std::cout;
        if (!diff_to_stdout) {
            diff_file.open(diff_out);
            if (!diff_file) {
                std::cerr << "error: cannot write " << diff_out
                          << "\n";
                return 2;
            }
            diff_os = &diff_file;
        }
        for (const auto &r : results) {
            if (!r.ok)
                continue;
            const std::string base_path =
                diff_baseline + "/" + exec::sanitizeTag(r.tag) +
                ".report.json";
            diff::RunRecord base;
            std::string error;
            if (!diff::loadReportFile(base_path, &base, &error)) {
                std::fprintf(stderr,
                             "[campaign] diff: no baseline for %s "
                             "(%s)\n",
                             r.tag.c_str(), error.c_str());
                continue;
            }
            diff::RunRecord other = diff::recordFromOutcome(r.outcome);
            other.source = r.tag;
            const std::string mismatch =
                diff::checkComparable(base, other);
            if (!mismatch.empty()) {
                ++diff_key_mismatches;
                std::fprintf(stderr,
                             "[campaign] diff: key mismatch for %s: "
                             "%s (%s vs %s)\n",
                             r.tag.c_str(), mismatch.c_str(),
                             base.source.c_str(), other.source.c_str());
                continue;
            }
            ++diff_comparisons;
            diff::writeJson(*diff_os, diff::diffRuns(base, other));
        }
    }

    // Summary table: cycles per scene × config, plus speedup columns
    // relative to the first config when there is more than one.
    std::vector<std::string> headers = {"scene"};
    for (const auto &c : config_names)
        headers.push_back(c + " cycles");
    for (std::size_t c = 1; c < config_names.size(); ++c)
        headers.push_back(config_names[c] + " speedup");
    stats::Table t(headers);
    const std::size_t ncfg = config_names.size();
    for (std::size_t s = 0; s < scenes.size(); ++s) {
        auto row = &t.row().cell(scenes[s]);
        const exec::JobResult &first = results[s * ncfg];
        for (std::size_t c = 0; c < ncfg; ++c) {
            const exec::JobResult &r = results[s * ncfg + c];
            if (r.ok)
                row->cell(double(r.outcome.gpu.cycles), 0);
            else
                row->cell(std::string("FAILED(") +
                          exec::failureKindName(r.failure->kind) +
                          ")");
        }
        for (std::size_t c = 1; c < ncfg; ++c) {
            const exec::JobResult &r = results[s * ncfg + c];
            if (first.ok && r.ok && r.outcome.gpu.cycles > 0)
                row->cell(double(first.outcome.gpu.cycles) /
                              double(r.outcome.gpu.cycles),
                          2);
            else
                row->cell("-");
        }
    }
    std::ostream &table_os =
        (json_to_stdout || diff_to_stdout) ? std::cerr : std::cout;
    if (csv)
        t.printCsv(table_os);
    else
        t.print(table_os);

    const auto &st = campaign.stats();
    std::fprintf(stderr,
                 "[campaign] %llu ok, %llu failed (%llu timeouts), "
                 "%llu retried, %.2f s wall\n",
                 (unsigned long long)st.done.load(),
                 (unsigned long long)st.failed.load(),
                 (unsigned long long)st.timed_out.load(),
                 (unsigned long long)st.retried.load(),
                 campaign.wallSeconds());
    if (!diff_baseline.empty()) {
        std::fprintf(stderr, "[campaign] diff.comparisons = %llu\n",
                     (unsigned long long)diff_comparisons);
        std::fprintf(stderr, "[campaign] diff.key_mismatches = %llu\n",
                     (unsigned long long)diff_key_mismatches);
    }

    return st.failed.load() == 0 ? 0 : 1;
}
