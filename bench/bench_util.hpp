/**
 * @file
 * Shared plumbing for the figure/table bench binaries.
 *
 * Every binary regenerates one of the paper's tables or figures and
 * prints the same rows/series the paper reports. Common flags:
 *
 *   --csv              machine-readable output
 *   --scenes a,b,c     restrict to a subset of the 15 scenes
 *                      (unknown labels are an error)
 *   --jobs N           campaign worker threads (default: hardware
 *                      concurrency; output is byte-identical for
 *                      every N — see src/exec/)
 *   --json-out FILE    append each emitted table as one JSON line
 *                      ({"bench": ..., "table": {...}}), so bench
 *                      trajectories can be collected by tooling
 *
 * The per-scene × per-config simulation loops run on the
 * `cooprt::exec` campaign engine (`runMatrix` / `compareCoopAll`
 * below): jobs execute across the worker pool, results come
 * back in submission order, and the printed tables are bit-identical
 * to a serial run.
 */

#ifndef COOPRT_BENCH_BENCH_UTIL_HPP
#define COOPRT_BENCH_BENCH_UTIL_HPP

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "../examples/cli_args.hpp"
#include "core/simulation.hpp"
#include "exec/exec.hpp"
#include "stats/table.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/json.hpp"

namespace cooprt::benchutil {

/** Parsed common command-line options. */
struct Options
{
    bool csv = false;
    std::vector<std::string> scenes;
    /** Campaign worker threads; 0 = hardware concurrency. */
    int jobs = 0;
    /** When set, emit() appends machine-readable JSON lines here. */
    std::string json_out;
    /** The experiment name of the last banner(), tagged into JSON. */
    mutable std::string bench_name;
};

inline Options
parse(int argc, char **argv)
{
    Options opt;
    opt.scenes = scene::SceneRegistry::allLabels();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // Diagnostics go to stderr and exit non-zero (2, the usage
        // convention the CLIs share), so scripted sweeps fail loudly
        // instead of silently running the full default matrix.
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "[bench] %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--scenes") {
            opt.scenes.clear();
            std::stringstream ss(next("--scenes"));
            std::string tok;
            while (std::getline(ss, tok, ',')) {
                if (!scene::SceneRegistry::has(tok)) {
                    std::string valid;
                    for (const auto &l :
                         scene::SceneRegistry::allLabels())
                        valid += (valid.empty() ? "" : ", ") + l;
                    std::fprintf(stderr,
                                 "[bench] unknown scene '%s' "
                                 "(valid: %s)\n",
                                 tok.c_str(), valid.c_str());
                    std::exit(2);
                }
                opt.scenes.push_back(tok);
            }
            if (opt.scenes.empty()) {
                std::fprintf(stderr,
                             "[bench] --scenes selected no scenes\n");
                std::exit(2);
            }
        } else if (arg == "--jobs") {
            opt.jobs = cli::intArg("--jobs", next("--jobs"), 0, 1024);
        } else if (arg == "--json-out") {
            opt.json_out = next("--json-out");
        } else {
            std::fprintf(stderr,
                         "[bench] unknown flag '%s' (--csv, "
                         "--scenes a,b,c, --jobs N, --json-out "
                         "FILE)\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return opt;
}

/**
 * Print @p table per the --csv flag; with --json-out, also append
 * it as one JSON line tagged with the current banner name.
 */
inline void
emit(const stats::Table &table, const Options &opt)
{
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    if (opt.json_out.empty())
        return;
    std::ofstream os(opt.json_out, std::ios::app);
    if (!os) {
        std::fprintf(stderr, "[bench] cannot append to %s\n",
                     opt.json_out.c_str());
        return;
    }
    // The build stamp is constant per binary, so lines stay
    // byte-identical across --jobs while recording which tree and
    // toolchain produced each bench trajectory point.
    os << "{\"schema_version\":" << trace::kSchemaVersion
       << ",\"bench\":" << trace::quoteJson(opt.bench_name)
       << ",\"build\":" << telemetry::buildInfoJson()
       << ",\"table\":";
    table.printJson(os);
    os << "}\n";
}

/** Progress note on stderr (kept off the table output). */
inline void
note(const std::string &msg)
{
    std::fprintf(stderr, "[bench] %s\n", msg.c_str());
}

/** Header line naming the experiment. */
inline void
banner(const std::string &what, const Options &opt)
{
    opt.bench_name = what;
    if (!opt.csv)
        std::cout << "== " << what << " ==\n";
}

/** Scene-major result block of one scenes × configs campaign. */
struct Matrix
{
    std::vector<core::RunOutcome> outcomes;
    std::size_t num_configs = 1;

    const core::RunOutcome &
    at(std::size_t scene, std::size_t config) const
    {
        return outcomes[scene * num_configs + config];
    }
};

/**
 * Run every scene × config pair as one `cooprt::exec` campaign
 * (worker count from `opt.jobs`) and return the outcomes in
 * submission order. Progress goes to stderr in completion order;
 * the returned data — and hence every table built from it — is
 * independent of scheduling. Any failed job aborts the bench with
 * its captured error.
 */
inline Matrix
runMatrix(const Options &opt, const std::vector<std::string> &scenes,
          const std::vector<core::RunConfig> &configs,
          const std::string &what, bool attach_profiler = false,
          bool attach_memscope = false)
{
    std::vector<exec::Job> jobs;
    jobs.reserve(scenes.size() * configs.size());
    for (const auto &label : scenes)
        for (std::size_t c = 0; c < configs.size(); ++c) {
            std::string tag = what + " " + label;
            if (configs.size() > 1) {
                tag += '#';
                tag += std::to_string(c);
            }
            jobs.push_back(exec::Job{label, configs[c], std::move(tag)});
        }

    exec::CampaignOptions copt;
    copt.jobs = opt.jobs;
    copt.attach_profiler = attach_profiler;
    copt.attach_memscope = attach_memscope;
    const std::size_t total = jobs.size();
    std::atomic<std::size_t> completed{0};
    copt.on_job_done = [&](const exec::JobResult &r) {
        note(r.tag + (r.ok ? "" : " FAILED") + " [" +
             std::to_string(++completed) + "/" +
             std::to_string(total) + "]");
    };

    auto results = exec::runCampaign(std::move(jobs), copt);
    Matrix m;
    m.num_configs = configs.empty() ? 1 : configs.size();
    m.outcomes.reserve(results.size());
    for (auto &r : results) {
        if (!r.ok) {
            std::fprintf(
                stderr, "[bench] job '%s' failed (%s): %s\n",
                r.tag.c_str(),
                r.failure ? exec::failureKindName(r.failure->kind)
                          : "?",
                r.failure ? r.failure->message.c_str() : "?");
            std::exit(1);
        }
        m.outcomes.push_back(std::move(r.outcome));
    }
    return m;
}

/**
 * Baseline-vs-CoopRT comparisons for @p scenes under @p cfg, one
 * campaign for the whole sweep (replaces per-scene `compareCoop`
 * loops). Results are ordered like @p scenes.
 */
inline std::vector<core::Comparison>
compareCoopAll(const Options &opt,
               const std::vector<std::string> &scenes,
               core::RunConfig cfg, const std::string &what,
               bool attach_memscope = false)
{
    core::RunConfig base = cfg;
    base.gpu.trace.coop = false;
    core::RunConfig coop = cfg;
    coop.gpu.trace.coop = true;
    const Matrix m = runMatrix(opt, scenes, {base, coop}, what,
                               /*attach_profiler=*/false,
                               attach_memscope);
    std::vector<core::Comparison> out(scenes.size());
    for (std::size_t s = 0; s < scenes.size(); ++s) {
        out[s].base = m.at(s, 0);
        out[s].coop = m.at(s, 1);
    }
    return out;
}

} // namespace cooprt::benchutil

#endif // COOPRT_BENCH_BENCH_UTIL_HPP
