/**
 * @file
 * `hostbench`: host time of simulated frames, one workload per
 * process, for hostbench/run.py to summarise.
 *
 *     hostbench --workload NAME [--seed N] --seconds S --trace 0|1
 *     hostbench --workload NAME [--seed N] --setup-only
 *
 * Untraced (`--trace 0`): set up the scene and BVH, run one untimed
 * warm-up frame through the traced driver (which also counts the
 * frame's rays), then run `core::Simulation::run` frame after frame
 * for S seconds, checking every frame's simulated digest.
 *
 * Traced (`--trace 1`): alternate a plain `Simulation::run` frame with
 * a timed replay of the same frame (see replay.hpp). The observed
 * workload spends half its budget on the observer breakdown instead:
 * the plain frame, each observer alone, and all of them with every
 * sink exported to memory, toggling only RunConfig pointers.
 *
 * `--setup-only` times the first `SceneRegistry::get` and the
 * `Simulation` constructor and exits.
 *
 * Without `--seed` the workload runs at its default frame seed, where
 * its simulated digest is pinned. Frames and set-up are timed in
 * process CPU time, and a calibration kernel (calibrate.hpp) runs
 * between frames to read the machine's current speed.
 *
 * The last stdout line is one JSON object of raw samples. Exit status
 * is 0 when every frame passed its checks, 1 when one failed, 2 on a
 * usage error.
 */

#include <sched.h>

#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "replay.hpp"
#include "workloads.hpp"

using namespace cooprt;
using hostbench::cpuNs;
using hostbench::Digest;
using hostbench::nowNs;

namespace {

struct Args
{
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 10.0;
    bool traced = false;
    bool setup_only = false;
};

int
usage(const std::string &msg)
{
    std::cerr << "hostbench: " << msg
              << "\nusage: hostbench --workload NAME [--seed N] "
                 "--seconds S --trace 0|1 [--setup-only]\n";
    return 2;
}

double
seconds(std::uint64_t ns)
{
    return double(ns) * 1e-9;
}

/** Correctness ledger of one process: attempted and failed frames. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        failed += 1;
        if (errors.size() < 8)
            errors.push_back(why);
    }
};

/**
 * Checks every frame of the run against the first one (and the first
 * against the pinned digest at the default seed), plus the k-NN
 * oracle.
 */
class DigestCheck
{
  public:
    explicit DigestCheck(const hostbench::Workload &w)
        : w_(w), pin_(w.seed == w.default_seed)
    {}

    /** True when the frame passes; records a failure otherwise. */
    bool
    check(const gpu::GpuRunResult &g, const query::Summary &q,
          Ledger &ledger, const char *what)
    {
        const Digest d = hostbench::digestOf(g, q);
        std::string why;
        if (!first_) {
            first_ = d;
            if (pin_ && !w_.pinned.matches(d))
                why = "digest differs from the pinned one: cycles " +
                      std::to_string(d.cycles) + " node+leaf fetches " +
                      std::to_string(d.rt.node_fetches +
                                     d.rt.leaf_fetches) +
                      " steals " + std::to_string(d.rt.steals);
        } else if (d != *first_) {
            why = "digest differs from the first frame's";
        }
        if (why.empty() && q.enabled &&
            (!q.verified || q.oracle_mismatches != 0))
            why = std::to_string(q.oracle_mismatches) +
                  " oracle mismatches";
        ledger.attempted += 1;
        if (!why.empty())
            ledger.fail(std::string(what) + ": " + why);
        return why.empty();
    }

  private:
    const hostbench::Workload &w_;
    bool pin_;
    std::optional<Digest> first_;
};

/**
 * Moves the (single-threaded) process to the next CPU of its affinity
 * mask. On a shared machine other tenants slow single CPUs for seconds
 * at a time, and the scheduler tends to keep a process on one CPU, so
 * without rotation a whole run lands on a fast or a slow CPU and the
 * runs' medians disagree by up to 1.5x. Rotating every frame spreads
 * each run over all CPUs.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
    }

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Runs @p fn as one frame; an exception fails the frame. */
template <typename F>
void
guarded(Ledger &ledger, const char *what, F &&fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        ledger.attempted += 1;
        ledger.fail(std::string(what) + " threw: " + e.what());
    }
}

void
writeSamples(trace::JsonWriter &w, const char *key,
             const std::vector<double> &v)
{
    w.openArray(key);
    for (const double x : v)
        w.value(x);
    w.closeArray();
}

void
writeLayer(trace::JsonWriter &w, const char *key,
           const hostbench::LayerTime &t, std::uint64_t frames)
{
    w.open(key);
    w.field("s", seconds(t.ns) / double(frames));
    w.field("calls", double(t.calls) / double(frames));
    w.close();
}

/** The observer breakdown's configurations, in run order. */
struct ObserverCase
{
    const char *name;
    unsigned bits;
};

constexpr ObserverCase kObserverCases[] = {
    {"plain", 0},
    {"prof", hostbench::kProf},
    {"memscope", hostbench::kMemscope},
    {"raytrace", hostbench::kRayTrace},
    {"trace", hostbench::kTraceSession},
    {"telemetry", hostbench::kTelemetry},
    {"all", hostbench::kAllObservers},
};

int
run(const Args &args)
{
    const std::optional<hostbench::Workload> wl =
        hostbench::makeWorkload(args.workload, args.seed);
    if (!wl)
        return usage("unknown workload '" + args.workload + "'");

    // Set-up: the first registry lookup builds the scene, the
    // Simulation constructor builds the BVH.
    const std::uint64_t t0 = cpuNs();
    const scene::Scene &scene = scene::SceneRegistry::get(wl->scene);
    const std::uint64_t t1 = cpuNs();
    const core::Simulation sim(scene);
    const std::uint64_t t2 = cpuNs();

    std::ostringstream out;
    out << std::setprecision(17) << std::boolalpha;
    trace::JsonWriter w(out);
    w.open();
    w.field("workload", wl->name);
    w.field("seed", wl->seed);
    w.open("setup");
    w.field("scene_s", seconds(t1 - t0));
    w.field("bvh_s", seconds(t2 - t1));
    w.close();
    // The machine's current speed, read next to every frame (see
    // calibrate.hpp); run.py scales host times by it.
    hostbench::Calibration calibration;
    std::vector<double> cal;
    if (args.setup_only) {
        for (int i = 0; i < 3; ++i)
            cal.push_back(calibration.run());
        writeSamples(w, "cal_s", cal);
        w.close();
        std::cout << out.str() << std::endl;
        return 0;
    }

    Ledger ledger;
    CpuRotation cpus;
    DigestCheck digests(*wl);
    core::RunConfig plain = wl->config;
    hostbench::ObserverSet observers(plain);
    const std::uint64_t budget_ns =
        std::uint64_t(args.seconds * 1e9 + 0.5);

    // Warm-up: one replayed frame, its layer times discarded. It also
    // counts the rays, which are the same in every frame of this
    // workload and seed.
    hostbench::ReplayResult counted;
    guarded(ledger, "warm-up frame", [&] {
        counted = hostbench::replayFrame(sim, plain);
        digests.check(counted.gpu, counted.query, ledger, "warm-up frame");
    });

    if (!args.traced) {
        core::RunConfig cfg = plain;
        const unsigned bits = wl->observed ? hostbench::kAllObservers : 0u;
        observers.attach(cfg, bits);
        std::vector<double> frames;
        const std::uint64_t start = nowNs();
        do {
            cpus.next();
            cal.push_back(calibration.run());
            guarded(ledger, "frame", [&] {
                const std::uint64_t f0 = cpuNs();
                const core::RunOutcome o = sim.run(cfg);
                if (bits != 0)
                    observers.exportSinks(bits, o.scene);
                const std::uint64_t f1 = cpuNs();
                if (digests.check(o.gpu, o.query, ledger, "frame"))
                    frames.push_back(seconds(f1 - f0));
            });
        } while (nowNs() - start < budget_ns && ledger.failed == 0);
        cal.push_back(calibration.run());
        writeSamples(w, "frames_s", frames);
    } else {
        // Plain frames interleaved with timed replays; the observed
        // workload keeps half the budget for the observer breakdown.
        const std::uint64_t replay_ns =
            wl->observed ? budget_ns / 2 : budget_ns;
        std::vector<double> plain_frames, traced_frames;
        hostbench::ReplayResult sum;
        std::uint64_t traced = 0;
        const std::uint64_t start = nowNs();
        do {
            // Each round's frames share a CPU, so their ratio does too.
            cpus.next();
            cal.push_back(calibration.run());
            guarded(ledger, "plain frame", [&] {
                const std::uint64_t f0 = cpuNs();
                const core::RunOutcome o = sim.run(plain);
                const std::uint64_t f1 = cpuNs();
                if (digests.check(o.gpu, o.query, ledger, "plain frame"))
                    plain_frames.push_back(seconds(f1 - f0));
            });
            guarded(ledger, "traced frame", [&] {
                const std::uint64_t f0 = cpuNs();
                const hostbench::ReplayResult r =
                    hostbench::replayFrame(sim, plain);
                const std::uint64_t f1 = cpuNs();
                if (!digests.check(r.gpu, r.query, ledger, "traced frame"))
                    return;
                traced_frames.push_back(seconds(f1 - f0));
                traced += 1;
                sum.frame_ns += r.frame_ns;
                for (auto [acc, add] :
                     {std::pair{&sum.frame_build, &r.frame_build},
                      std::pair{&sum.program, &r.program},
                      std::pair{&sum.sm_tick, &r.sm_tick},
                      std::pair{&sum.next_event, &r.next_event},
                      std::pair{&sum.fetch, &r.fetch},
                      std::pair{&sum.oracle, &r.oracle}}) {
                    acc->ns += add->ns;
                    acc->calls += add->calls;
                }
            });
        } while (nowNs() - start < replay_ns && ledger.failed == 0);

        // The observer breakdown, in interleaved rounds.
        std::vector<std::vector<double>> obs(std::size(kObserverCases));
        std::vector<double> export_s;
        while (wl->observed && nowNs() - start < budget_ns &&
               ledger.failed == 0) {
            cpus.next();
            cal.push_back(calibration.run());
            for (std::size_t c = 0; c < std::size(kObserverCases); ++c) {
                const ObserverCase &oc = kObserverCases[c];
                guarded(ledger, oc.name, [&] {
                    core::RunConfig cfg = plain;
                    observers.attach(cfg, oc.bits);
                    const std::uint64_t f0 = cpuNs();
                    const core::RunOutcome o = sim.run(cfg);
                    const std::uint64_t f1 = cpuNs();
                    if (oc.bits == hostbench::kAllObservers)
                        observers.exportSinks(oc.bits, o.scene);
                    const std::uint64_t f2 = cpuNs();
                    if (!digests.check(o.gpu, o.query, ledger, oc.name))
                        return;
                    obs[c].push_back(seconds(f1 - f0));
                    if (oc.bits == hostbench::kAllObservers)
                        export_s.push_back(seconds(f2 - f1));
                });
            }
        }

        writeSamples(w, "plain_frames_s", plain_frames);
        writeSamples(w, "traced_frames_s", traced_frames);
        if (traced > 0) {
            // Mean self time per traced frame; they sum to the mean
            // traced frame time together with the unattributed rest.
            w.open("layers");
            writeLayer(w, "frame_build", sum.frame_build, traced);
            writeLayer(w, "program", sum.program, traced);
            writeLayer(w, "sm_tick", sum.sm_tick, traced);
            writeLayer(w, "next_event", sum.next_event, traced);
            writeLayer(w, "fetch", sum.fetch, traced);
            writeLayer(w, "oracle", sum.oracle, traced);
            w.field("unattributed_s",
                    double(sum.unattributedNs()) * 1e-9 / double(traced));
            w.field("frame_s", seconds(sum.frame_ns) / double(traced));
            w.close();
        }
        cal.push_back(calibration.run());
        w.open("observers");
        for (std::size_t c = 0; c < std::size(kObserverCases); ++c)
            writeSamples(w, kObserverCases[c].name, obs[c]);
        writeSamples(w, "export", export_s);
        w.close();
    }

    writeSamples(w, "cal_s", cal);
    const gpu::GpuRunResult &g = counted.gpu;
    w.open("counts");
    w.field("num_sms", plain.gpu.num_sms);
    w.field("rays", counted.rays);
    w.field("trace_rays", counted.trace_rays);
    w.field("sim_cycles", g.cycles);
    w.field("node_fetches", g.rt.node_fetches);
    w.field("leaf_fetches", g.rt.leaf_fetches);
    w.field("steals", g.rt.steals);
    w.field("stale_pops", g.rt.stale_pops);
    w.field("stack_overflows", g.rt.stack_overflows);
    w.field("retired_warps", g.rt.retired_warps);
    w.field("l1_accesses", g.l1.accesses);
    w.field("l1_hits", g.l1.hits);
    w.field("l2_accesses", g.l2.accesses);
    w.field("l2_hits", g.l2.hits);
    w.field("dram_bytes", g.dram.bytes);
    w.close();
    w.field("pinned_checked", wl->seed == wl->default_seed);
    w.field("attempted", ledger.attempted);
    w.field("failed", ledger.failed);
    w.openArray("errors");
    for (const auto &e : ledger.errors)
        w.value(e);
    w.closeArray();
    w.field("peak_rss_kb", telemetry::readRss().peak_kb);
    w.close();
    for (const auto &e : ledger.errors)
        std::cerr << "hostbench: " << wl->name << ": " << e << "\n";
    std::cout << out.str() << std::endl;
    return ledger.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                args.workload = next();
            else if (a == "--seed")
                args.seed = std::stoull(next());
            else if (a == "--seconds")
                args.seconds = std::stod(next());
            else if (a == "--trace")
                args.traced = std::stoi(next()) != 0;
            else if (a == "--setup-only")
                args.setup_only = true;
            else
                return usage("unknown flag " + a);
        } catch (const std::exception &e) {
            return usage(std::string("bad value for ") + a + ": " +
                         e.what());
        }
    }
    if (args.workload.empty())
        return usage("--workload is required");
    if (!(args.seconds > 0.0 && args.seconds <= 3600.0))
        return usage("--seconds must be in (0, 3600]");
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << "\n";
        return 1;
    }
}
