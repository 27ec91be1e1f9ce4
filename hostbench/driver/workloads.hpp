/**
 * @file
 * The host-time benchmark's workloads: which scene and RunConfig each
 * one runs, the simulated digest every frame must reproduce, and the
 * observer set the observed workload attaches.
 */

#ifndef COOPRT_HOSTBENCH_WORKLOADS_HPP
#define COOPRT_HOSTBENCH_WORKLOADS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/session.hpp"

namespace cooprt::hostbench {

/**
 * The simulated outcome of one frame, reduced to the counters a pure
 * simulator speed-up must leave identical. Two frames of the same
 * workload and seed must produce equal digests.
 */
struct Digest
{
    std::uint64_t cycles = 0;
    rtunit::RtUnitStats rt;
    mem::CacheStats l1;
    mem::CacheStats l2;
    mem::DramStats dram;
    /** Query checksum (0 for render workloads). */
    std::uint64_t query_checksum = 0;

    bool operator==(const Digest &o) const;
    bool operator!=(const Digest &o) const { return !(*this == o); }
};

/** Digest of a finished GPU run plus its query summary. */
Digest digestOf(const gpu::GpuRunResult &gpu, const query::Summary &query);

/** The three counters pinned per workload at the default seed. */
struct PinnedDigest
{
    std::uint64_t cycles = 0;
    /** Node plus leaf records read (simulate_cli's "node fetches"). */
    std::uint64_t node_fetches = 0;
    std::uint64_t steals = 0;

    bool
    matches(const Digest &d) const
    {
        return d.cycles == cycles &&
               d.rt.node_fetches + d.rt.leaf_fetches == node_fetches &&
               d.rt.steals == steals;
    }
};

/** One benchmark workload. */
struct Workload
{
    std::string name;
    std::string scene;
    core::RunConfig config;
    /** Seed at which `pinned` holds (PtParams / QueryParams default). */
    std::uint64_t default_seed = 0;
    /** The frame seed `config` runs with. */
    std::uint64_t seed = 0;
    PinnedDigest pinned;
    /** Attach every observer and export every sink in each frame. */
    bool observed = false;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * The workload @p name with @p seed, when given, fed to its frame seed
 * (`PtParams::frame_seed` or `QueryParams::frame_seed`; otherwise the
 * default seed stays); nullopt for an unknown name.
 */
std::optional<Workload>
makeWorkload(const std::string &name,
             std::optional<std::uint64_t> seed = std::nullopt);

/** Which observers a frame attaches (bit flags). */
enum ObserverBits : unsigned
{
    kProf = 1u << 0,
    kMemscope = 1u << 1,
    kRayTrace = 1u << 2,
    kTraceSession = 1u << 3,
    kTelemetry = 1u << 4,
    kAllObservers = kProf | kMemscope | kRayTrace | kTraceSession |
                    kTelemetry,
};

/**
 * One instance of every observer, reused across frames (each run
 * resets the observers it uses). The trace session samples metrics
 * only, at the GPU's activity-sampling interval, as
 * `simulate_cli --metrics` does.
 */
class ObserverSet
{
  public:
    explicit ObserverSet(const core::RunConfig &config);

    /** Point @p config's observer slots at the members in @p bits
     *  (and clear the others). */
    void attach(core::RunConfig &config, unsigned bits);

    /**
     * Write every sink of the observers in @p bits through the public
     * writers into memory: prof and memscope folded + JSON, raystats
     * JSON, metrics CSV and telemetry JSON. Returns the bytes written
     * (keeps the writes observable).
     */
    std::size_t exportSinks(unsigned bits, const std::string &scene) const;

  private:
    trace::Session session_;
    prof::Profiler prof_;
    memscope::Collector memscope_;
    raytrace::Recorder ray_;
    telemetry::Recorder telemetry_;
};

} // namespace cooprt::hostbench

#endif // COOPRT_HOSTBENCH_WORKLOADS_HPP
