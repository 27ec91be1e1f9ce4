/**
 * @file
 * The traced driver: one frame of `core::Simulation::run` rebuilt from
 * the library's public pieces so host time can be split by layer from
 * outside the program.
 *
 * The frame builds its warp programs (`shaders::makePathTracerFrame` /
 * `query::makeQueryFrame`), then replays `gpu::Gpu::run`'s idle-skip
 * event loop over public `gpu::StreamingMultiprocessor`s and one fresh
 * `mem::MemorySystem` (the modelled caches start empty, as `Gpu::run`
 * resets them every frame). Each SM's `RtUnit::FetchFn` is wrapped
 * with a timer and each `gpu::WarpProgram` with a ray counter, so the
 * replay reports self times per layer: a layer's nested calls are
 * subtracted from it. Query frames finish with the brute-force oracle,
 * as `Simulation::run` does when `QueryParams::verify` is set.
 *
 * The replay attaches no observers; it must reproduce the plain
 * frame's simulated results bit for bit (see the fidelity test).
 */

#ifndef COOPRT_HOSTBENCH_REPLAY_HPP
#define COOPRT_HOSTBENCH_REPLAY_HPP

#include <cstdint>

#include "core/simulation.hpp"
#include "workloads.hpp"

namespace cooprt::hostbench {

/** Monotonic host clock in nanoseconds. */
std::uint64_t nowNs();

/** Host self time and call count of one layer. */
struct LayerTime
{
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
};

/** What one replayed frame reports. */
struct ReplayResult
{
    gpu::GpuRunResult gpu;
    query::Summary query;

    /** Rays traced: active lanes over all trace_rays. */
    std::uint64_t rays = 0;
    /** trace_ray instructions issued. */
    std::uint64_t trace_rays = 0;

    /* Host self times. */
    std::uint64_t frame_ns = 0;        ///< the whole replayed frame
    LayerTime frame_build;             ///< make*Frame
    LayerTime program;                 ///< WarpProgram::start/resume
    LayerTime sm_tick;                 ///< SM::tick minus nested layers
    LayerTime next_event;              ///< SM::nextEventCycle
    LayerTime fetch;                   ///< MemorySystem::fetch
    LayerTime oracle;                  ///< query::verifyAgainstOracle

    /** Frame time no layer above accounts for (loop, sampling,
     *  construction, aggregation, timer overhead). Negative only if
     *  a layer were counted twice. */
    std::int64_t unattributedNs() const;
};

/**
 * Replay one frame of @p config on @p sim, timing every layer and
 * counting rays. Observer pointers in @p config are ignored.
 */
ReplayResult replayFrame(const core::Simulation &sim,
                         const core::RunConfig &config);

} // namespace cooprt::hostbench

#endif // COOPRT_HOSTBENCH_REPLAY_HPP
