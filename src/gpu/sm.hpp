/**
 * @file
 * One Streaming Multiprocessor: resident warps alternating between a
 * shading-pipeline latency model and trace_ray execution in the SM's
 * RT unit.
 */

#ifndef COOPRT_GPU_SM_HPP
#define COOPRT_GPU_SM_HPP

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/warp_program.hpp"
#include "rtunit/rt_unit.hpp"
#include "trace/session.hpp"

namespace cooprt::gpu {

/** Per-warp completion record (drives Fig. 14). */
struct WarpCompletion
{
    int warp_id = 0;
    std::uint64_t start_cycle = 0;
    std::uint64_t finish_cycle = 0;

    std::uint64_t latency() const { return finish_cycle - start_cycle; }
};

/**
 * A Streaming Multiprocessor. Owns one RT unit (Table 1) and hosts up
 * to `max_warps_per_sm` resident warps; further assigned warps wait
 * for a residency slot, as thread blocks do on real hardware.
 */
class StreamingMultiprocessor
{
  public:
    StreamingMultiprocessor(int sm_id, const GpuConfig &cfg,
                            const bvh::FlatBvh &bvh,
                            const scene::Mesh &mesh,
                            rtunit::RtUnit::FetchFn fetch);

    /** Assign a warp (thread block) to this SM. */
    void assign(int warp_id, WarpProgram *program);

    /**
     * Attach an observability session: registers this SM's RT unit
     * into the session registry (under `rtunit.sm<id>.*`) and, when
     * event tracing is on, names this SM's Perfetto track group and
     * starts emitting per-warp duration events (shading phases,
     * warp-buffer waits, trace_rays, whole-warp lifetimes) with
     * pid = SM id and tid = warp id. Null detaches nothing and is a
     * no-op; call before the first tick.
     */
    void attachTrace(cooprt::trace::Session *session);

    /**
     * Attach the observers of this SM's RT unit (see
     * RtUnit::attachObservers). The SM adds two events of its own:
     * the cycles each trace waited for a free warp-buffer slot, and
     * the GPU-wide id of every submitted warp. An empty list detaches;
     * behaviour is bit-identical either way.
     */
    void attachObservers(std::vector<rtunit::RtObserver *> observers,
                         rtunit::RtUnit::LevelFn level);

    /** True when every assigned warp has finished. */
    bool done() const;

    /** Earliest cycle at which tick() can make progress. */
    std::uint64_t nextEventCycle(std::uint64_t now) const;

    /** Advance the SM at cycle @p now (non-decreasing). */
    void tick(std::uint64_t now);

    const rtunit::RtUnit &rtUnit() const { return rt_; }
    rtunit::RtUnit &rtUnit() { return rt_; }
    const StallBreakdown &stalls() const { return stalls_; }
    const std::vector<WarpCompletion> &completions() const
    { return completions_; }

  private:
    /** A resident warp's bookkeeping. */
    struct WarpCtx
    {
        int warp_id = 0;
        WarpProgram *program = nullptr;
        std::uint64_t start_cycle = 0;
        /** Cycle the current shading phase completes. */
        std::uint64_t shade_done = 0;
        /** Action produced by the program, applied after shading. */
        WarpAction action;
        /** Cycle the warp began waiting for a warp-buffer slot. */
        std::uint64_t wait_since = 0;
    };

    std::uint64_t shadingCycles(const ShadingCost &c) const;
    void scheduleAction(std::unique_ptr<WarpCtx> ctx, WarpAction action,
                        std::uint64_t now);
    void admitPending(std::uint64_t now);
    void submitReady(std::uint64_t now);
    void onRetire(std::unique_ptr<WarpCtx> ctx,
                  const rtunit::TraceResult &result);

    int sm_id_;
    const GpuConfig &cfg_;
    rtunit::RtUnit rt_;
    StallBreakdown stalls_;
    cooprt::trace::Tracer *tracer_ = nullptr;

    /** Warps assigned but not yet resident. */
    std::deque<std::pair<int, WarpProgram *>> pending_;
    int resident_warps_ = 0;

    /** Shading phases in flight, keyed by completion cycle. */
    std::multimap<std::uint64_t, std::unique_ptr<WarpCtx>> shading_;

    /** Warps whose trace job waits for a free warp-buffer slot. */
    std::deque<std::unique_ptr<WarpCtx>> wait_slot_;

    std::vector<WarpCompletion> completions_;
    /** Warps currently inside the RT unit (for done()). */
    int in_trace_ = 0;

#if COOPRT_CHECK_ENABLED
    /** End-of-tick conservation audits (DESIGN.md catalogue). */
    void auditInvariants(std::uint64_t now) const;

    std::string check_label_ = "sm";
    /** Warps ever assigned, for sm.warp_conservation. */
    std::uint64_t audit_assigned_ = 0;
#endif
};

} // namespace cooprt::gpu

#endif // COOPRT_GPU_SM_HPP
