#include "gpu/sm.hpp"

#include <cassert>

namespace cooprt::gpu {

StreamingMultiprocessor::StreamingMultiprocessor(
    int sm_id, const GpuConfig &cfg, const bvh::FlatBvh &bvh,
    const scene::Mesh &mesh, rtunit::RtUnit::FetchFn fetch)
    : sm_id_(sm_id), cfg_(cfg),
      rt_(bvh, mesh, cfg.trace, std::move(fetch))
{
#if COOPRT_CHECK_ENABLED
    check_label_ = "sm" + std::to_string(sm_id_);
    rt_.setCheckLabel("rtunit.sm" + std::to_string(sm_id_));
#endif
}

void
StreamingMultiprocessor::assign(int warp_id, WarpProgram *program)
{
    pending_.emplace_back(warp_id, program);
    COOPRT_CHECK_ONLY(audit_assigned_++;)
}

void
StreamingMultiprocessor::attachTrace(cooprt::trace::Session *session)
{
    if (session == nullptr)
        return;
    tracer_ = session->tracer();
    rt_.attachTrace(&session->registry(), tracer_, sm_id_);
    if (tracer_ != nullptr)
        tracer_->processName(sm_id_,
                             "SM " + std::to_string(sm_id_));
}

void
StreamingMultiprocessor::attachObservers(
    std::vector<rtunit::RtObserver *> observers,
    rtunit::RtUnit::LevelFn level)
{
    rt_.attachObservers(std::move(observers), std::move(level));
}

bool
StreamingMultiprocessor::done() const
{
    return pending_.empty() && shading_.empty() && wait_slot_.empty() &&
           in_trace_ == 0;
}

std::uint64_t
StreamingMultiprocessor::shadingCycles(const ShadingCost &c) const
{
    return std::uint64_t(c.alu) * cfg_.alu_latency +
           std::uint64_t(c.sfu) * cfg_.sfu_latency +
           std::uint64_t(c.mem) * cfg_.mem_latency;
}

void
StreamingMultiprocessor::scheduleAction(std::unique_ptr<WarpCtx> ctx,
                                        WarpAction action,
                                        std::uint64_t now)
{
    // Attribute the shading phase to the per-class stall counters.
    stalls_.alu += std::uint64_t(action.cost.alu) * cfg_.alu_latency;
    stalls_.sfu += std::uint64_t(action.cost.sfu) * cfg_.sfu_latency;
    stalls_.mem += std::uint64_t(action.cost.mem) * cfg_.mem_latency;

    const std::uint64_t done_at = now + shadingCycles(action.cost);
    if (done_at > now)
        COOPRT_TRACE_COMPLETE(tracer_, "sm", "shade", sm_id_,
                              ctx->warp_id, now, done_at - now);
    ctx->action = std::move(action);
    ctx->shade_done = done_at;
    shading_.emplace(done_at, std::move(ctx));
}

void
StreamingMultiprocessor::admitPending(std::uint64_t now)
{
    while (!pending_.empty() &&
           resident_warps_ < cfg_.max_warps_per_sm) {
        auto [warp_id, program] = pending_.front();
        pending_.pop_front();
        resident_warps_++;

        auto ctx = std::make_unique<WarpCtx>();
        ctx->warp_id = warp_id;
        ctx->program = program;
        ctx->start_cycle = now;
        scheduleAction(std::move(ctx), program->start(), now);
    }
}

void
StreamingMultiprocessor::onRetire(std::unique_ptr<WarpCtx> ctx,
                                  const rtunit::TraceResult &result)
{
    // trace_ray latency is the RT stall class (the dominant one).
    stalls_.rt += result.latency();
    in_trace_--;
    if (COOPRT_MUTATE(LostWarp))
        return; // drop the retired warp on the floor

    COOPRT_TRACE_COMPLETE(tracer_, "rtunit", "trace_ray", sm_id_,
                          ctx->warp_id, result.issue_cycle,
                          result.latency());
    const std::uint64_t now = result.retire_cycle;
    WarpProgram *program = ctx->program;
    scheduleAction(std::move(ctx), program->resume(result), now);
}

void
StreamingMultiprocessor::submitReady(std::uint64_t now)
{
    while (!wait_slot_.empty() && rt_.freeSlots() > 0) {
        std::unique_ptr<WarpCtx> ctx = std::move(wait_slot_.front());
        wait_slot_.pop_front();
        // Waiting for a warp-buffer slot is an RT-class stall.
        stalls_.rt += now - ctx->wait_since;
        for (rtunit::RtObserver *o : rt_.observers())
            o->onBufferWait(now - ctx->wait_since);
        if (now > ctx->wait_since)
            COOPRT_TRACE_COMPLETE(tracer_, "sm", "wait_warp_buffer",
                                  sm_id_, ctx->warp_id,
                                  ctx->wait_since,
                                  now - ctx->wait_since);

        in_trace_++;
        rtunit::TraceJob job = std::move(ctx->action.trace);
        const int warp_id = ctx->warp_id;
        // The retire callback owns the context until the RT unit
        // finishes the trace.
        auto *raw = ctx.release();
        const int slot = rt_.submit(
            job, now,
            [this, raw](int, const rtunit::TraceResult &res) {
                onRetire(std::unique_ptr<WarpCtx>(raw), res);
            });
        // Post-submit (a record survives an instant retire): name
        // the warp after its GPU-wide id.
        for (rtunit::RtObserver *o : rt_.observers())
            o->onWarpId(slot, warp_id);
    }
}

void
StreamingMultiprocessor::tick(std::uint64_t now)
{
    admitPending(now);

    // Shading phases that completed by now either issue their trace
    // or finish the warp.
    while (!shading_.empty() && shading_.begin()->first <= now) {
        std::unique_ptr<WarpCtx> ctx =
            std::move(shading_.begin()->second);
        shading_.erase(shading_.begin());
        if (ctx->action.kind == WarpAction::Kind::Finish) {
            completions_.push_back(
                {ctx->warp_id, ctx->start_cycle, now});
            COOPRT_TRACE_COMPLETE(tracer_, "sm", "warp", sm_id_,
                                  ctx->warp_id, ctx->start_cycle,
                                  now - ctx->start_cycle);
            resident_warps_--;
            admitPending(now); // a residency slot opened
            continue;
        }
        ctx->wait_since = now;
        wait_slot_.push_back(std::move(ctx));
    }

    submitReady(now);
    rt_.tick(now); // may retire warps -> onRetire -> new shading
    // Retires during this tick may have freed warp-buffer slots.
    submitReady(now);
#if COOPRT_CHECK_ENABLED
    auditInvariants(now);
#endif
}

#if COOPRT_CHECK_ENABLED
void
StreamingMultiprocessor::auditInvariants(std::uint64_t now) const
{
    // Every warp ever assigned is queued, shading, waiting for a
    // warp-buffer slot, tracing, or completed — nothing vanishes.
    const std::uint64_t accounted =
        pending_.size() + shading_.size() + wait_slot_.size() +
        std::uint64_t(in_trace_) + completions_.size();
    COOPRT_AUDIT(check_label_, "sm.warp_conservation", now,
                 audit_assigned_ == accounted,
                 "assigned=" + std::to_string(audit_assigned_) +
                     " pending=" + std::to_string(pending_.size()) +
                     " shading=" + std::to_string(shading_.size()) +
                     " wait_slot=" +
                     std::to_string(wait_slot_.size()) +
                     " in_trace=" + std::to_string(in_trace_) +
                     " completed=" +
                     std::to_string(completions_.size()));
    COOPRT_AUDIT(check_label_, "sm.resident_ledger", now,
                 std::uint64_t(resident_warps_) ==
                     shading_.size() + wait_slot_.size() +
                         std::uint64_t(in_trace_),
                 "resident=" + std::to_string(resident_warps_) +
                     " shading=" + std::to_string(shading_.size()) +
                     " wait_slot=" +
                     std::to_string(wait_slot_.size()) +
                     " in_trace=" + std::to_string(in_trace_));
}
#endif // COOPRT_CHECK_ENABLED

std::uint64_t
StreamingMultiprocessor::nextEventCycle(std::uint64_t now) const
{
    std::uint64_t next = rtunit::kNever;

    if (!pending_.empty() && resident_warps_ < cfg_.max_warps_per_sm)
        return now;
    if (!wait_slot_.empty() && rt_.freeSlots() > 0)
        return now;
    if (!shading_.empty()) {
        const std::uint64_t s = shading_.begin()->first;
        next = s > now ? s : now;
    }
    const std::uint64_t r = rt_.nextEventCycle(now);
    if (r < next)
        next = r;
    return next;
}

} // namespace cooprt::gpu
