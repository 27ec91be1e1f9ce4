/**
 * @file
 * The RT-unit observer event stream.
 *
 * Every observer of the RT unit (the `prof` stall profiler, the
 * `memscope` BVH-topology profiler, the `raytrace` ray recorder)
 * watches the same per-cycle pipeline of the paper's Fig. 7: a warp
 * is submitted, one coalesced fetch issues (its consumer lanes pop
 * their TOS), pop-time elimination drops stale entries, the LBU moves
 * a node, one response is consumed (pushing children or testing a
 * leaf), and the warp retires. `RtUnit` reports each step once, as a
 * typed event, to every attached observer; nothing an observer does
 * can feed back into simulated state.
 */

#ifndef COOPRT_RTUNIT_RT_OBSERVER_HPP
#define COOPRT_RTUNIT_RT_OBSERVER_HPP

#include <array>
#include <cstdint>

#include "rtunit/trace_config.hpp"

namespace cooprt::prof {
enum class MemLevel : int;
enum class Phase : int;
struct WarpView;
} // namespace cooprt::prof

namespace cooprt::rtunit {

/**
 * Per-interval thread-status sample for the paper's Fig. 4: threads
 * inside resident warps are inactive (no ray), busy (non-empty stack
 * or node in flight), or waiting (finished early / not yet started).
 */
struct ThreadStatusCounts
{
    std::uint64_t inactive = 0;
    std::uint64_t busy = 0;
    std::uint64_t waiting = 0;

    std::uint64_t total() const { return inactive + busy + waiting; }
    bool operator==(const ThreadStatusCounts &) const = default;
};

/** One coalesced node fetch, reported when it issues. */
struct FetchEvent
{
    int slot = 0;
    /** Raw `bvh::NodeRef` of the fetched record. */
    std::uint32_t ref = 0;
    /** Lanes that popped this node and share the fetch. */
    std::uint32_t consumers = 0;
    /** Ray owner of each consumer lane. */
    std::array<std::int8_t, kWarpSize> mains{};
    /** Memory level that serves the fetch. */
    prof::MemLevel level{};

    /** Topology tags, filled only when some attached observer
     *  wantsFetchTopology: stable FlatBvh node id, tree depth
     *  (root = 1), record bytes and the warp's traversal phase after
     *  the pops. */
    std::uint32_t node_id = 0;
    int depth = 0;
    std::uint32_t bytes = 0;
    prof::Phase phase{};
};

/** Interface of everything that watches an RT unit. Every event has
 *  an empty default, so an observer overrides only what it records;
 *  the wants / watchesWarp gates keep events it does not ask for
 *  from being sent at all. */
class RtObserver
{
  public:
    RtObserver() = default;
    RtObserver(const RtObserver &) = default;
    RtObserver(RtObserver &&) = default;
    RtObserver &operator=(const RtObserver &) = default;
    RtObserver &operator=(RtObserver &&) = default;
    virtual ~RtObserver() = default;

    /** Asks for onWarpCycles; the unit then attributes every
     *  resident warp cycle (its only per-tick observer pass, over
     *  the warps an event touched). */
    virtual bool wantsWarpCycles() const { return false; }
    /** Asks for onLaneEdges at every lane state change of a warp it
     *  watches. */
    virtual bool wantsLaneEdges() const { return false; }
    /** Asks for every onFetch, watched warp or not, with the
     *  FetchEvent topology tags filled. */
    virtual bool wantsFetchTopology() const { return false; }
    /** Asked right after onSubmit: whether this observer gets the
     *  warp's per-lane events, onFetch through onLaneEdges. Submit,
     *  retire and the SM-side events always arrive. */
    virtual bool watchesWarp(int /*slot*/) const { return true; }

    /** A warp entered @p slot: lanes with a ray, and lanes whose
     *  root push survived the scene-box test. */
    virtual void onSubmit(int, std::uint32_t /*active_mask*/,
                          std::uint32_t /*root_mask*/, std::uint64_t)
    {}
    /** SM side: the GPU-wide id of the warp just submitted. */
    virtual void onWarpId(int /*slot*/, int /*warp_id*/) {}
    /** SM side: a trace waited @p cycles for a warp-buffer slot. */
    virtual void onBufferWait(std::uint64_t /*cycles*/) {}
    /** A fetch issued; its consumer lanes popped its node. */
    virtual void onFetch(const FetchEvent &, std::uint64_t) {}
    /** Pop-time elimination dropped @p lane's stale TOS entry. */
    virtual void onStaleDrop(int /*slot*/, int /*lane*/, int /*owner*/,
                             std::uint32_t /*ref*/, std::uint64_t)
    {}
    /** A child was pushed on @p lane's stack for ray @p owner. */
    virtual void onPush(int /*slot*/, int /*lane*/, int /*owner*/,
                        std::uint32_t /*ref*/, std::uint64_t)
    {}
    /** The LBU moved ray @p owner's entry from @p donor to
     *  @p recipient; @p reform = the helper switched owners. */
    virtual void onSteal(int /*slot*/, int /*donor*/, int /*recipient*/,
                         int /*owner*/, bool /*reform*/, std::uint64_t)
    {}
    /** @p lane consumed a response for ray @p owner. */
    virtual void onConsume(int /*slot*/, int /*lane*/, int /*owner*/,
                           std::uint32_t /*ref*/, prof::MemLevel,
                           std::uint64_t)
    {}
    /** @p tests primitives were tested at a leaf for ray @p owner. */
    virtual void onLeafTests(int /*slot*/, int /*lane*/, int /*owner*/,
                             std::uint32_t /*tests*/, std::uint64_t)
    {}
    /** Busy lanes of @p slot after a state change (wantsLaneEdges). */
    virtual void onLaneEdges(int /*slot*/, std::uint32_t /*busy_mask*/,
                             std::uint64_t)
    {}
    /** The warp in @p slot retired. */
    virtual void onRetire(int /*slot*/, std::uint64_t) {}
    /** @p weight cycles of the resident warp in @p slot, with its
     *  classification inputs, phase and per-lane status
     *  (wantsWarpCycles). A warp no event touched is credited
     *  lazily: its spans arrive in cycle order and before its
     *  onRetire, but may trail other warps' later events; read
     *  totals between ticks only after RtUnit::flushCycles. */
    virtual void onWarpCycles(int /*slot*/, const prof::WarpView &,
                              prof::Phase, std::uint64_t /*weight*/,
                              const ThreadStatusCounts &)
    {}
};

} // namespace cooprt::rtunit

#endif // COOPRT_RTUNIT_RT_OBSERVER_HPP
