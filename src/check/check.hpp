/**
 * @file
 * The simulator's correctness-audit layer (`cooprt::check`).
 *
 * Every figure the bench suite reproduces rests on cycle-level
 * bookkeeping: per-thread traversal stacks, one coalesced node fetch
 * per warp per cycle, one response consumed per cycle, the LBU moving
 * one TOS per subwarp per cycle (paper Fig. 7 / Algorithm 2). A
 * silent accounting bug in any of these invalidates every reported
 * cycle count. RTL reproductions get an equivalent net for free from
 * assertions and lint; this header is the C++ timing model's version
 * of it.
 *
 * Components register *structural invariants* at the places where the
 * state lives (RT unit warp buffer, SM residency ledger, cache tag
 * stores, samplers) and validate them every cycle or at phase
 * boundaries through the `COOPRT_AUDIT` macro. A failed audit raises
 * a structured `check::Violation` — component path, invariant id,
 * cycle, and a snapshot of the offending state — which by default is
 * thrown as a `check::ViolationError` so tests can assert on it.
 *
 * The whole layer is compile-time selectable: configure with
 * `-DCOOPRT_CHECK=ON` (or the `check` CMake preset) to enable it.
 * When off (the default), `COOPRT_AUDIT` and `COOPRT_MUTATE` expand
 * to nothing — zero overhead, bit-identical simulation results.
 *
 * A mutation-test harness rides along: `armMutation()` arms one of
 * ~9 seeded model bugs (double-consumed response, runaway stack push,
 * lost warp, illegal LBU steal, ...) that the model code injects at
 * the matching `COOPRT_MUTATE` site, proving the audits actually
 * catch the bug class they claim to (see tests/check).
 *
 * The invariant catalogue lives in DESIGN.md ("Correctness audit
 * layer"); add new invariants there when adding audits here.
 */

#ifndef COOPRT_CHECK_CHECK_HPP
#define COOPRT_CHECK_CHECK_HPP

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef COOPRT_CHECK_ENABLED
#define COOPRT_CHECK_ENABLED 0
#endif

namespace cooprt::check {

/** True when the audit layer is compiled in (COOPRT_CHECK=ON). */
constexpr bool
enabled()
{
    return COOPRT_CHECK_ENABLED != 0;
}

/** One detected invariant violation. */
struct Violation
{
    /** Component path, e.g. "rtunit.sm0" or "mem.l2". */
    std::string component;
    /** Invariant id, e.g. "rtunit.outstanding_matches_fifo". */
    std::string invariant;
    /** Simulated cycle at which the audit fired. */
    std::uint64_t cycle = 0;
    /** Snapshot of the offending state, human-readable. */
    std::string detail;

    /** "invariant violated at cycle N in component: detail". */
    std::string message() const;
};

/** The exception the default violation handler throws. */
class ViolationError : public std::runtime_error
{
  public:
    explicit ViolationError(Violation v);
    const Violation &violation() const { return v_; }

  private:
    Violation v_;
};

/**
 * Handler invoked on every violation. The default handler throws
 * `ViolationError`; tests install a collecting handler to count
 * violations without unwinding.
 */
using Handler = std::function<void(const Violation &)>;

/** Install @p handler; a null handler restores the throwing default. */
void setHandler(Handler handler);

/**
 * Report a violation (the slow path behind COOPRT_AUDIT; also usable
 * directly from check-only code). Routes to the installed handler.
 */
void fail(std::string component, std::string invariant,
          std::uint64_t cycle, std::string detail);

/** Total violations reported since process start (any handler). */
std::uint64_t violationCount();

/**
 * RAII collector: while alive, violations are appended to `items`
 * instead of thrown. Restores the previous handler on destruction.
 */
class Collector
{
  public:
    Collector();
    ~Collector();
    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    const std::vector<Violation> &items() const { return items_; }
    bool empty() const { return items_.empty(); }

  private:
    std::vector<Violation> items_;
};

/**
 * The seeded model bugs of the mutation-test harness. Each names the
 * bug class it injects and (in tests/check/test_mutations.cpp) the
 * invariant id expected to catch it.
 */
enum class Mutation
{
    None = 0,
    /** RT unit decrements a warp's outstanding-response count twice. */
    DoubleConsumeResponse,
    /** RT unit discards a response without delivering it. */
    DropResponse,
    /** Runaway duplicate pushes flood a traversal stack. */
    StackOverPush,
    /** SM drops a retired warp instead of resuming its program. */
    LostWarp,
    /** RT unit retires a warp without releasing its buffer slot. */
    LeakWarpSlot,
    /** LBU steals into a helper whose stack is not empty. */
    IllegalLbuHelper,
    /** Cache counts a miss as a hit as well. */
    CacheHitMiscount,
    /** L2 bank's busy-until clock moves backwards. */
    L2BankTimeTravel,
    /** Metrics sampler records a duplicate (non-monotone) cycle row. */
    MetricsCycleRepeat,
    /** Profiler skips one warp's stall classification for a cycle. */
    ProfMisattribution,
    /** Ray provenance recorder silently loses a steal event. */
    RayProvenanceDrop,
    /** Memscope drops one line's serving-level attribution. */
    MemscopeMisattribution,
    /** LBU steal leaves the main lane's work/deep bits stale. */
    StaleLaneMask,
    /** Cache eviction leaves the victim's line in the tag index. */
    StaleLineIndex,
    /** A min_thit write leaves the owner's stale-TOS bits behind. */
    StaleTosMask,
    /** The RT unit stores a warp's gap view with progressed set. */
    StaleGapView,
    /** The RT unit's end pass skips a warp that only dropped stale
        stack entries. */
    UntouchedStaleDrop,
    /** The RT unit resolves a wait-level tie without the heap's
        array order. */
    LevelTieIgnored,
};

/** Stable name of @p m ("DoubleConsumeResponse", ...). */
const char *mutationName(Mutation m);

/** All injectable mutations (everything but None). */
const std::vector<Mutation> &allMutations();

/**
 * Arm @p m: the next `COOPRT_MUTATE(m)` site reached fires exactly
 * once. Arming replaces any previously armed mutation.
 */
void armMutation(Mutation m);

/** Disarm without firing. */
void disarmMutation();

/** The currently armed, not-yet-fired mutation (None when idle). */
Mutation armedMutation();

/** True when @p m is armed and has not fired yet (does not consume). */
bool mutationArmed(Mutation m);

/**
 * Consume the armed mutation: true exactly once after `armMutation(m)`
 * (the backing of COOPRT_MUTATE; model code normally uses the macro).
 */
bool mutationFires(Mutation m);

/** Number of mutations fired since process start. */
std::uint64_t mutationsFired();

} // namespace cooprt::check

#if COOPRT_CHECK_ENABLED

/**
 * Validate a structural invariant. @p cond is the invariant; on
 * failure @p detail (a std::string expression, evaluated lazily) is
 * captured into a Violation routed through the handler.
 */
#define COOPRT_AUDIT(component, invariant, cycle, cond, detail)        \
    do {                                                               \
        if (!(cond))                                                   \
            ::cooprt::check::fail((component), (invariant), (cycle),   \
                                  (detail));                           \
    } while (0)

/** True once when mutation @p m is armed (see check::armMutation). */
#define COOPRT_MUTATE(m)                                               \
    (::cooprt::check::mutationFires(::cooprt::check::Mutation::m))

/** Peek: mutation @p m is armed and unfired (does not consume). */
#define COOPRT_MUTATE_ARMED(m)                                         \
    (::cooprt::check::mutationArmed(::cooprt::check::Mutation::m))

/** Compile the argument only in check builds (check-only state). */
#define COOPRT_CHECK_ONLY(...) __VA_ARGS__

#else

#define COOPRT_AUDIT(component, invariant, cycle, cond, detail) ((void)0)
#define COOPRT_MUTATE(m) false
#define COOPRT_MUTATE_ARMED(m) false
#define COOPRT_CHECK_ONLY(...)

#endif // COOPRT_CHECK_ENABLED

#endif // COOPRT_CHECK_CHECK_HPP
