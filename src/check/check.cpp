#include "check/check.hpp"

namespace cooprt::check {

namespace {

/**
 * Process-wide audit state. The simulator is single-threaded (and the
 * harness runs one simulation per process at a time), so plain
 * globals suffice; none of this state influences simulated behaviour
 * unless a mutation is armed.
 */
Handler g_handler;               // empty = throwing default
std::uint64_t g_violations = 0;
Mutation g_armed = Mutation::None;
std::uint64_t g_fired = 0;

} // namespace

std::string
Violation::message() const
{
    return invariant + " violated at cycle " + std::to_string(cycle) +
           " in " + component + ": " + detail;
}

ViolationError::ViolationError(Violation v)
    : std::runtime_error(v.message()), v_(std::move(v))
{
}

void
setHandler(Handler handler)
{
    g_handler = std::move(handler);
}

void
fail(std::string component, std::string invariant, std::uint64_t cycle,
     std::string detail)
{
    Violation v;
    v.component = std::move(component);
    v.invariant = std::move(invariant);
    v.cycle = cycle;
    v.detail = std::move(detail);
    g_violations++;
    if (g_handler) {
        g_handler(v);
        return;
    }
    throw ViolationError(std::move(v));
}

std::uint64_t
violationCount()
{
    return g_violations;
}

Collector::Collector()
{
    // Capturing `this` is safe: the destructor restores the default
    // before the collector dies.
    setHandler([this](const Violation &v) { items_.push_back(v); });
}

Collector::~Collector()
{
    setHandler(nullptr);
}

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::None: return "None";
      case Mutation::DoubleConsumeResponse: return "DoubleConsumeResponse";
      case Mutation::DropResponse: return "DropResponse";
      case Mutation::StackOverPush: return "StackOverPush";
      case Mutation::LostWarp: return "LostWarp";
      case Mutation::LeakWarpSlot: return "LeakWarpSlot";
      case Mutation::IllegalLbuHelper: return "IllegalLbuHelper";
      case Mutation::CacheHitMiscount: return "CacheHitMiscount";
      case Mutation::L2BankTimeTravel: return "L2BankTimeTravel";
      case Mutation::MetricsCycleRepeat: return "MetricsCycleRepeat";
      case Mutation::ProfMisattribution: return "ProfMisattribution";
      case Mutation::RayProvenanceDrop: return "RayProvenanceDrop";
      case Mutation::MemscopeMisattribution:
          return "MemscopeMisattribution";
      case Mutation::StaleLaneMask: return "StaleLaneMask";
      case Mutation::StaleLineIndex: return "StaleLineIndex";
      case Mutation::StaleTosMask: return "StaleTosMask";
      case Mutation::StaleGapView: return "StaleGapView";
      case Mutation::UntouchedStaleDrop: return "UntouchedStaleDrop";
      case Mutation::LevelTieIgnored: return "LevelTieIgnored";
    }
    return "Unknown";
}

const std::vector<Mutation> &
allMutations()
{
    static const std::vector<Mutation> all = {
        Mutation::DoubleConsumeResponse, Mutation::DropResponse,
        Mutation::StackOverPush,         Mutation::LostWarp,
        Mutation::LeakWarpSlot,          Mutation::IllegalLbuHelper,
        Mutation::CacheHitMiscount,      Mutation::L2BankTimeTravel,
        Mutation::MetricsCycleRepeat,    Mutation::ProfMisattribution,
        Mutation::RayProvenanceDrop,    Mutation::MemscopeMisattribution,
        Mutation::StaleLaneMask,         Mutation::StaleLineIndex,
        Mutation::StaleTosMask,          Mutation::StaleGapView,
        Mutation::UntouchedStaleDrop,    Mutation::LevelTieIgnored,
    };
    return all;
}

void
armMutation(Mutation m)
{
    g_armed = m;
}

void
disarmMutation()
{
    g_armed = Mutation::None;
}

Mutation
armedMutation()
{
    return g_armed;
}

bool
mutationArmed(Mutation m)
{
    return g_armed == m && m != Mutation::None;
}

bool
mutationFires(Mutation m)
{
    if (!mutationArmed(m))
        return false;
    g_armed = Mutation::None;
    g_fired++;
    return true;
}

std::uint64_t
mutationsFired()
{
    return g_fired;
}

} // namespace cooprt::check
