// Fixture: stats-registered. Every counter of a stats struct must be
// registered with the trace registry, or carry an allow() naming the
// channel that publishes it.
#include <cstdint>

struct RtUnitStats
{
    std::uint64_t node_fetches = 0; // clean: registered
    std::uint64_t steals = 0;       // V: never registered
    // cooprt-lint: allow(stats-registered) read by a derived mean probe
    std::uint64_t latency_sum = 0;  // clean: allowed with a reason
    // cooprt-lint: allow(stats-registered) stale: registered below
    std::uint64_t box_tests = 0;    // V: unused suppression
};
