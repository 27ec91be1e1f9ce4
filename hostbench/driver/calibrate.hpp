/**
 * @file
 * A fixed calibration kernel that measures how fast the machine runs
 * right now, so frame times can be read against it.
 *
 * On a shared machine the same frame's CPU time moves by 2x over an
 * hour as other tenants load the caches, memory and sibling threads the
 * process shares; the hypervisor reports almost none of it as steal
 * time. The kernel does the simulator's kind of work (box tests on a
 * pointer-linked tree of a few MB, set-associative tag lookups, a
 * traversal stack) and is timed next to every frame, on the same CPU,
 * so a frame's cost can be expressed in kernel runs. The kernel lives
 * in the benchmark, not in `src/`, so a simulator change never moves
 * it.
 */

#ifndef COOPRT_HOSTBENCH_CALIBRATE_HPP
#define COOPRT_HOSTBENCH_CALIBRATE_HPP

#include <cstdint>
#include <vector>

namespace cooprt::hostbench {

class Calibration
{
  public:
    /** Builds the kernel's tree (deterministic, independent of seeds). */
    Calibration();

    /** Runs the kernel once; returns its process CPU seconds. */
    double run();

  private:
    struct Node
    {
        float lo[3];
        float hi[3];
        std::uint32_t child[2];
    };

    std::vector<Node> nodes_;
    std::vector<std::uint64_t> tags_;
    /** Folds in every run's results so the compiler keeps the work. */
    std::uint64_t sink_ = 0;
};

/** Process CPU time in nanoseconds. */
std::uint64_t cpuNs();

} // namespace cooprt::hostbench

#endif // COOPRT_HOSTBENCH_CALIBRATE_HPP
