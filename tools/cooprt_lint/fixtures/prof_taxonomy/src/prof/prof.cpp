// Fixture: kBucketNames drifted from the enum (entries 1 and 2 are
// swapped) and idle_no_ray is missing from DESIGN.md.
#include <array>
#include <string>
#include "prof.hpp"

constexpr std::array<const char *, 4> kBucketNames = {
    "issue_compute",
    "stack_bound",  // V: enum member 1 is FetchQueued
    "fetch_queued", // V: enum member 2 is StackBound
    "idle_no_ray",  // V: not in DESIGN.md
};

std::string
unitPrefix(int sm)
{
    return "prof.sm" + std::to_string(sm) + ".";
}

std::string
gpuName(int b)
{
    return std::string("prof.gpu.") + kBucketNames[b];
}
