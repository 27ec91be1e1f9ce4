/**
 * @file
 * Machine-readable reporting of simulation outcomes: a hand-rolled
 * JSON writer (no external dependencies) used by the CLI front end
 * and available to downstream tooling.
 */

#ifndef COOPRT_CORE_REPORT_HPP
#define COOPRT_CORE_REPORT_HPP

#include <iosfwd>
#include <string>

#include "core/simulation.hpp"

namespace cooprt::core {

/**
 * Write @p outcome as a JSON object: scene, resolution, cycles, RT
 * unit counters, cache/DRAM statistics, stall breakdown, utilization
 * and power. Doubles are written in their shortest exactly
 * round-tripping form, so the report is the run's lossless record
 * (`cooprt::diff` reads runs only through it).
 */
void writeJson(std::ostream &os, const RunOutcome &outcome);

/** Convenience: the same JSON as a string. */
std::string toJson(const RunOutcome &outcome);

} // namespace cooprt::core

#endif // COOPRT_CORE_REPORT_HPP
