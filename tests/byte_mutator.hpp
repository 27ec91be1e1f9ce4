/**
 * @file
 * Seeded byte-level input mutation for the malformed-input tests:
 * flip one bit, insert a byte, delete a byte or truncate, at a
 * position drawn from a fixed-seed PCG32 stream, so every run feeds
 * the parsers the same mutants.
 */

#ifndef COOPRT_TESTS_BYTE_MUTATOR_HPP
#define COOPRT_TESTS_BYTE_MUTATOR_HPP

#include <cstdint>
#include <string>

#include "geom/rng.hpp"

namespace cooprt::testutil {

enum class Mutation { Flip, Insert, Delete, Truncate };

inline constexpr int kNumMutations = 4;

/** @p input with one @p kind mutation at a position from @p rng. */
inline std::string
mutate(std::string input, Mutation kind, geom::Pcg32 &rng)
{
    const std::uint32_t at =
        rng.nextBelow(std::uint32_t(input.size()) + 1);
    const std::uint32_t pick = rng.nextBelow(256);
    if (at == input.size() && kind != Mutation::Insert)
        return input.substr(0, input.size() / 2);
    switch (kind) {
      case Mutation::Flip:
        input[at] = char(input[at] ^ (1u << (pick % 8)));
        break;
      case Mutation::Insert:
        input.insert(input.begin() + at, char(pick));
        break;
      case Mutation::Delete:
        input.erase(at, 1);
        break;
      case Mutation::Truncate:
        input.resize(at);
        break;
    }
    return input;
}

} // namespace cooprt::testutil

#endif // COOPRT_TESTS_BYTE_MUTATOR_HPP
