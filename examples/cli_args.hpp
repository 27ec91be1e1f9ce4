/**
 * @file
 * Strict numeric flag values for the command-line tools: the whole
 * token must parse and lie in range; anything else names the flag on
 * stderr and exits 2, the tools' usage-error code.
 */

#ifndef COOPRT_EXAMPLES_CLI_ARGS_HPP
#define COOPRT_EXAMPLES_CLI_ARGS_HPP

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

namespace cooprt::cli {

[[noreturn]] inline void
badValue(const char *flag, const char *text, const std::string &want)
{
    std::cerr << "error: " << flag << " wants " << want << ", got '"
              << text << "'\n";
    std::exit(2);
}

/** @p text as an integer in [@p lo, @p hi]. */
inline int
intArg(const char *flag, const char *text, int lo,
       int hi = std::numeric_limits<int>::max())
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi)
        badValue(flag, text,
                 "an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
    return int(v);
}

/** @p text as a finite number > 0, or >= 0 with @p allow_zero. */
inline double
realArg(const char *flag, const char *text, bool allow_zero = false)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v < 0.0 || (v == 0.0 && !allow_zero))
        badValue(flag, text,
                 allow_zero ? "a non-negative number"
                            : "a positive number");
    return v;
}

} // namespace cooprt::cli

#endif // COOPRT_EXAMPLES_CLI_ARGS_HPP
