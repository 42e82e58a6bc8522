/**
 * @file
 * Numeric flag parsing shared by the zac_batch, zac_serve, zac_client,
 * compile_qasm and ftqc_hiqp command lines. A malformed, partial or
 * out-of-range value is a usage error: a diagnostic naming the flag,
 * the usage text, and exit status 2. It never becomes a silent 0 or a
 * wrapped-around size.
 */

#ifndef ZAC_EXAMPLES_CLI_FLAGS_HPP
#define ZAC_EXAMPLES_CLI_FLAGS_HPP

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace zac::cli
{

/** Parses flag values for one program; errors name @p program. */
struct FlagParser
{
    const char *program;
    void (*usage)();

    /**
     * Parse an integer in [@p lo, @p hi]. std::stoll alone would escape
     * main() as an uncaught std::invalid_argument on e.g. `--port foo`.
     */
    long long
    intFlag(const char *flag, const std::string &value, long long lo,
            long long hi) const
    {
        long long v = 0;
        std::size_t used = 0;
        try {
            v = std::stoll(value, &used);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != value.size() || value.empty() || v < lo || v > hi) {
            std::fprintf(stderr,
                         "%s: %s: invalid value '%s' (expected an "
                         "integer in [%lld, %lld])\n",
                         program, flag, value.c_str(), lo, hi);
            usage();
            std::exit(2);
        }
        return v;
    }

    /** Parse a non-negative number, same contract as intFlag(). */
    double
    realFlag(const char *flag, const std::string &value) const
    {
        double v = 0.0;
        std::size_t used = 0;
        try {
            v = std::stod(value, &used);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != value.size() || value.empty() || !(v >= 0.0)) {
            std::fprintf(stderr,
                         "%s: %s: invalid value '%s' (expected a "
                         "non-negative number)\n",
                         program, flag, value.c_str());
            usage();
            std::exit(2);
        }
        return v;
    }
};

} // namespace zac::cli

#endif // ZAC_EXAMPLES_CLI_FLAGS_HPP
