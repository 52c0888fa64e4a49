/**
 * @file
 * Strict number parsing for plan strings, grid axes and command-line
 * flags: the whole string must be the number. No whitespace, no sign on
 * an unsigned value, and an out-of-range value is an error, never a
 * clamp or a wrap.
 */

#ifndef TICSIM_SUPPORT_PARSE_HPP
#define TICSIM_SUPPORT_PARSE_HPP

#include <cstdint>
#include <string>

namespace ticsim {

/** Upper bound of --jobs and --workers: the threads or worker
 *  processes one flag may ask for. */
constexpr std::uint64_t kMaxJobs = 1024;

/** Parse an unsigned number in @p base (10 or 16) no larger than
 *  @p max; false on anything else. @p out is untouched on failure. */
bool parseU64(const std::string &s, std::uint64_t &out,
              std::uint64_t max = UINT64_MAX, int base = 10);

/** Parse a finite decimal number: an optional sign, digits, a point
 *  and an exponent — no whitespace, hex, inf or nan. @p out is
 *  untouched on failure. */
bool parseDouble(const std::string &s, double &out);

/** The value of command-line flag @p flag as parseU64() reads it; on a
 *  bad value, prints "<tool>: bad <flag> value ..." and exits 2. */
std::uint64_t flagU64(const char *tool, const char *flag, const char *value,
                      std::uint64_t max = UINT64_MAX);

/** The value of command-line flag @p flag as parseDouble() reads it;
 *  exits 2 like flagU64() on a bad value. */
double flagDouble(const char *tool, const char *flag, const char *value);

} // namespace ticsim

#endif // TICSIM_SUPPORT_PARSE_HPP
