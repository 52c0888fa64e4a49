#include "parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ticsim {

bool
parseU64(const std::string &s, std::uint64_t &out, std::uint64_t max,
         int base)
{
    if (s.empty())
        return false;
    // strtoull tolerates leading whitespace and '-' (which wraps to a
    // huge value); the number must start with a digit of its base.
    const auto first = static_cast<unsigned char>(s[0]);
    if (base == 16 ? !std::isxdigit(first) : !std::isdigit(first))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, base);
    if (end != s.c_str() + s.size() || errno == ERANGE || v > max)
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    // strtod also takes whitespace, hex, "inf" and "nan"; none of
    // those is a decimal number.
    if (s.empty() ||
        s.find_first_not_of("0123456789+-.eE") != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::uint64_t
flagU64(const char *tool, const char *flag, const char *value,
        std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseU64(value, v, max)) {
        std::fprintf(stderr,
                     "%s: bad %s value '%s' (a whole number from 0 to "
                     "%llu)\n",
                     tool, flag, value, static_cast<unsigned long long>(max));
        std::exit(2);
    }
    return v;
}

double
flagDouble(const char *tool, const char *flag, const char *value)
{
    double v = 0;
    if (!parseDouble(value, v)) {
        std::fprintf(stderr, "%s: bad %s value '%s' (a finite number)\n",
                     tool, flag, value);
        std::exit(2);
    }
    return v;
}

} // namespace ticsim
