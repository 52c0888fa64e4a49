/**
 * @file
 * The committed-baseline reader of ticsverify and ticslint. A baseline
 * is JSON that the tool's --write-baseline wrote, and its strings carry
 * no escapes, so collecting the quoted strings between an array's name
 * and its closing bracket reads the array exactly.
 */

#ifndef TICSIM_BENCH_BASELINE_HPP
#define TICSIM_BENCH_BASELINE_HPP

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace ticsim::bench {

/** The baseline file at @p path; prints "<tool>: cannot open baseline"
 *  and exits 2 when it cannot be read. */
inline std::string
readBaseline(const char *tool, const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "%s: cannot open baseline '%s'\n", tool,
                     path.c_str());
        std::exit(2);
    }
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** The strings of the array member @p name of baseline @p text (empty
 *  when the baseline has no such member). */
inline std::set<std::string>
baselineArray(const std::string &text, const std::string &name)
{
    std::set<std::string> out;
    std::size_t pos = text.find("\"" + name + "\"");
    if (pos == std::string::npos)
        return out;
    pos = text.find('[', pos);
    const std::size_t end = text.find(']', pos);
    if (pos == std::string::npos || end == std::string::npos)
        return out;
    while (true) {
        const std::size_t open = text.find('"', pos);
        if (open == std::string::npos || open > end)
            break;
        const std::size_t close = text.find('"', open + 1);
        if (close == std::string::npos || close > end)
            break;
        out.insert(text.substr(open + 1, close - open - 1));
        pos = close + 1;
    }
    return out;
}

} // namespace ticsim::bench

#endif // TICSIM_BENCH_BASELINE_HPP
