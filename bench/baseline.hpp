/**
 * @file
 * The committed baselines of ticsverify: reading, writing and gating.
 * A baseline is JSON that --write-baseline wrote: a `schema` string
 * naming the mode, a `version`, and arrays of strings. Its strings
 * carry no escapes, so collecting the quoted strings between a
 * member's name and its closing bracket reads an array exactly.
 */

#ifndef TICSIM_BENCH_BASELINE_HPP
#define TICSIM_BENCH_BASELINE_HPP

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace ticsim::bench {

/** The baseline file at @p path; exits 2 when it cannot be read or its
 *  `schema` member is not @p schema (another mode's baseline). */
inline std::string
readBaseline(const std::string &path, const std::string &schema)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "ticsverify: cannot open baseline '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    if (text.find("\"schema\":\"" + schema + "\"") == std::string::npos) {
        std::fprintf(stderr,
                     "ticsverify: baseline '%s' is not a %s file\n",
                     path.c_str(), schema.c_str());
        std::exit(2);
    }
    return text;
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

/** The keys a run produced, each mapped to the text gateKeys() prints
 *  after it (a source location, a value, or nothing). */
using ProducedKeys = std::map<std::string, std::string>;

/** The keys of @p produced, in order. */
inline std::vector<std::string>
keysOf(const ProducedKeys &produced)
{
    std::vector<std::string> out;
    for (const auto &[key, note] : produced)
        out.push_back(key);
    return out;
}

/** One named array of a baseline, in the order it is written. */
using BaselineArray = std::pair<const char *, std::vector<std::string>>;

/** Write a baseline of @p schema and @p version holding @p arrays to
 *  @p path; exits 2 when the file cannot be written. */
inline void
writeBaseline(const std::string &path, const char *schema, int version,
              const std::vector<BaselineArray> &arrays)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "ticsverify: cannot write baseline '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    JsonWriter w(os);
    w.beginObject();
    w.member("schema", schema);
    w.member("version", version);
    std::string counts;
    for (const auto &[name, values] : arrays) {
        w.key(name).beginArray();
        for (const std::string &v : values)
            w.value(v);
        w.endArray();
        counts += (counts.empty() ? "" : ", ") +
                  std::to_string(values.size()) + " " + name;
    }
    w.endObject();
    os << '\n';
    std::printf("ticsverify: wrote baseline %s (%s)\n", path.c_str(),
                counts.c_str());
}

/**
 * Gate the keys a run produced against the baseline's @p known keys, in
 * both directions: a key only the run has prints "NEW <what>", one only
 * the baseline has prints "VANISHED <what>". @return the number of keys
 * that differ.
 */
inline std::size_t
gateKeys(const ProducedKeys &produced, const std::set<std::string> &known,
         const char *what)
{
    std::size_t differ = 0;
    for (const auto &[key, note] : produced) {
        if (!known.count(key)) {
            std::printf("NEW %s (not in baseline): %s%s\n", what,
                        key.c_str(), note.c_str());
            ++differ;
        }
    }
    for (const std::string &key : known) {
        if (!produced.count(key)) {
            std::printf("VANISHED %s (in baseline, not produced): %s\n",
                        what, key.c_str());
            ++differ;
        }
    }
    return differ;
}

} // namespace ticsim::bench

#endif // TICSIM_BENCH_BASELINE_HPP
