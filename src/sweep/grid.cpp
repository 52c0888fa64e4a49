#include "grid.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "harness/scenario.hpp"
#include "support/parse.hpp"

namespace ticsim::sweep {

std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

namespace {

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Exact-round-trip double rendering for canonical keys. */
std::string
fmtExact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Friendly double rendering for display tokens. */
std::string
fmtShort(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(s);
    while (std::getline(is, item, sep)) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

} // namespace

std::string
SupplyAxis::token() const
{
    switch (kind) {
      case SupplyKind::Continuous:
        return "continuous";
      case SupplyKind::Pattern:
        return "pattern:" + fmtShort(periodMs) + ":" +
               fmtShort(onFraction);
      case SupplyKind::Rf:
        return "rf";
      case SupplyKind::Stochastic:
        return "stochastic";
    }
    return "?";
}

bool
parseSupplyToken(const std::string &tok, SupplyAxis &out)
{
    const std::string t = lower(trim(tok));
    if (t == "continuous") {
        out = SupplyAxis{SupplyKind::Continuous, 0.0, 1.0};
        return true;
    }
    if (t == "rf") {
        out = SupplyAxis{SupplyKind::Rf, 0.0, 0.0};
        return true;
    }
    if (t == "stochastic") {
        out = SupplyAxis{SupplyKind::Stochastic, 0.0, 0.0};
        return true;
    }
    if (t.rfind("pattern:", 0) == 0) {
        const auto parts = splitList(t.substr(8), ':');
        if (parts.size() != 2)
            return false;
        SupplyAxis a;
        a.kind = SupplyKind::Pattern;
        if (!parseDouble(parts[0], a.periodMs) ||
            !parseDouble(parts[1], a.onFraction))
            return false;
        if (a.periodMs <= 0.0 || a.onFraction <= 0.0 ||
            a.onFraction > 1.0)
            return false;
        out = a;
        return true;
    }
    return false;
}

bool
parseEnvToken(const std::string &tok, std::string &out)
{
    const std::string t = lower(trim(tok));
    if (t.empty())
        return false;
    if (t == "none") {
        out.clear();
        return true;
    }
    for (const char c : t) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '_' && c != '-')
            return false;
    }
    out = t;
    return true;
}

std::string
Cell::canonical() const
{
    std::string s;
    s += "app=";
    s += app;
    s += "|rt=";
    s += runtime;
    s += "|supply=";
    switch (supply.kind) {
      case SupplyKind::Continuous:
        s += "continuous";
        break;
      case SupplyKind::Pattern:
        s += "pattern:" + fmtExact(supply.periodMs) + ":" +
             fmtExact(supply.onFraction);
        break;
      case SupplyKind::Rf:
        s += "rf";
        break;
      case SupplyKind::Stochastic:
        s += "stochastic";
        break;
    }
    s += "|cap_uf=";
    s += fmtExact(capUf);
    s += "|seg=";
    s += std::to_string(segmentBytes);
    // The env axis is appended only when set, so every pre-existing
    // cell keeps its canonical string (and JobId, and cache entry)
    // byte-for-byte.
    if (!env.empty())
        s += "|env=" + env;
    return s + "|seed=" + std::to_string(seed);
}

std::string
Cell::groupKey() const
{
    // canonical() without the trailing seed axis: cells differing
    // only by seed aggregate into one distribution.
    std::string s = canonical();
    s.erase(s.rfind("|seed="));
    return s;
}

std::string
Cell::jobIdHex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(jobId()));
    return buf;
}

std::string
Cell::label() const
{
    std::string s = app + "/" + runtime + "/" + supply.token();
    if (capUf > 0.0)
        s += "/cap=" + fmtShort(capUf) + "uF";
    if (segmentBytes > 0)
        s += "/seg=" + std::to_string(segmentBytes);
    if (!env.empty())
        s += "/env=" + env;
    s += "/seed=" + std::to_string(seed);
    return s;
}

std::vector<Cell>
GridSpec::cells() const
{
    // Each cell is keyed by its JobId once: computing one rebuilds the
    // canonical string and hashes it, too costly for every comparison.
    std::vector<std::pair<std::uint64_t, Cell>> keyed;
    std::unordered_set<std::uint64_t> seen;
    for (const auto &app : apps) {
        for (const auto &rt : runtimes) {
            for (const auto &supply : supplies) {
                for (const double cap : capsUf) {
                    for (const std::uint32_t seg : segments) {
                      for (const auto &env : envs) {
                        for (const std::uint64_t seed : seeds) {
                            Cell c;
                            c.app = app;
                            c.runtime = rt;
                            c.supply = supply;
                            c.env = env;
                            c.seed = seed;
                            // Normalize axes that cannot affect this
                            // cell, collapsing redundant grid points.
                            c.segmentBytes =
                                (rt == "TICS") ? seg : 0;
                            if (env.empty()) {
                                c.capUf =
                                    supply.harvested() ? cap : 0.0;
                            } else {
                                // A trace replaces the supply axis
                                // entirely (and is always harvested,
                                // so the capacitor axis applies).
                                c.supply = SupplyAxis{
                                    SupplyKind::Continuous, 0.0, 1.0};
                                c.capUf = cap;
                            }
                            const std::uint64_t id = c.jobId();
                            if (seen.insert(id).second)
                                keyed.emplace_back(id, std::move(c));
                        }
                      }
                    }
                }
            }
        }
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second.seed < b.second.seed;
              });
    std::vector<Cell> out;
    out.reserve(keyed.size());
    for (auto &kc : keyed)
        out.push_back(std::move(kc.second));
    return out;
}

bool
parseAxis(GridSpec &spec, const std::string &key,
          const std::string &values, std::string &err)
{
    const std::string k = lower(trim(key));
    const auto items = splitList(values, ',');
    if (items.empty()) {
        err = "axis '" + key + "' has no values";
        return false;
    }
    if (k == "apps") {
        spec.apps.clear();
        for (const auto &it : items) {
            const char *canon = harness::canonicalApp(it);
            if (!canon) {
                err = "unknown app '" + it + "' (AR, BC, CF)";
                return false;
            }
            spec.apps.push_back(canon);
        }
        return true;
    }
    if (k == "runtimes") {
        spec.runtimes.clear();
        for (const auto &it : items) {
            const char *canon = harness::canonicalRuntime(it);
            if (!canon) {
                err = "unknown runtime '" + it +
                      "' (plain-C, TICS, MementOS-like, "
                      "Chinchilla-like, Alpaca-like)";
                return false;
            }
            spec.runtimes.push_back(canon);
        }
        return true;
    }
    if (k == "supplies" || k == "supply") {
        spec.supplies.clear();
        for (const auto &it : items) {
            SupplyAxis a;
            if (!parseSupplyToken(it, a)) {
                err = "bad supply token '" + it +
                      "' (continuous, pattern:<ms>:<frac>, rf, "
                      "stochastic)";
                return false;
            }
            spec.supplies.push_back(a);
        }
        return true;
    }
    if (k == "caps_uf" || k == "caps") {
        spec.capsUf.clear();
        for (const auto &it : items) {
            double v = 0.0;
            if (!parseDouble(it, v) || v < 0.0) {
                err = "bad capacitance '" + it + "'";
                return false;
            }
            spec.capsUf.push_back(v);
        }
        return true;
    }
    if (k == "segments") {
        spec.segments.clear();
        for (const auto &it : items) {
            std::uint64_t v = 0;
            if (!parseU64(it, v, 1u << 20) || v == 0) {
                err = "bad segment size '" + it + "'";
                return false;
            }
            spec.segments.push_back(
                static_cast<std::uint32_t>(v));
        }
        return true;
    }
    if (k == "envs" || k == "env") {
        spec.envs.clear();
        for (const auto &it : items) {
            std::string env;
            if (!parseEnvToken(it, env)) {
                err = "bad env token '" + it +
                      "' (none, or a docs/traces name like "
                      "solar_diurnal)";
                return false;
            }
            spec.envs.push_back(env);
        }
        return true;
    }
    if (k == "seeds") {
        spec.seeds.clear();
        for (const auto &it : items) {
            std::uint64_t v = 0;
            if (!parseU64(it, v)) {
                err = "bad seed '" + it + "'";
                return false;
            }
            spec.seeds.push_back(v);
        }
        return true;
    }
    err = "unknown axis '" + key +
          "' (apps, runtimes, supplies, caps_uf, segments, envs, "
          "seeds)";
    return false;
}

bool
parseGridText(const std::string &text, const std::string &origin,
              GridSpec &spec, std::string &err)
{
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            err = origin + ":" + std::to_string(lineNo) +
                  ": expected 'axis = v1, v2, ...'";
            return false;
        }
        std::string axisErr;
        if (!parseAxis(spec, line.substr(0, eq), line.substr(eq + 1),
                       axisErr)) {
            err = origin + ":" + std::to_string(lineNo) + ": " +
                  axisErr;
            return false;
        }
    }
    return true;
}

bool
parseGridFile(const std::string &path, GridSpec &spec,
              std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open grid spec '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parseGridText(text.str(), path, spec, err);
}

std::string
formatSpec(const GridSpec &spec)
{
    const auto join = [](const auto &items, auto &&render) {
        std::string s;
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i)
                s += ", ";
            s += render(items[i]);
        }
        return s;
    };
    std::string out;
    out += "apps = " +
           join(spec.apps, [](const std::string &a) { return a; }) +
           "\n";
    out += "runtimes = " +
           join(spec.runtimes,
                [](const std::string &r) { return r; }) +
           "\n";
    // Pattern tokens carry doubles: render them with %.17g so the
    // re-parsed spec hashes to the same JobIds as the original.
    out += "supplies = " +
           join(spec.supplies,
                [](const SupplyAxis &a) -> std::string {
                    if (a.kind == SupplyKind::Pattern)
                        return "pattern:" + fmtExact(a.periodMs) +
                               ":" + fmtExact(a.onFraction);
                    return a.token();
                }) +
           "\n";
    out += "caps_uf = " +
           join(spec.capsUf,
                [](double v) { return fmtExact(v); }) +
           "\n";
    out += "segments = " +
           join(spec.segments,
                [](std::uint32_t v) { return std::to_string(v); }) +
           "\n";
    out += "envs = " +
           join(spec.envs,
                [](const std::string &e) -> std::string {
                    return e.empty() ? "none" : e;
                }) +
           "\n";
    out += "seeds = " +
           join(spec.seeds,
                [](std::uint64_t v) { return std::to_string(v); }) +
           "\n";
    return out;
}

} // namespace ticsim::sweep
