/**
 * @file
 * Seeded, deterministic mutation fuzzing of the text decoders: the
 * result cache's Distribution::decode (the cache entry's `dist` line)
 * and CellResult::decode (its `result` line), the fault-plan grammar
 * FaultPlan::parse, the trace CSV reader EnvTrace::parse, and the
 * source-level lint's front end (lexer, parser, CFGs, checks) through
 * lint::analyzeText.
 *
 * Each corpus is real text: the encode() output of sweep cells and
 * their merged distributions, the minimal schedules of the committed
 * depth-2 explorer census (docs/ticsfault.explore.depth2.example.txt),
 * the committed environment traces (the CSV files in docs/traces), and
 * the lint's dogfood sources. Each mutant is made by byte flips,
 * truncation, duplicated tokens and hostile tokens in the format's own
 * dialect (space-separated numbers, ';'-joined plan atoms, CSV lines,
 * C++ source lines). A
 * cache line or a plan must either fail to decode or decode to a
 * value that survives one re-encode unchanged (a fixed point), so a
 * cache entry can never decode to something it would not write back,
 * and a plan that travels as text replays the schedule it names. A
 * trace must either be rejected or hold every invariant
 * EnvTrace::parse documents. A negative value on an unsigned cache
 * field must fail to decode; hand-picked cases pin that directly. The
 * lint must analyze any mutant without throwing and report only
 * well-formed findings. The budget is a fixed mutant count per seed,
 * about a second per test or less (ASan included).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "energy/trace_supply.hpp"
#include "fault/plan.hpp"
#include "lint/analyzer.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "sweep/cache.hpp"
#include "sweep/grid.hpp"
#include "sweep/sweep.hpp"

using namespace ticsim;

namespace {

constexpr int kMutantsPerSeed = 400;

/** encode() of a few real cells, plus their merged distribution. */
struct Corpus {
    std::vector<std::string> results;
    std::vector<std::string> dists;
};

const Corpus &
corpus()
{
    static const Corpus c = [] {
        Corpus out;
        sweep::GridSpec spec;
        std::string err;
        EXPECT_TRUE(sweep::parseAxis(spec, "apps", "BC", err)) << err;
        EXPECT_TRUE(sweep::parseAxis(spec, "runtimes", "TICS,plain-C", err))
            << err;
        EXPECT_TRUE(
            sweep::parseAxis(spec, "supplies", "continuous,pattern:40:0.5", err))
            << err;
        EXPECT_TRUE(sweep::parseAxis(spec, "seeds", "1,2,3", err)) << err;
        Distribution merged;
        for (const sweep::Cell &cell : spec.cells()) {
            const sweep::CellResult r =
                sweep::runCell(cell, sweep::SweepConfig{});
            out.results.push_back(r.encode());
            out.dists.push_back(r.simMs.encode());
            merged.merge(r.simMs);
            out.dists.push_back(merged.encode());
        }
        // A spread-out histogram with many buckets, and an empty one.
        Distribution wide;
        for (int i = -3; i < 200; ++i)
            wide.sample(i * 977.0 + 0.25 * i * i);
        out.dists.push_back(wide.encode());
        out.dists.push_back(Distribution().encode());
        return out;
    }();
    return c;
}

/** What a mutation writes into one text format. */
struct Dialect {
    char sep;                        ///< token separator
    std::string alphabet;            ///< bytes a flip favours
    std::vector<std::string> tokens; ///< hostile whole tokens
};

/** The cache's space-separated numbers and `index:count` buckets. */
const Dialect kCacheDialect{
    ' ',
    "0123456789-+:. eE\t\nxn",
    {"-1:3", "561:1", "560:2", "5:-3", "5:0", "0:0",
     "5:99999999999999999999", "99999999999:1", "7:18446744073709551615",
     ":", "5:", ":5", "-0", "1e400", "-1e-400"},
};

/** Fault plans: ';'-joined cut, tear, flip and off atoms, with numbers
 *  at and past each field's bound and a flip region longer than any
 *  NV region name. */
const Dialect kPlanDialect{
    ';',
    "0123456789@:+/&;x-acdefgilnoprstu",
    {"cut@commit:3+5000", "cut@commit-start:1", "cut@boot:0",
     "cut@send:1+", "cut@restore:18446744073709551615",
     "cut@time:18446744073709551616", "cut@t:4611686018427387903",
     "cut@t:4611686018427387904", "cut@t:-1", "cut@nowhere:1",
     "tear@hdr-store:2/prefix:8", "tear@undo-store:1/interleave:4",
     "tear@store:1/garbage:4294967295", "tear@store:1/garbage:4294967296",
     "tear@store:0/prefix:1", "tear@store:1/prefix", "tear@nope:1/prefix:1",
     "flip@1:tics.ckpt.hdr0+4&0x40", "flip@2:a&b+c+0&255",
     "flip@1:x+4294967295&0xFF", "flip@1:x+1&0x100", "flip@1:x+1&0",
     "flip@0:x+1&1", "flip@1:+1&1",
     "flip@1:" + std::string(200, 'r') + "+7&0x01", "off:0",
     "off:4611686018427387903", "off:4611686018427387904", "off:-1", "@",
     "cut@", "off:"},
};

/** Trace CSV: one `time_s,power_w` sample a line, '#' comments. */
const Dialect kTraceDialect{
    '\n',
    "0123456789.,-+eE# \n",
    {"0,0", "0,0.5", "1,-0", "-0,1", "-1,0", "1,-1e-300", "1e400,1",
     "1,1e-400", "nan,1", "2,inf", "0x10,1", "4611686018.427387903,1",
     "4611686018.427387904,1", "1e-10,1", "5", ",", "5,", ",5",
     "# comment", "  7 , 0.25  ", "3,2,1", "1.5e2,3e-2"},
};

/** C++ source: lines, with the tokens that steer the lexer's and the
 *  parser's state (raw strings, comments, unbalanced brackets, the
 *  TICS special forms) and a run of 300 open parentheses. */
const Dialect kSourceDialect{
    '\n',
    "{}()[];:<>\"'/\\*#=,.&|!~^%?+-_ \n\tRu8Lx0123456789abcdefnst",
    {"{", "}", "}}}}", "((((", ")", "R\"x(", ")x\"", "u8R\"(", "\"", "'",
     "'\\''", "/*", "*/", "//", "\\", "#define X {", "#if 0",
     "template <typename T> struct S", "while (true) {", "for (;;)",
     "do { } while (0);", "goto x; x:", "switch (x) { case 1:",
     "tics::expires(", "tics::expires(r, [&] {", "tics::timely(",
     "rt.store(", "radio.send(", "::", "operator()(", "auto f = [&]() {",
     "int a[] = {1, 2, 3};", "class C : public D {", "~C();", "...",
     "<<=", ">>>", "? :", "&&&", "return", "if (", "else", "0x", "1e",
     "a.b->c::d", std::string(300, '(')},
};

/** A byte a flip writes: the dialect's alphabet, or noise. */
char
mutantByte(Rng &rng, const Dialect &d)
{
    if (rng.chance(0.2))
        return static_cast<char>(rng.below(256));
    return d.alphabet[rng.below(d.alphabet.size())];
}

/** One mutant of @p s in dialect @p d: one to three edits. */
std::string
mutate(const std::string &s, Rng &rng, const Dialect &d)
{
    std::string m = s;
    const auto edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::uint64_t kind = rng.below(5);
        if (kind == 0 && !m.empty()) {
            m[rng.below(m.size())] = mutantByte(rng, d); // byte flip
        } else if (kind == 1 && !m.empty()) {
            m.resize(rng.below(m.size())); // truncation
        } else if (kind == 2) {
            // Duplicate an existing token (a bucket, an atom, a
            // sample line) at the end.
            const auto at = m.find(d.sep, rng.below(m.size() + 1));
            if (at != std::string::npos) {
                auto end = m.find(d.sep, at + 1);
                if (end == std::string::npos)
                    end = m.size();
                m += m.substr(at, end - at);
            }
        } else if (kind == 3) {
            m += d.sep + d.tokens[rng.below(d.tokens.size())];
        } else {
            // Replace a whole token with a hostile one.
            const auto at = m.find(d.sep, rng.below(m.size() + 1));
            if (at != std::string::npos) {
                auto end = m.find(d.sep, at + 1);
                if (end == std::string::npos)
                    end = m.size();
                m.replace(at + 1, end - at - 1,
                          d.tokens[rng.below(d.tokens.size())]);
            }
        }
    }
    return m;
}

/** FaultPlan behind the decode()/encode() pair of the cache types. */
struct PlanCodec {
    fault::FaultPlan plan;

    bool decode(const std::string &s)
    {
        return fault::FaultPlan::parse(s, plan);
    }
    std::string encode() const { return plan.format(); }
};

std::string
readSource(const std::string &rel)
{
    std::ifstream in(std::string(TICSIM_SOURCE_DIR) + "/" + rel,
                     std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The minimal schedules of the committed depth-2 census: the last
 *  cell of every violation-table row. */
std::vector<std::string>
fixturePlans()
{
    std::vector<std::string> plans;
    std::istringstream is(
        readSource("docs/ticsfault.explore.depth2.example.txt"));
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("off:") == std::string::npos)
            continue;
        const auto end = line.rfind('|');
        const auto start = line.rfind('|', end - 1);
        std::string cell = line.substr(start + 1, end - start - 1);
        cell.erase(0, cell.find_first_not_of(' '));
        cell.erase(cell.find_last_not_of(' ') + 1);
        plans.push_back(cell);
    }
    return plans;
}

/** The committed environment traces, in name order. */
std::vector<std::string>
fixtureTraces()
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(TICSIM_SOURCE_DIR) + "/docs/traces"))
        if (e.path().extension() == ".csv")
            names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    std::vector<std::string> texts;
    for (const std::string &n : names)
        texts.push_back(readSource("docs/traces/" + n));
    return texts;
}

/** The lint's dogfood set: repo-relative name and text per file. */
std::vector<std::pair<std::string, std::string>>
dogfoodSources()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &rel :
         lint::defaultSourceSet(TICSIM_SOURCE_DIR))
        out.emplace_back(rel, readSource(rel));
    return out;
}

/** Decode @p text with a fresh T; if it decodes, its encoding must
 *  decode and re-encode to itself. @return whether it decoded. */
template <typename T>
bool
expectFixedPoint(const std::string &text)
{
    T first;
    if (!first.decode(text))
        return false;
    const std::string once = first.encode();
    T second;
    EXPECT_TRUE(second.decode(once)) << "input: '" << text << "'";
    EXPECT_EQ(second.encode(), once) << "input: '" << text << "'";
    return true;
}

} // namespace

TEST(DecodeFuzz, DistributionDecodeFailsOrReachesAFixedPoint)
{
    Rng rng(0xD157);
    int decoded = 0;
    int total = 0;
    for (const std::string &seed : corpus().dists) {
        ASSERT_TRUE(expectFixedPoint<Distribution>(seed)) << seed;
        for (int i = 0; i < kMutantsPerSeed; ++i) {
            decoded += expectFixedPoint<Distribution>(
                mutate(seed, rng, kCacheDialect));
            ++total;
        }
    }
    // The mutants exercise both outcomes.
    EXPECT_GT(decoded, total / 10);
    EXPECT_LT(decoded, total);
}

TEST(DecodeFuzz, CellResultDecodeFailsOrReachesAFixedPoint)
{
    Rng rng(0xCE11);
    int decoded = 0;
    int total = 0;
    for (const std::string &seed : corpus().results) {
        ASSERT_TRUE(expectFixedPoint<sweep::CellResult>(seed)) << seed;
        for (int i = 0; i < kMutantsPerSeed; ++i) {
            decoded += expectFixedPoint<sweep::CellResult>(
                mutate(seed, rng, kCacheDialect));
            ++total;
        }
    }
    EXPECT_GT(decoded, total / 10);
    EXPECT_LT(decoded, total);
}

TEST(DecodeFuzz, FaultPlanParseFailsOrReachesAFixedPoint)
{
    const std::vector<std::string> seeds = fixturePlans();
    ASSERT_GT(seeds.size(), 100u);
    constexpr int kPlanMutants = 100;
    Rng rng(0x9A11);
    int decoded = 0;
    int total = 0;
    for (const std::string &seed : seeds) {
        ASSERT_TRUE(expectFixedPoint<PlanCodec>(seed)) << seed;
        for (int i = 0; i < kPlanMutants; ++i) {
            decoded += expectFixedPoint<PlanCodec>(
                mutate(seed, rng, kPlanDialect));
            ++total;
        }
    }
    EXPECT_GT(decoded, total / 10);
    EXPECT_LT(decoded, total);
}

TEST(DecodeFuzz, EnvTraceParseRejectsOrHoldsItsInvariants)
{
    const std::vector<std::string> seeds = fixtureTraces();
    ASSERT_GE(seeds.size(), 3u);
    Rng rng(0x7ACE);
    int accepted = 0;
    int total = 0;
    for (const std::string &seed : seeds) {
        std::string err;
        ASSERT_NE(energy::EnvTrace::parse(seed, "seed", err), nullptr)
            << err;
        for (int i = 0; i < kMutantsPerSeed; ++i) {
            const std::string text = mutate(seed, rng, kTraceDialect);
            ++total;
            err.clear();
            const auto trace = energy::EnvTrace::parse(text, "mutant", err);
            if (!trace) {
                EXPECT_FALSE(err.empty());
                continue;
            }
            ++accepted;
            const auto &s = trace->samples();
            ASSERT_GE(s.size(), 2u) << text;
            EXPECT_EQ(s.front().time, TimeNs{0}) << text;
            for (std::size_t k = 0; k < s.size(); ++k) {
                EXPECT_LT(s[k].time, TimeNs{1} << 62) << text;
                EXPECT_TRUE(std::isfinite(s[k].power)) << text;
                EXPECT_GE(s[k].power, 0.0) << text;
                if (k > 0)
                    EXPECT_GT(s[k].time, s[k - 1].time) << text;
            }
            EXPECT_EQ(trace->duration(), s.back().time);
        }
    }
    EXPECT_GT(accepted, total / 10);
    EXPECT_LT(accepted, total);
}

TEST(DecodeFuzz, NegativeUnsignedFieldsAreRejected)
{
    // istream >> uint64_t and stoull both accept a leading '-' and
    // wrap it ("-3" reads as 2^64 - 3); the decoders refuse it on
    // every unsigned field and reset to the empty value.
    for (const char *text : {
             "-3 9 3 0 3 3",      // header count
             "3 9 3 0 3 3 5:-3",  // bucket count
             "3 9 3 0 3 3 -0:3",  // bucket index
             "-0 0 0 0 0 0",      // even a negative zero
         }) {
        Distribution d;
        EXPECT_FALSE(d.decode(text)) << text;
        EXPECT_EQ(d.encode(), Distribution().encode()) << text;
    }
    // Negative doubles in the moments are legitimate values.
    Distribution neg;
    neg.sample(-2.5);
    Distribution back;
    EXPECT_TRUE(back.decode(neg.encode())) << neg.encode();
    EXPECT_EQ(back.encode(), neg.encode());

    for (const char *text : {
             "1 0 1 -2 100 5000 4000",  // reboots
             "1 0 1 2 -100 5000 4000",  // cycles
             "1 0 1 2 100 -5000 4000",  // elapsed ns
             "1 0 1 2 100 5000 -4000",  // on-time ns
             "-1 0 1 2 100 5000 4000",  // a flag
         }) {
        sweep::CellResult r;
        EXPECT_FALSE(r.decode(text)) << text;
        EXPECT_EQ(r.encode(), sweep::CellResult{}.encode()) << text;
    }
    sweep::CellResult ok;
    EXPECT_TRUE(ok.decode("1 0 1 2 100 5000 4000"));
    EXPECT_EQ(ok.reboots, 2u);
}

TEST(DecodeFuzz, LintFrontEndSurvivesMutatedSources)
{
    const auto seeds = dogfoodSources();
    ASSERT_GE(seeds.size(), 15u);
    constexpr int kSourceMutants = 48;
    Rng rng(0x5EED);
    std::size_t findings = 0;
    for (const auto &[name, text] : seeds) {
        ASSERT_FALSE(text.empty()) << name;
        for (int i = 0; i < kSourceMutants; ++i) {
            const std::string m = mutate(text, rng, kSourceDialect);
            lint::FileReport rep;
            ASSERT_NO_THROW(rep = lint::analyzeText(
                                name, m, lint::fileModeTraits()))
                << name << " mutant " << i;
            const int lines =
                1 + static_cast<int>(std::count(m.begin(), m.end(), '\n'));
            for (std::size_t k = 0; k < rep.findings.size(); ++k) {
                const lint::StaticFinding &f = rep.findings[k];
                EXPECT_TRUE(f.rule == lint::kRuleWar ||
                            f.rule == lint::kRuleTimeliness ||
                            f.rule == lint::kRuleIo ||
                            f.rule == lint::kRuleSegmentation)
                    << f.rule;
                EXPECT_EQ(f.file, name);
                EXPECT_GE(f.line, 1) << name << " mutant " << i;
                EXPECT_LE(f.line, lines) << name << " mutant " << i;
                if (k > 0) {
                    const lint::StaticFinding &p = rep.findings[k - 1];
                    EXPECT_LT(std::tie(p.line, p.rule, p.subject),
                              std::tie(f.line, f.rule, f.subject))
                        << "findings sorted and deduplicated";
                }
            }
            findings += rep.findings.size();
        }
    }
    // Most mutants leave most of a file intact, so findings survive.
    EXPECT_GT(findings, seeds.size() * kSourceMutants);
}
