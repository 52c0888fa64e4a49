/**
 * @file
 * Seeded, deterministic mutation fuzzing of the result cache's text
 * decoders: Distribution::decode (the cache entry's `dist` line) and
 * CellResult::decode (its `result` line). The corpus is the encode()
 * output of real sweep cells and their merged distributions; each
 * mutant is made by byte flips, truncation, and duplicated, negative
 * or oversized bucket tokens. Every mutant must either fail to decode
 * or decode to a value that survives one re-encode unchanged (a fixed
 * point), so a cache entry can never decode to something it would not
 * write back. A negative value on an unsigned field must fail to
 * decode; hand-picked cases pin that directly. The budget is a fixed
 * mutant count per seed, well under a second (ASan included).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

/** Bytes a mutation writes: the decoders' token alphabet and noise. */
char
mutantByte(Rng &rng)
{
    static const char kAlphabet[] = "0123456789-+:. eE\t\nxn";
    if (rng.chance(0.2))
        return static_cast<char>(rng.below(256));
    return kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
}

/** One mutant of @p s: one to three edits. */
std::string
mutate(const std::string &s, Rng &rng)
{
    static const std::vector<std::string> kTokens = {
        "-1:3",  "561:1",  "560:2",  "5:-3", "5:0", "0:0",
        "5:99999999999999999999", "99999999999:1", "7:18446744073709551615",
        ":",     "5:",     ":5",     "-0",   "1e400", "-1e-400",
    };
    std::string m = s;
    const auto edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::uint64_t kind = rng.below(5);
        if (kind == 0 && !m.empty()) {
            m[rng.below(m.size())] = mutantByte(rng); // byte flip
        } else if (kind == 1 && !m.empty()) {
            m.resize(rng.below(m.size())); // truncation
        } else if (kind == 2) {
            // Duplicate an existing token (often a bucket) elsewhere.
            const auto at = m.find(' ', rng.below(m.size() + 1));
            if (at != std::string::npos) {
                auto end = m.find(' ', at + 1);
                if (end == std::string::npos)
                    end = m.size();
                m += m.substr(at, end - at);
            }
        } else if (kind == 3) {
            m += ' ' + kTokens[rng.below(kTokens.size())];
        } else {
            // Replace a whole token with a hostile one.
            const auto at = m.find(' ', rng.below(m.size() + 1));
            if (at != std::string::npos) {
                auto end = m.find(' ', at + 1);
                if (end == std::string::npos)
                    end = m.size();
                m.replace(at + 1, end - at - 1,
                          kTokens[rng.below(kTokens.size())]);
            }
        }
    }
    return m;
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
            decoded += expectFixedPoint<Distribution>(mutate(seed, rng));
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
            decoded +=
                expectFixedPoint<sweep::CellResult>(mutate(seed, rng));
            ++total;
        }
    }
    EXPECT_GT(decoded, total / 10);
    EXPECT_LT(decoded, total);
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
