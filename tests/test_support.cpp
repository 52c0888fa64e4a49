/**
 * @file
 * Unit tests for the support substrate: RNG determinism and
 * distributions, statistics, table/CSV formatting, units, and the
 * Fig. 10 effort metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "harness/effort.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

using namespace ticsim;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
    EXPECT_EQ(r.range(5, 5), 5);
    EXPECT_EQ(r.range(5, 4), 5); // degenerate clamps to lo
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0, sumSq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.gaussian(10.0, 2.0);
        sum += v;
        sumSq += v * v;
    }
    const double mean = sum / n;
    const double var = sumSq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialMean)
{
    Rng r(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, ForkIndependentButDeterministic)
{
    Rng a(5);
    Rng fork1 = a.fork();
    Rng b(5);
    Rng fork2 = b.fork();
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(fork1.next(), fork2.next());
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    for (const double v : {2.0, 4.0, 6.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-9);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Distribution, StddevStableAtNsScale)
{
    // Regression: virtual-time samples sit near 1e15 ns with a small
    // spread. The naive (sumSq - sum^2/n)/(n-1) formulation cancels
    // catastrophically there (sumSq ~ 1e31 vs spread^2 ~ 1e6) and
    // returned 0 or NaN; Welford's update keeps full precision.
    Distribution d;
    const double base = 1.0e15; // ~11.5 days in ns
    for (const double off : {-300.0, -100.0, 100.0, 300.0})
        d.sample(base + off);
    EXPECT_DOUBLE_EQ(d.mean(), base);
    // Exact sample stddev of {-300,-100,100,300} is sqrt(200000/3)*... :
    // variance = (90000+10000+10000+90000)/3 = 200000/3.
    EXPECT_NEAR(d.stddev(), std::sqrt(200000.0 / 3.0), 1e-3);
}

TEST(Distribution, StddevLargeCountNsScale)
{
    Distribution d;
    const double base = 5.0e14;
    for (int i = 0; i < 10000; ++i)
        d.sample(base + (i % 2 ? 1000.0 : -1000.0));
    EXPECT_NEAR(d.mean(), base, 1.0);
    EXPECT_NEAR(d.stddev(), 1000.0, 1.0);
}

TEST(Distribution, PercentilesOnKnownData)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(static_cast<double>(i));
    // Log-bucketed histogram: nearest-rank within a few % of exact.
    EXPECT_NEAR(d.p50(), 50.0, 4.0);
    EXPECT_NEAR(d.p95(), 95.0, 6.0);
    EXPECT_NEAR(d.p99(), 99.0, 6.0);
    // Percentiles are clamped into the observed range.
    EXPECT_GE(d.p50(), d.min());
    EXPECT_LE(d.p99(), d.max());
    EXPECT_LE(d.p50(), d.p95());
    EXPECT_LE(d.p95(), d.p99());
}

TEST(Distribution, PercentilesHeavyTail)
{
    // 99 fast samples and one huge outlier: p50/p95 must ignore the
    // tail, p99 (nearest-rank over 100 samples) lands on rank 99.
    Distribution d;
    for (int i = 0; i < 99; ++i)
        d.sample(10.0);
    d.sample(1.0e9);
    EXPECT_NEAR(d.p50(), 10.0, 1.0);
    EXPECT_NEAR(d.p95(), 10.0, 1.0);
    EXPECT_NEAR(d.p99(), 10.0, 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 1.0e9);
}

TEST(Distribution, PercentileEdgeCases)
{
    Distribution empty;
    EXPECT_EQ(empty.p50(), 0.0); // no samples: defined as zero
    Distribution one;
    one.sample(42.0);
    EXPECT_DOUBLE_EQ(one.p50(), 42.0);
    EXPECT_DOUBLE_EQ(one.p99(), 42.0);
    Distribution zeros; // non-positive samples land in bucket 0
    zeros.sample(0.0);
    zeros.sample(-5.0);
    EXPECT_LE(zeros.p50(), 0.0);
}

TEST(StatGroup, CountersAndLookup)
{
    StatGroup g("grp");
    ++g.counter("a");
    g.counter("a") += 4;
    EXPECT_EQ(g.counterValue("a"), 5u);
    EXPECT_EQ(g.counterValue("missing"), 0u);
    EXPECT_TRUE(g.hasCounter("a"));
    EXPECT_FALSE(g.hasCounter("b"));
    g.setScalar("x", 2.5);
    EXPECT_DOUBLE_EQ(g.scalarValue("x"), 2.5);
    g.resetAll();
    EXPECT_EQ(g.counterValue("a"), 0u);
    EXPECT_DOUBLE_EQ(g.scalarValue("x"), 0.0);
}

TEST(StatGroup, DumpContainsNames)
{
    StatGroup g("device");
    ++g.counter("events");
    g.distribution("lat").sample(3.0);
    std::ostringstream os;
    g.dump(os);
    const auto s = os.str();
    EXPECT_NE(s.find("device.events"), std::string::npos);
    EXPECT_NE(s.find("device.lat"), std::string::npos);
}

TEST(StatGroup, PrefixAssignmentKeepsGenerationAndSlots)
{
    StatGroup g("grp");
    CounterHandle a(g, "a");
    DistributionHandle lat(g, "lat");
    CounterHandle later(g, "later");
    ++a;
    lat.sample(2.0);
    const StatGroup snap = g; // slots a, lat: a prefix of g's below
    ++later;
    ++a;
    const std::uint64_t gen = g.generation();

    // The generation stays, so every handle bumps the slot it resolved
    // before the assignment; the by-name values show that each of those
    // slots still holds the handle's stat.
    g = snap;
    EXPECT_EQ(g.generation(), gen);
    ++a;
    ++later;
    lat.sample(4.0);
    EXPECT_EQ(g.counterValue("a"), 2u);
    EXPECT_EQ(g.counterValue("later"), 1u);
    EXPECT_EQ(g.distributions().at("lat").count(), 2u);
    EXPECT_EQ(&a.get(), &g.counter("a"));
    EXPECT_EQ(&later.get(), &g.counter("later"));
    EXPECT_EQ(&lat.get(), &g.distribution("lat"));

    // Layouts that diverge move the generation; handles look up again.
    StatGroup other("grp");
    ++other.counter("b");
    ++other.counter("a");
    g = other;
    EXPECT_NE(g.generation(), gen);
    ++a;
    EXPECT_EQ(g.counterValue("a"), 2u);
    EXPECT_EQ(g.counterValue("b"), 1u);
    EXPECT_FALSE(g.hasCounter("later"));
}

TEST(StatGroup, StatTouchedAfterASnapshotIsUnlistedAfterTheRestore)
{
    StatGroup g("grp");
    CounterHandle early(g, "early");
    CounterHandle late(g, "late");
    DistributionHandle lat(g, "lat");
    ++early;
    const StatGroup snap = g;
    late += 3;
    lat.sample(1.0);
    g.setScalar("x", 1.0);
    ASSERT_TRUE(g.hasCounter("late"));

    g = snap;
    EXPECT_FALSE(g.hasCounter("late"));
    EXPECT_EQ(g.counterValue("late"), 0u);
    EXPECT_EQ(g.counters().size(), 1u);
    EXPECT_TRUE(g.distributions().empty());
    EXPECT_TRUE(g.scalars().empty());
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.early  1\n");

    // The next bump lists it again, counting from zero.
    ++late;
    lat.sample(5.0);
    EXPECT_EQ(g.counterValue("late"), 1u);
    ASSERT_EQ(g.distributions().size(), 1u);
    EXPECT_EQ(g.distributions().at("lat").count(), 1u);
    EXPECT_DOUBLE_EQ(g.distributions().at("lat").min(), 5.0);
}

TEST(StatGroup, ListsByNameWhateverTheTouchOrder)
{
    StatGroup g("grp");
    ++g.counter("zeta");
    ++g.counter("alpha");
    g.distribution("z").sample(1.0);
    ++g.counter("mid");
    g.setScalar("s2", 2.0);
    g.distribution("a").sample(1.0);
    g.setScalar("s1", 1.0);
    std::vector<std::string> names;
    for (const auto &[name, c] : g.counters())
        names.push_back(name);
    for (const auto &[name, v] : g.scalars())
        names.push_back(name);
    for (const auto &[name, d] : g.distributions())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta", "s1",
                                               "s2", "a", "z"}));
    std::ostringstream os;
    g.dump(os);
    const std::string d = os.str();
    EXPECT_LT(d.find("grp.alpha"), d.find("grp.mid"));
    EXPECT_LT(d.find("grp.mid"), d.find("grp.zeta"));
    EXPECT_LT(d.find("grp.zeta"), d.find("grp.s1"));
    EXPECT_LT(d.find("grp.s1"), d.find("grp.s2"));
    EXPECT_LT(d.find("grp.s2"), d.find("grp.a "));
    EXPECT_LT(d.find("grp.a "), d.find("grp.z "));
}

TEST(StatGroup, ResetAllKeepsCountersAndDistributionsListed)
{
    StatGroup g("grp");
    g.counter("c") += 3;
    g.distribution("d").sample(2.0);
    g.setScalar("s", 1.5);
    g.resetAll();
    EXPECT_TRUE(g.hasCounter("c"));
    EXPECT_EQ(g.counterValue("c"), 0u);
    ASSERT_EQ(g.distributions().size(), 1u);
    EXPECT_EQ(g.distributions().at("d").count(), 0u);
    EXPECT_TRUE(g.scalars().empty());
    EXPECT_DOUBLE_EQ(g.scalarValue("s"), 0.0);
}

TEST(Table, AlignsAndSeparates)
{
    Table t("demo");
    t.header({"col", "value"});
    t.row().cell("a").cell(std::uint64_t{1});
    t.separator();
    t.row().cell("bee").cell(2.5, 1);
    std::ostringstream os;
    t.print(os);
    const auto s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("| a   |"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Csv, QuotesSpecials)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.row({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Units, Conversions)
{
    EXPECT_EQ(nsToUs(1500), 1u);
    EXPECT_DOUBLE_EQ(nsToSec(kNsPerSec), 1.0);
    EXPECT_EQ(secToNs(2.0), 2 * kNsPerSec);
    EXPECT_EQ(secToNs(-1.0), 0u);
    EXPECT_EQ(msToNs(3), 3 * kNsPerMs);
    EXPECT_EQ(usToNs(3), 3 * kNsPerUs);
}

TEST(Effort, CountsLinesAndDecisions)
{
    const auto m = harness::analyzeSource(
        "int main() {\n"
        "  if (a && b) { }\n"
        "\n"
        "  for (;;) { while (x) { } }\n"
        "}\n",
        2, 3);
    EXPECT_EQ(m.loc, 4u);                 // blank line excluded
    EXPECT_EQ(m.decisionPoints, 4u);      // if, &&, for, while
    EXPECT_EQ(m.elements, 2u);
    EXPECT_EQ(m.sharedState, 3u);
}

TEST(Effort, WordBoundariesRespected)
{
    // "iffy" and "forward" must not count as if/for.
    const auto m = harness::analyzeSource("iffy forward whiled\n", 1, 0);
    EXPECT_EQ(m.decisionPoints, 0u);
}
