/**
 * @file
 * Tests for the constant-cost hot path: stat handles that stay on
 * their keys across group assignment and report only touched stats,
 * the supplies' death-horizon contract (a drain below the horizon
 * completes and changes nothing), the sparse histogram against the
 * dense one it replaced, and the flat epoch dedup set against a
 * std::unordered_map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "board/board.hpp"
#include "distribution_reference.hpp"
#include "energy/supply.hpp"
#include "fault/injector.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "perf/counters.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "tics/epoch_set.hpp"
#include "timekeeper/timekeeper.hpp"

using namespace ticsim;

// ---- stat handles ----------------------------------------------------------

TEST(StatHandle, ResolvesOnFirstBumpOnly)
{
    StatGroup g("grp");
    CounterHandle touched(g, "touched");
    CounterHandle idle(g, "idle");
    DistributionHandle lat(g, "lat");
    DistributionHandle idleLat(g, "idleLat");
    EXPECT_TRUE(g.counters().empty());
    EXPECT_TRUE(g.distributions().empty());

    ++touched;
    touched += 4;
    lat.sample(3.0);
    EXPECT_EQ(g.counterValue("touched"), 5u);
    EXPECT_FALSE(g.hasCounter("idle"));
    EXPECT_EQ(g.counters().size(), 1u);
    ASSERT_EQ(g.distributions().size(), 1u);
    EXPECT_EQ(g.distributions().at("lat").count(), 1u);

    // A bump of zero still creates the stat, as counter(name) += 0 did.
    CounterHandle zero(g, "zero");
    zero += 0;
    EXPECT_TRUE(g.hasCounter("zero"));
}

TEST(StatHandle, StaysOnItsKeyAcrossAssignment)
{
    // Map copy-assignment reuses nodes across keys: a reference cached
    // before the assignment can end up on another key afterwards.
    StatGroup g("tics");
    CounterHandle appends(g, "undoAppends");
    CounterHandle hits(g, "undoDedupHits");
    CounterHandle later(g, "zzLater");
    ++hits;
    const StatGroup snap = g; // holds undoDedupHits only
    ++appends;
    ++later;
    ++later;
    EXPECT_EQ(g.counters().size(), 3u);

    g = snap; // drops undoAppends and zzLater
    EXPECT_FALSE(g.hasCounter("undoAppends"));
    ++appends;
    ++hits;
    EXPECT_EQ(g.counterValue("undoAppends"), 1u);
    EXPECT_EQ(g.counterValue("undoDedupHits"), 2u);
    EXPECT_FALSE(g.hasCounter("zzLater"));

    // Move-assignment too, and a group that gains keys in between.
    StatGroup bigger = g;
    ++bigger.counter("aaFirst");
    ++bigger.counter("zzLater");
    g = std::move(bigger);
    ++later;
    ++appends;
    EXPECT_EQ(g.counterValue("zzLater"), 2u);
    EXPECT_EQ(g.counterValue("undoAppends"), 2u);
    EXPECT_EQ(g.counterValue("aaFirst"), 1u);
}

TEST(StatHandle, UntouchedCountersStayOutOfTheReport)
{
    board::Board board(board::BoardConfig{},
                       std::make_unique<energy::ContinuousSupply>(),
                       std::make_unique<timekeeper::PerfectTimekeeper>());
    harness::ScenarioParams params;
    params.tics = harness::matrixTics();
    harness::ScenarioInstance env =
        harness::scenario("BC", "TICS").build(board, params);
    const board::RunResult res =
        board.run(*env.runtime, env.entry, 10 * kNsPerSec);
    ASSERT_TRUE(res.completed);
    const StatGroup &st = env.runtime->stats();
    EXPECT_TRUE(st.hasCounter("checkpoints"));
    EXPECT_FALSE(st.hasCounter("interrupts"));
    EXPECT_FALSE(st.hasCounter("atomicityBreaks"));

    const std::string path = ::testing::TempDir() + "stat_handle_report.json";
    {
        harness::ReportOptions ro;
        ro.jsonPath = path;
        harness::BenchSession session("stat_handle_test", ro);
        session.record("bc", *env.runtime, board, res);
        session.finish();
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"checkpoints\""), std::string::npos);
    EXPECT_EQ(json.find("\"interrupts\""), std::string::npos);
    EXPECT_EQ(json.find("\"atomicityBreaks\""), std::string::npos);
    std::remove(path.c_str());
}

// ---- supply death horizons -------------------------------------------------

namespace {

StateBlob
blobOf(const energy::Supply &s)
{
    StateWriter w;
    s.saveState(w);
    return w.take();
}

std::string
statsOf(energy::Supply &s)
{
    std::ostringstream os;
    s.stats().dump(os);
    return os.str();
}

/**
 * Drive @p s with random monotonic drains (and, through @p poke, the
 * supply-specific calls between them). Every drain that ends below
 * the published horizon must complete and leave the supply's state
 * blob and stats (and @p inner's stats, when given) untouched.
 * @return how many drains were checked that way.
 */
int
checkHorizonContract(energy::Supply &s, std::uint64_t seed, int steps,
                     const std::function<void(Rng &, TimeNs &)> &poke,
                     energy::Supply *inner = nullptr)
{
    Rng rng(seed);
    TimeNs now = 0;
    int checked = 0;
    for (int i = 0; i < steps; ++i) {
        poke(rng, now);
        const TimeNs h = s.safeUntil();
        // Mostly short charges, some that span many windows.
        const TimeNs dur = rng.chance(0.1)
                               ? static_cast<TimeNs>(rng.below(30 * kNsPerMs))
                               : static_cast<TimeNs>(rng.below(400 * kNsPerUs));
        if (h != 0 && now + dur < h) {
            const StateBlob before = blobOf(s);
            const std::string stats = statsOf(s);
            const std::string innerStats = inner ? statsOf(*inner) : "";
            const energy::DrainResult r = s.drain(now, dur, 1e-3);
            EXPECT_FALSE(r.died) << "step " << i << " at " << now;
            EXPECT_EQ(r.ranFor, dur) << "step " << i;
            EXPECT_EQ(blobOf(s), before) << "step " << i;
            EXPECT_EQ(statsOf(s), stats) << "step " << i;
            if (inner)
                EXPECT_EQ(statsOf(*inner), innerStats) << "step " << i;
            ++checked;
            now += dur;
            continue;
        }
        const energy::DrainResult r = s.drain(now, dur, 1e-3);
        now += r.ranFor;
        if (r.died)
            now += s.offTimeAfterDeath(now);
    }
    return checked;
}

void
noPoke(Rng &, TimeNs &)
{
}

} // namespace

TEST(SupplyHorizon, ContinuousIsForeverAfterOneDrain)
{
    energy::ContinuousSupply s;
    EXPECT_EQ(s.safeUntil(), 0u);
    EXPECT_GT(checkHorizonContract(s, 1, 2000, noPoke), 1900);
    s.reset();
    EXPECT_EQ(s.safeUntil(), 0u);
}

TEST(SupplyHorizon, PatternHorizonIsTheOnWindowEnd)
{
    for (const double duty : {0.3, 0.6, 0.97}) {
        SCOPED_TRACE(duty);
        energy::PatternSupply s(7 * kNsPerMs, duty);
        EXPECT_GT(checkHorizonContract(s, 2, 4000, noPoke), 1000);
        s.reset();
        EXPECT_EQ(s.safeUntil(), 0u);
    }
    // 100% duty degenerates to continuous power.
    energy::PatternSupply full(7 * kNsPerMs, 1.0);
    EXPECT_GT(checkHorizonContract(full, 3, 2000, noPoke), 1900);
}

TEST(SupplyHorizon, ScheduledHorizonIsTheNextCut)
{
    energy::ResetPattern p;
    p.offTime = 2 * kNsPerMs;
    for (TimeNs t = 3 * kNsPerMs; t < 600 * kNsPerMs; t += 7 * kNsPerMs) {
        p.cutsAt.push_back(t);
        if (t % 3 == 0)
            p.cutsAt.push_back(t); // a zero-length on-window
    }
    energy::ScheduledSupply s(p);
    EXPECT_GT(checkHorizonContract(s, 4, 4000, noPoke), 1000);
    EXPECT_GT(s.cutsFired(), 10u);
    s.reset();
    EXPECT_EQ(s.safeUntil(), 0u);
}

TEST(SupplyHorizon, FaultedHorizonCoversCutsArmsAndRestores)
{
    auto innerOwned = std::make_unique<energy::PatternSupply>(
        11 * kNsPerMs, 0.7);
    energy::Supply *inner = innerOwned.get();
    fault::FaultedSupply s(std::move(innerOwned), 3 * kNsPerMs);
    std::vector<TimeNs> cuts;
    for (TimeNs t = 5 * kNsPerMs; t < 900 * kNsPerMs; t += 13 * kNsPerMs)
        cuts.push_back(t);
    s.scheduleAbsolute(cuts);
    EXPECT_EQ(s.safeUntil(), 0u);

    StateBlob saved;
    TimeNs savedAt = 0;
    int arms = 0;
    int loads = 0;
    const auto poke = [&](Rng &rng, TimeNs &now) {
        if (rng.chance(0.05)) {
            // A boundary arms a cut; 0 delay fires past-due when the
            // arm lands in an off window.
            if (s.armCutAfter(rng.chance(0.3) ? 0 : rng.below(kNsPerMs))) {
                ++arms;
                EXPECT_EQ(s.safeUntil(), 0u);
            }
        } else if (rng.chance(0.03)) {
            StateWriter w;
            s.saveState(w);
            saved = w.take();
            savedAt = now;
        } else if (!saved.empty() && rng.chance(0.02)) {
            // Rewind, as Board::restore does.
            StateReader r(saved);
            s.loadState(r);
            EXPECT_TRUE(r.exhausted());
            EXPECT_EQ(s.safeUntil(), 0u);
            now = savedAt;
            ++loads;
        }
    };
    EXPECT_GT(checkHorizonContract(s, 5, 6000, poke, inner), 1000);
    EXPECT_GT(arms, 10);
    EXPECT_GT(loads, 5);
    EXPECT_GT(s.injectedDeaths(), 10u);
    s.reset();
    EXPECT_EQ(s.safeUntil(), 0u);
}

TEST(SupplyHorizon, ZeroCycleChargeAtWindowEndStillDies)
{
    energy::PatternSupply s(10 * kNsPerMs, 0.5);
    EXPECT_FALSE(s.drain(0, kNsPerMs, 1e-3).died);
    EXPECT_EQ(s.safeUntil(), 5 * kNsPerMs);
    // Ending exactly at the window end completes (half-open)...
    EXPECT_FALSE(s.drain(kNsPerMs, 4 * kNsPerMs, 1e-3).died);
    // ...and a zero-length drain there is not below the horizon.
    const energy::DrainResult r = s.drain(5 * kNsPerMs, 0, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 0u);

    // The same through the Board: 1 MHz, so 5000 cycles fill the window.
    board::Board b(board::BoardConfig{},
                   std::make_unique<energy::PatternSupply>(10 * kNsPerMs,
                                                           0.5),
                   std::make_unique<timekeeper::PerfectTimekeeper>());
    EXPECT_TRUE(b.chargeSys(4000));
    EXPECT_TRUE(b.chargeSys(1000));
    EXPECT_EQ(b.now(), 5 * kNsPerMs);
    EXPECT_FALSE(b.chargeSys(0));
    EXPECT_TRUE(b.sysDied());
}

TEST(SupplyHorizon, BoardDrainsOnlyAtTheHorizon)
{
    board::Board b(board::BoardConfig{},
                   std::make_unique<energy::PatternSupply>(10 * kNsPerMs,
                                                           0.5),
                   std::make_unique<timekeeper::PerfectTimekeeper>());
    const std::uint64_t d0 = perf::hot().supplyDrains;
    EXPECT_TRUE(b.chargeSys(10)); // no horizon yet: drains
    EXPECT_EQ(perf::hot().supplyDrains, d0 + 1);
    for (int i = 0; i < 400; ++i)
        EXPECT_TRUE(b.chargeSys(10)); // ends at 4.01 ms < 5 ms
    EXPECT_EQ(perf::hot().supplyDrains, d0 + 1);
    EXPECT_EQ(b.mcu().cycles(), 4010u);
    EXPECT_EQ(b.now(), 4010 * kNsPerUs);
    EXPECT_FALSE(b.chargeSys(1000)); // crosses 5 ms: drains and dies
    EXPECT_EQ(perf::hot().supplyDrains, d0 + 2);
    EXPECT_EQ(b.now(), 5 * kNsPerMs);
    EXPECT_EQ(b.mcu().cycles(), 5000u);
}

// ---- sparse histogram vs the dense reference -------------------------------

namespace {

void
expectSameDistribution(const Distribution &d,
                       const testref::DenseDistribution &ref,
                       const std::string &what)
{
    EXPECT_EQ(d.encode(), ref.encode()) << what;
    for (int i = 0; i <= 100; ++i) {
        const double f = i / 100.0;
        EXPECT_EQ(d.percentile(f), ref.percentile(f)) << what << " p" << i;
    }
}

/** Samples from one of several shapes: tight, spread over many
 *  octaves, with zeros and negatives, or constant. */
double
drawSample(Rng &rng, int shape)
{
    switch (shape) {
      case 0:
        return 1000.0 + rng.uniform(-5.0, 5.0);
      case 1:
        return std::ldexp(rng.uniform(0.5, 1.0),
                          static_cast<int>(rng.range(-25, 55)));
      case 2:
        return rng.chance(0.2) ? -rng.uniform(0.0, 10.0)
                               : rng.chance(0.1) ? 0.0
                                                 : rng.uniform(0.0, 1e6);
      default:
        return 264.0;
    }
}

} // namespace

TEST(SparseHistogram, MatchesDenseOnSeededSamples)
{
    Rng rng(20);
    for (int trial = 0; trial < 40; ++trial) {
        const int shape = trial % 4;
        Distribution a, b;
        testref::DenseDistribution ra, rb;
        const auto na = static_cast<int>(rng.below(300));
        const auto nb = static_cast<int>(rng.below(300));
        for (int i = 0; i < na; ++i) {
            const double v = drawSample(rng, shape);
            a.sample(v);
            ra.sample(v);
        }
        for (int i = 0; i < nb; ++i) {
            const double v = drawSample(rng, (shape + 1) % 4);
            b.sample(v);
            rb.sample(v);
        }
        const std::string what = "trial " + std::to_string(trial);
        expectSameDistribution(a, ra, what + " a");
        expectSameDistribution(b, rb, what + " b");

        Distribution ab = a, ba = b;
        testref::DenseDistribution rab = ra, rba = rb;
        ab.merge(b);
        rab.merge(rb);
        ba.merge(a);
        rba.merge(ra);
        expectSameDistribution(ab, rab, what + " a+b");
        expectSameDistribution(ba, rba, what + " b+a");

        Distribution back;
        testref::DenseDistribution rback;
        EXPECT_TRUE(back.decode(ab.encode()));
        EXPECT_TRUE(rback.decode(rab.encode()));
        expectSameDistribution(back, rback, what + " decoded");

        a.reset();
        ra.reset();
        expectSameDistribution(a, ra, what + " reset");
    }
}

TEST(SparseHistogram, DecodeMatchesDenseOnEdgeTokens)
{
    const std::vector<std::string> texts = {
        "4 10 2.5 1 1 4 40:1 41:2 40:3",      // duplicate: last wins
        "4 10 2.5 1 1 4 40:1 41:3 40:0",      // zero count erases
        "4 10 2.5 1 1 4 41:0 7:0",            // zero tokens only
        "3 9 3 0 3 3 90:1 12:1 50:1",         // out of order
        "3 9 3 0 3 3 560:3",                  // last bucket
        "3 9 3 0 3 3 561:3",                  // out of range
        "3 9 3 0 3 3 -1:3",                   // negative index
        "3 9 3 0 3 3 5:99999999999999999999", // count overflows
        "3 9 3 0 3 3 5",                      // no colon
        "3 9 3 0 3",                          // truncated moments
        "0 0 0 0 0 0",
    };
    for (const std::string &t : texts) {
        Distribution d;
        testref::DenseDistribution ref;
        EXPECT_EQ(d.decode(t), ref.decode(t)) << t;
        expectSameDistribution(d, ref, t);
    }
    // The dense reference wraps a negative count to 2^64 - 3 (stoull);
    // the decoder rejects it and resets.
    Distribution d;
    EXPECT_FALSE(d.decode("3 9 3 0 3 3 5:-3"));
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.encode(), Distribution().encode());
}

// ---- epoch set vs std::unordered_map ---------------------------------------

namespace {

bool
refCovers(const std::unordered_map<const void *, std::uint32_t> &m,
          const void *p, std::uint32_t bytes)
{
    const auto it = m.find(p);
    return it != m.end() && it->second >= bytes;
}

} // namespace

TEST(EpochSet, MatchesUnorderedMapThroughGrowthAndRestores)
{
    Rng rng(21);
    tics::EpochSet set(4); // 16 slots: grows well past them
    std::unordered_map<const void *, std::uint32_t> ref;
    StateBlob saved;
    std::unordered_map<const void *, std::uint32_t> savedRef;
    const auto key = [&](std::uint64_t k) {
        // Aligned addresses like the runtimes' NV targets.
        return reinterpret_cast<const void *>(0x7f0000001000ull + 8 * k);
    };
    std::size_t maxSize = 0;
    for (int i = 0; i < 60000; ++i) {
        // The first third only grows the set; then epochs end often.
        const bool growing = i < 20000;
        const double op = rng.uniform();
        const void *p = key(rng.below(growing ? 1500 : 150));
        const auto bytes = static_cast<std::uint32_t>(rng.below(65));
        if (op < 0.5) {
            ASSERT_EQ(set.covers(p, bytes), refCovers(ref, p, bytes)) << i;
        } else if (op < 0.9 || (growing && op < 0.99)) {
            set.set(p, bytes);
            ref[p] = bytes;
        } else if (op < 0.93) {
            set.clear();
            ref.clear();
        } else if (op < 0.96 || growing) {
            StateWriter w;
            set.saveState(w);
            saved = w.take();
            savedRef = ref;
        } else if (!saved.empty()) {
            StateReader r(saved);
            set.loadState(r);
            ASSERT_TRUE(r.exhausted());
            ref = savedRef;
        }
        ASSERT_EQ(set.size(), ref.size()) << i;
        maxSize = std::max(maxSize, ref.size());
    }
    EXPECT_GT(maxSize, 1000u);
    for (const auto &[p, bytes] : ref) {
        EXPECT_TRUE(set.covers(p, bytes));
        EXPECT_FALSE(set.covers(p, bytes + 1));
    }
}

TEST(EpochSet, ZeroByteWriteToUnloggedAddressIsNotCovered)
{
    tics::EpochSet set(128);
    int x = 0, y = 0;
    EXPECT_FALSE(set.covers(&x, 0));
    set.set(&x, 4);
    EXPECT_TRUE(set.covers(&x, 0));
    EXPECT_TRUE(set.covers(&x, 4));
    EXPECT_FALSE(set.covers(&x, 5));
    EXPECT_FALSE(set.covers(&y, 0));
    set.clear();
    EXPECT_FALSE(set.covers(&x, 0));
    EXPECT_EQ(set.size(), 0u);
}
