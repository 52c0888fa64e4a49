/**
 * @file
 * Tests for the trace-driven supply: CSV parse validation, linear
 * interpolation (exact at sample boundaries), wrap vs clamp semantics
 * past the end of a trace shorter than the run, dark gaps spanning
 * multiple boot attempts, byte-identical replay after snapshot/restore
 * (the explorer's journal contract), the per-seed start offsets, and the
 * segment walk and its empty-capacitor ramp memo against the per-step
 * loop they replaced.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "energy/capacitor.hpp"
#include "energy/trace_supply.hpp"
#include "support/statebuf.hpp"
#include "support/units.hpp"

namespace ticsim {
namespace {

using energy::EnvTrace;
using energy::TraceSupply;

std::shared_ptr<const EnvTrace>
mustParse(const std::string &text)
{
    std::string err;
    auto t = EnvTrace::parse(text, "<test>", err);
    EXPECT_NE(t, nullptr) << err;
    return t;
}

// ---- parsing -----------------------------------------------------------

TEST(EnvTrace, ParsesCsvWithCommentsAndBlanks)
{
    const auto t = mustParse("# a comment\n"
                             "0, 0.010\n"
                             "\n"
                             "1, 0.020  # trailing comment\n"
                             "2.5, 0\n");
    ASSERT_EQ(t->samples().size(), 3u);
    EXPECT_EQ(t->samples()[0].time, 0);
    EXPECT_DOUBLE_EQ(t->samples()[1].power, 0.020);
    EXPECT_EQ(t->samples()[2].time,
              static_cast<TimeNs>(2.5 * kNsPerSec));
    EXPECT_EQ(t->duration(), static_cast<TimeNs>(2.5 * kNsPerSec));
}

TEST(EnvTrace, RejectsMalformedInput)
{
    std::string err;
    EXPECT_EQ(EnvTrace::parse("", "<t>", err), nullptr);
    EXPECT_EQ(EnvTrace::parse("0,0.01\n", "<t>", err), nullptr)
        << "one sample is not a timeline";
    EXPECT_EQ(EnvTrace::parse("1,0.01\n2,0.02\n", "<t>", err), nullptr)
        << "first sample must sit at t=0";
    EXPECT_EQ(EnvTrace::parse("0,0.01\n1,0.02\n1,0.03\n", "<t>", err),
              nullptr)
        << "sample times must be strictly ascending";
    EXPECT_EQ(EnvTrace::parse("0,0.01\n1,-0.02\n", "<t>", err),
              nullptr)
        << "negative harvest power is meaningless";
    EXPECT_EQ(EnvTrace::parse("0,0.01\n1,nope\n", "<t>", err),
              nullptr);
    EXPECT_EQ(EnvTrace::parse("0 0.01\n1 0.02\n", "<t>", err),
              nullptr)
        << "the separator is a comma";
    // Numbers are plain decimals, as on every command line.
    EXPECT_EQ(EnvTrace::parse("0,0\n0x10,1\n", "<t>", err), nullptr)
        << "a hex time is not a decimal";
    EXPECT_EQ(EnvTrace::parse("0,0\n1,0x1p-2\n", "<t>", err), nullptr)
        << "a hex-float power is not a decimal";
    EXPECT_EQ(EnvTrace::parse("0,0\n1,-0\n", "<t>", err), nullptr)
        << "a power of -0 carries a sign";
    EXPECT_FALSE(err.empty());
    // 2e10 s is 2e19 ns: past what TimeNs holds, rejected before the
    // conversion (which would be undefined) rather than by whatever
    // value it happened to produce.
    EXPECT_EQ(EnvTrace::parse("0,0.01\n2e10,0.02\n", "<t>", err),
              nullptr);
    EXPECT_NE(err.find("2^62 ns"), std::string::npos) << err;
}

// ---- interpolation -----------------------------------------------------

TEST(EnvTrace, InterpolationIsExactAtSampleBoundaries)
{
    const auto t = mustParse("0,0.010\n1,0.030\n3,0.000\n");
    // Exactly on a sample: that sample's power, no interpolation
    // residue.
    EXPECT_DOUBLE_EQ(t->power(0, false), 0.010);
    EXPECT_DOUBLE_EQ(t->power(1 * kNsPerSec, false), 0.030);
    EXPECT_DOUBLE_EQ(t->power(3 * kNsPerSec, false), 0.000);
    // Midpoints interpolate linearly.
    EXPECT_DOUBLE_EQ(t->power(kNsPerSec / 2, false), 0.020);
    EXPECT_DOUBLE_EQ(t->power(2 * kNsPerSec, false), 0.015);
}

TEST(EnvTrace, WrapAndClampPastTheEnd)
{
    // 2 s trace, probed far past its end — the "trace shorter than
    // the run" case.
    const auto t = mustParse("0,0.010\n1,0.030\n2,0.010\n");
    // Wrap: t modulo duration, so 2.5 s == 0.5 s and 4 s == 0 s.
    EXPECT_DOUBLE_EQ(t->power(2 * kNsPerSec + kNsPerSec / 2, true),
                     0.020);
    EXPECT_DOUBLE_EQ(t->power(4 * kNsPerSec, true), 0.010);
    EXPECT_DOUBLE_EQ(t->power(1001 * kNsPerSec, true), 0.030);
    // Clamp: the last sample's power holds forever.
    EXPECT_DOUBLE_EQ(t->power(2 * kNsPerSec + 1, false), 0.010);
    EXPECT_DOUBLE_EQ(t->power(1000 * kNsPerSec, false), 0.010);
}

// ---- supply dynamics ---------------------------------------------------

TraceSupply::Config
testConfig()
{
    TraceSupply::Config cfg;
    cfg.capacitance = 10e-6;
    cfg.leakage = 0.0;
    return cfg;
}

TEST(TraceSupply, ChargesThroughDarkGapSpanningMultipleBoots)
{
    // 10 s of darkness then strong harvest: a device dying at the
    // start of the gap must report one long off time that lands past
    // the whole gap — fast-forwarded by trace segment, not ground out
    // in 50 us integration steps.
    const auto t = mustParse("0,0\n10,0\n10.1,0.050\n20,0.050\n");
    TraceSupply s(testConfig(), t);
    const auto dead = s.drain(0, kNsPerSec, 0.050);
    ASSERT_TRUE(dead.died); // no harvest, heavy load
    const TimeNs off = s.offTimeAfterDeath(dead.ranFor);
    // Power returns at 10 s; with 50 mW the 10 uF capacitor reaches
    // Von milliseconds later. The off time must cover the whole gap.
    EXPECT_GT(off, 9 * kNsPerSec);
    EXPECT_LT(off, 11 * kNsPerSec);
    EXPECT_GE(s.voltageNow(), s.config().vOn);
}

TEST(TraceSupply, DiesInAGapAndSurvivesUnderHarvest)
{
    const auto t = mustParse("0,0.050\n5,0.050\n5.1,0\n10,0\n");
    TraceSupply s(testConfig(), t);
    // Under harvest a modest load holds: the capacitor stays above
    // Voff for the whole powered stretch.
    const auto ok = s.drain(0, kNsPerSec, 0.010);
    EXPECT_FALSE(ok.died);
    EXPECT_EQ(ok.ranFor, kNsPerSec);
    // In the dark gap a heavy load kills quickly...
    const auto dead =
        s.drain(6 * kNsPerSec, 2 * kNsPerSec, 0.050);
    ASSERT_TRUE(dead.died);
    EXPECT_LT(dead.ranFor, 2 * kNsPerSec);
    // ...and the reboot waits out the rest of the gap, wrapping into
    // the next period's harvest plateau to recharge.
    const TimeNs deathAt = 6 * kNsPerSec + dead.ranFor;
    const TimeNs off = s.offTimeAfterDeath(deathAt);
    EXPECT_GT(deathAt + off, 10 * kNsPerSec);
    EXPECT_LT(off, 5 * kNsPerSec);
}

TEST(TraceSupply, GivesUpAfterMaxOffTimeInEndlessDark)
{
    const auto t = mustParse("0,0\n100,0\n");
    TraceSupply::Config cfg = testConfig();
    cfg.maxOffTime = 10 * kNsPerSec;
    cfg.wrap = true; // endless darkness via wrap
    TraceSupply s(cfg, t);
    const auto dead = s.drain(0, kNsPerSec, 0.050);
    ASSERT_TRUE(dead.died);
    // The give-up cap is reported instead of spinning forever; the
    // board's starvation detector turns this into a DNF.
    EXPECT_EQ(s.offTimeAfterDeath(dead.ranFor), cfg.maxOffTime);
}

TEST(TraceSupply, SnapshotRestoreReplaysByteIdentically)
{
    // The explorer's journal contract: capture state mid-run, keep
    // running, restore, and the replay must reproduce the original
    // continuation exactly (power is a pure function of time; the
    // capacitor voltage is the whole mutable state).
    const auto t = mustParse("0,0.030\n1,0.000\n2,0.030\n3,0.010\n");
    TraceSupply::Config cfg = testConfig();
    cfg.leakage = 1e-6;
    TraceSupply s(cfg, t);
    const TimeNs boot = s.offTimeAfterDeath(0);
    (void)s.drain(boot, 100 * kNsPerMs, 0.020);

    StateWriter w;
    s.saveState(w);
    const StateBlob blob = w.take();

    const TimeNs at = boot + 100 * kNsPerMs;
    const auto first = s.drain(at, 2 * kNsPerSec, 0.025);
    const Volts vFirst = s.voltageNow();

    StateReader r(blob);
    s.loadState(r);
    EXPECT_TRUE(r.exhausted());
    const auto replay = s.drain(at, 2 * kNsPerSec, 0.025);

    EXPECT_EQ(first.died, replay.died);
    EXPECT_EQ(first.ranFor, replay.ranFor);
    EXPECT_EQ(vFirst, s.voltageNow()); // bit-exact, not approximate
}

TEST(TraceSupply, StartOffsetShiftsTheTimeline)
{
    const auto t = mustParse("0,0\n5,0\n5.5,0.050\n10,0.050\n");
    TraceSupply::Config cfg = testConfig();
    cfg.startOffset = static_cast<TimeNs>(5.5 * kNsPerSec);
    TraceSupply s(cfg, t);
    // Virtual time 0 now lands in the harvest plateau.
    EXPECT_DOUBLE_EQ(s.harvestAt(0), 0.050);
    // And wraps back into darkness after 4.5 s + duration wrap.
    EXPECT_DOUBLE_EQ(s.harvestAt(6 * kNsPerSec), 0.0);
}

TEST(TraceSupply, OffsetForSeedIsStableAndSpread)
{
    const auto t = mustParse("0,0.010\n86400,0.010\n");
    // Pinned values: changing the mixer silently re-shuffles every
    // env cell's device-day, which must show up here first.
    const TimeNs a = TraceSupply::offsetForSeed(11, *t);
    const TimeNs b = TraceSupply::offsetForSeed(12, *t);
    EXPECT_EQ(a, TraceSupply::offsetForSeed(11, *t));
    EXPECT_NE(a, b);
    EXPECT_LT(a, t->duration());
    EXPECT_LT(b, t->duration());
}

TEST(TraceSupply, CommittedTracesLoadAndValidate)
{
    // The three committed environments must stay loadable; forEnv
    // caches per process, so repeated lookups share one object.
    for (const char *name :
         {"solar_diurnal", "rf_mobile", "thermal_gradient"}) {
        std::string err;
        const auto t = EnvTrace::forEnv(name, err);
        ASSERT_NE(t, nullptr) << name << ": " << err;
        EXPECT_GE(t->samples().size(), 2u);
        EXPECT_EQ(t.get(), EnvTrace::forEnv(name, err).get());
    }
    std::string err;
    EXPECT_EQ(EnvTrace::forEnv("no_such_env", err), nullptr);
    EXPECT_FALSE(err.empty());
}

// ---- segment walk and ramp memo vs the per-step loop --------------------

struct OffTime {
    TimeNs off = 0;
    Volts v = 0.0;
};

/**
 * Reference off-time loop on the public API: a segmentAt() and a
 * power() lookup every 50 us step, with the same dark-segment skip.
 * TraceSupply's segment walk and ramp memo must match it bit for bit.
 */
OffTime
referenceOffTime(const TraceSupply::Config &cfg, const EnvTrace &trace,
                 Volts v0, TimeNs deathTime)
{
    energy::Capacitor cap(cfg.capacitance, cfg.vMax, cfg.vOn,
                          cfg.leakage);
    cap.setVoltage(v0);
    TimeNs off = 0;
    while (cap.voltage() < cfg.vOn) {
        if (off >= cfg.maxOffTime)
            return {cfg.maxOffTime, cap.voltage()};
        const TimeNs t = cfg.startOffset + deathTime + off;
        const EnvTrace::SegmentView seg =
            trace.segmentAt(t, cfg.wrap, cfg.maxOffTime - off);
        if (seg.maxPower <= cfg.leakage &&
            seg.end - t > cfg.integrationStep) {
            const TimeNs skip = seg.end - t;
            const double dt = nsToSec(skip);
            cap.charge(0.5 * (trace.power(t, cfg.wrap) + seg.powerAtEnd) *
                       dt);
            cap.discharge(cfg.leakage * dt);
            off += skip;
            continue;
        }
        const double dt = nsToSec(cfg.integrationStep);
        cap.charge(trace.power(t, cfg.wrap) * dt);
        cap.discharge(cfg.leakage * dt);
        off += cfg.integrationStep;
    }
    return {off, cap.voltage()};
}

/** offTimeAfterDeath() of a fresh supply on @p trace whose capacitor
 *  sits at exactly @p v0 (loaded the way a snapshot restore does). */
OffTime
walkOffTime(const TraceSupply::Config &cfg,
            const std::shared_ptr<const EnvTrace> &trace, Volts v0,
            TimeNs deathTime)
{
    TraceSupply s(cfg, trace);
    StateWriter w;
    w.put(v0);
    const StateBlob blob = w.take();
    StateReader r(blob);
    s.loadState(r);
    const TimeNs off = s.offTimeAfterDeath(deathTime);
    return {off, s.voltageNow()};
}

/** A private copy of a committed trace: its ramp memo starts empty. */
std::shared_ptr<const EnvTrace>
freshTrace(const std::string &name)
{
    std::string err;
    auto t = EnvTrace::load(std::string(TICSIM_SOURCE_DIR) +
                                "/docs/traces/" + name + ".csv",
                            err);
    EXPECT_NE(t, nullptr) << err;
    return t;
}

/** One off-time query: trace position at virtual time 0, death time,
 *  and the capacitor voltage at death (just below Voff, or empty). */
struct Outage {
    TimeNs startOffset = 0;
    TimeNs death = 0;
    Volts v0 = 0.0;
};

constexpr Volts kJustDead = 1.79;

TEST(TraceWalk, MatchesPerStepReferenceOnCommittedAndSyntheticTraces)
{
    const auto s = [](double sec) {
        return static_cast<TimeNs>(sec * 1000.0) * kNsPerMs;
    };
    struct Case {
        std::shared_ptr<const EnvTrace> trace;
        std::vector<Outage> outages;
    };
    // Deaths in dark segments (the skip drains a leaky capacitor to
    // exactly 0 V before the next ramp), on a lit segment's first
    // sample with an empty capacitor (the memoised ramp), mid-ramp and
    // on plateaus, some through a nonzero startOffset. A position past
    // the duration is the same sample again under wrap and the clamped
    // tail otherwise.
    const std::vector<Case> cases{
        {freshTrace("solar_diurnal"),
         {{0, s(3600), kJustDead},
          {0, s(21600), 0.0},
          {0, s(22500), kJustDead},
          {0, s(43200), 0.0},
          {s(30000), s(61000 - 30000), kJustDead},
          {s(30000), s(86400 + 21600 - 30000), 0.0}}},
        {freshTrace("rf_mobile"),
         {{0, s(2), kJustDead},
          {0, s(5), 0.0},
          {0, s(5.5), kJustDead},
          {0, s(5.5), 0.0}, // empty, but not on the first sample
          {0, s(11.5), 0.0},
          {0, s(20), kJustDead},
          {0, s(33), 0.0},
          {s(17), s(45 - 17), kJustDead},
          {s(17), s(60 + 5 - 17), 0.0}}},
        {freshTrace("thermal_gradient"),
         {{0, 0, 0.0},
          {0, s(150), kJustDead},
          {0, s(300), 0.0},
          {0, s(595), kJustDead},
          {0, s(600), 0.0},
          {s(250), s(600 + 10 - 250), 0.0}}},
        // Dark, a 10 ms ramp too weak to reach Von (it ends at its
        // segment end), then a faint slope that takes thousands of
        // steps to climb, whose end power the clamped tail holds.
        {mustParse("0,0\n10,0\n10.01,0.00005\n60,0.0001\n"),
         {{0, s(1), kJustDead},
          {0, s(10), 0.0},
          {0, s(10.01), 0.0},
          {0, s(15), kJustDead},
          {0, s(60), 0.0},
          {0, s(65), kJustDead}}},
    };
    int compared = 0;
    for (const Case &c : cases) {
        for (const Farads cap : {4.7e-6, 10e-6, 22e-6}) {
            for (const Watts leak : {0.0, 1e-6}) {
                for (const bool wrap : {true, false}) {
                    TraceSupply::Config cfg;
                    cfg.capacitance = cap;
                    cfg.leakage = leak;
                    cfg.wrap = wrap;
                    for (const Outage &o : c.outages) {
                        cfg.startOffset = o.startOffset;
                        SCOPED_TRACE(testing::Message()
                                     << "cap " << cap << " leak " << leak
                                     << " wrap " << wrap << " offset "
                                     << o.startOffset << " death "
                                     << o.death << " v0 " << o.v0);
                        const OffTime ref = referenceOffTime(
                            cfg, *c.trace, o.v0, o.death);
                        const OffTime got =
                            walkOffTime(cfg, c.trace, o.v0, o.death);
                        EXPECT_EQ(got.off, ref.off);
                        EXPECT_EQ(got.v, ref.v);
                        ++compared;
                    }
                }
            }
        }
    }
    EXPECT_EQ(compared, 12 * 27);
}

TEST(TraceWalk, RampMemoHonoursMaxOffTimeAndCapacitorConfig)
{
    // One private trace and its memo across a fixed sequence of
    // supplies: a 40 s dark gap drains every leaky capacitor here to
    // exactly 0 V before the first sample of a 30 s ramp segment.
    const auto t = mustParse("0,0\n40,0\n70,0.002\n80,0.002\n");
    const auto expectMatches = [&](const TraceSupply::Config &cfg,
                                   Volts v0, TimeNs death) {
        const OffTime ref = referenceOffTime(cfg, *t, v0, death);
        const OffTime got = walkOffTime(cfg, t, v0, death);
        EXPECT_EQ(got.off, ref.off);
        EXPECT_EQ(got.v, ref.v);
        return got;
    };
    TraceSupply::Config full;
    TraceSupply::Config cut = full;
    cut.maxOffTime = 40 * kNsPerSec + 300 * kNsPerMs; // inside the ramp

    // Cut short on a cold memo: gives up at the cap.
    EXPECT_EQ(expectMatches(cut, kJustDead, 0).off, cut.maxOffTime);
    // The whole ramp: stepped, then replayed by a second supply.
    const OffTime first = expectMatches(full, kJustDead, 0);
    EXPECT_GT(first.off, cut.maxOffTime);
    EXPECT_EQ(expectMatches(full, kJustDead, 0).off, first.off);
    EXPECT_EQ(expectMatches(full, 0.0, 40 * kNsPerSec).off,
              first.off - 40 * kNsPerSec);
    // Cut short on the warm memo: the recorded ramp outlives the
    // horizon, so it must not be replayed.
    EXPECT_EQ(expectMatches(cut, kJustDead, 0).off, cut.maxOffTime);
    // Other capacitors on the same trace have ramps of their own.
    for (const Farads cap : {4.7e-6, 22e-6}) {
        TraceSupply::Config other = full;
        other.capacitance = cap;
        EXPECT_NE(expectMatches(other, kJustDead, 0).off, first.off);
        expectMatches(other, 0.0, 40 * kNsPerSec);
    }
    // With Von on the rail and no leakage, the ramp ends on the vMax
    // clamp, where sqrt() lands an ulp above vMax for 22 uF at 3.6 V.
    // setVoltage() would clamp that ulp away, so such a ramp is never
    // replayed.
    TraceSupply::Config rail = full;
    rail.capacitance = 22e-6;
    rail.vMax = 3.6;
    rail.vOn = 3.6;
    rail.leakage = 0.0;
    for (int i = 0; i < 2; ++i)
        EXPECT_GT(expectMatches(rail, 0.0, 40 * kNsPerSec).v, rail.vMax);
}

TEST(TraceWalkThreads, SharedMemoMatchesSerialReference)
{
    // forEnv() hands one trace to every JobPool thread; here four
    // threads race to fill and read one cold memo.
    const auto trace = freshTrace("rf_mobile");
    std::vector<TraceSupply::Config> cfgs(2);
    cfgs[0].capacitance = 4.7e-6;
    cfgs[1].capacitance = 10e-6;
    const std::vector<Outage> outages{{0, 45 * kNsPerSec, kJustDead},
                                      {0, 5 * kNsPerSec, 0.0},
                                      {0, 20 * kNsPerSec, kJustDead},
                                      {0, 32 * kNsPerSec, 0.0}};
    const std::size_t n = cfgs.size() * outages.size();
    std::vector<OffTime> ref(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Outage &o = outages[i % outages.size()];
        ref[i] = referenceOffTime(cfgs[i / outages.size()], *trace, o.v0,
                                  o.death);
    }
    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::vector<OffTime>> got(kThreads);
    std::vector<std::jthread> threads;
    for (int k = 0; k < kThreads; ++k) {
        threads.emplace_back([&, k] {
            // Each thread starts at a different query.
            for (std::size_t j = 0; j < kRounds * n; ++j) {
                const std::size_t i = (j + k) % n;
                const Outage &o = outages[i % outages.size()];
                got[k].push_back(walkOffTime(cfgs[i / outages.size()],
                                             trace, o.v0, o.death));
            }
        });
    }
    for (std::jthread &th : threads)
        th.join();
    for (int k = 0; k < kThreads; ++k) {
        ASSERT_EQ(got[k].size(), kRounds * n);
        for (std::size_t j = 0; j < got[k].size(); ++j) {
            const OffTime &want = ref[(j + k) % n];
            EXPECT_EQ(got[k][j].off, want.off) << k << "/" << j;
            EXPECT_EQ(got[k][j].v, want.v) << k << "/" << j;
        }
    }
}

} // namespace
} // namespace ticsim
