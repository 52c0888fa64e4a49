/**
 * @file
 * Unit tests for the energy substrate: capacitor arithmetic, every
 * harvester model, and the three supply types' brown-out/recharge
 * semantics.
 */

#include <gtest/gtest.h>

#include "energy/capacitor.hpp"
#include "energy/harvester.hpp"
#include "energy/supply.hpp"
#include "support/units.hpp"

using namespace ticsim;
using namespace ticsim::energy;

TEST(Capacitor, EnergyVoltageRoundTrip)
{
    Capacitor c(10e-6, 5.25, 3.0);
    EXPECT_NEAR(c.energy(), 0.5 * 10e-6 * 9.0, 1e-12);
    const Joules e0 = c.energy();
    c.charge(10e-6);
    EXPECT_NEAR(c.energy(), e0 + 10e-6, 1e-12);
    const Joules took = c.discharge(5e-6);
    EXPECT_NEAR(took, 5e-6, 1e-12);
    EXPECT_NEAR(c.energy(), e0 + 5e-6, 1e-12);
}

TEST(Capacitor, ClampsAtVmax)
{
    Capacitor c(10e-6, 3.0, 2.9);
    c.charge(1.0); // absurdly large
    EXPECT_NEAR(c.voltage(), 3.0, 1e-9);
}

TEST(Capacitor, RunsDryGracefully)
{
    Capacitor c(10e-6, 5.0, 1.0);
    const Joules have = c.energy();
    const Joules took = c.discharge(1.0);
    EXPECT_NEAR(took, have, 1e-12);
    EXPECT_NEAR(c.voltage(), 0.0, 1e-9);
    EXPECT_EQ(c.discharge(0.0), 0.0);
}

TEST(Capacitor, EnergyAboveFloor)
{
    Capacitor c(10e-6, 5.25, 3.0);
    EXPECT_NEAR(c.energyAbove(1.8), 0.5 * 10e-6 * (9.0 - 3.24), 1e-12);
    EXPECT_EQ(c.energyAbove(3.5), 0.0);
}

TEST(Harvester, ConstantAndSquareWave)
{
    ConstantHarvester ch(2e-3);
    EXPECT_DOUBLE_EQ(ch.power(0), 2e-3);
    EXPECT_DOUBLE_EQ(ch.power(kNsPerSec), 2e-3);

    SquareWaveHarvester sq(1e-3, 100 * kNsPerMs, 0.25);
    EXPECT_DOUBLE_EQ(sq.power(0), 1e-3);
    EXPECT_DOUBLE_EQ(sq.power(24 * kNsPerMs), 1e-3);
    EXPECT_DOUBLE_EQ(sq.power(25 * kNsPerMs), 0.0);
    EXPECT_DOUBLE_EQ(sq.power(99 * kNsPerMs), 0.0);
    EXPECT_DOUBLE_EQ(sq.power(100 * kNsPerMs), 1e-3);
}

TEST(Harvester, RfFollowsInverseSquare)
{
    RfHarvester nearRx(3.0, 1.0);
    RfHarvester farRx(3.0, 2.0);
    EXPECT_GT(nearRx.power(0), 0.0);
    EXPECT_NEAR(nearRx.power(0) / farRx.power(0), 4.0, 1e-9);
    farRx.setDistance(4.0);
    EXPECT_NEAR(nearRx.power(0) / farRx.power(0), 16.0, 1e-9);
}

TEST(Harvester, RfMagnitudeIsPlausible)
{
    // ~1 m from a 3 W EIRP 915 MHz source: order of a milliwatt.
    RfHarvester rf(3.0, 1.0);
    EXPECT_GT(rf.power(0), 0.2e-3);
    EXPECT_LT(rf.power(0), 5e-3);
}

TEST(Harvester, RfFadingVariesPerBlockDeterministically)
{
    RfHarvester rf(3.0, 1.5);
    const Watts base = rf.power(0);
    rf.setFading(3.0, 10 * kNsPerMs, 77);
    const Watts a = rf.power(1 * kNsPerMs);
    const Watts b = rf.power(15 * kNsPerMs);
    EXPECT_NE(a, b);                       // different blocks differ
    EXPECT_EQ(a, rf.power(2 * kNsPerMs));  // same block identical
    EXPECT_GT(a, base * 0.05);
    EXPECT_LT(a, base * 20.0);
    // Moving or re-seeding mid-block: the block already faded reads
    // as on a freshly built harvester, not as before.
    rf.setDistance(2.5);
    RfHarvester moved(3.0, 2.5);
    moved.setFading(3.0, 10 * kNsPerMs, 77);
    EXPECT_EQ(rf.power(3 * kNsPerMs), moved.power(3 * kNsPerMs));
    rf.setFading(3.0, 10 * kNsPerMs, 78);
    RfHarvester reseeded(3.0, 2.5);
    reseeded.setFading(3.0, 10 * kNsPerMs, 78);
    EXPECT_EQ(rf.power(4 * kNsPerMs), reseeded.power(4 * kNsPerMs));
    EXPECT_NE(rf.power(4 * kNsPerMs), moved.power(4 * kNsPerMs));
}

TEST(Harvester, StochasticAlternates)
{
    StochasticHarvester st(1e-3, 50 * kNsPerMs, 50 * kNsPerMs, Rng(4));
    bool sawOn = false, sawOff = false;
    for (TimeNs t = 0; t < kNsPerSec; t += kNsPerMs) {
        const Watts p = st.power(t);
        sawOn |= p > 0.0;
        sawOff |= p == 0.0;
    }
    EXPECT_TRUE(sawOn);
    EXPECT_TRUE(sawOff);
}

TEST(Supply, ContinuousNeverDies)
{
    ContinuousSupply s;
    const auto r = s.drain(0, 3600 * kNsPerSec, 1.0);
    EXPECT_FALSE(r.died);
    EXPECT_EQ(r.ranFor, 3600 * kNsPerSec);
    EXPECT_FALSE(s.intermittent());
}

TEST(Supply, PatternDiesAtWindowEnd)
{
    PatternSupply s(100 * kNsPerMs, 0.3); // on for the first 30 ms
    auto r = s.drain(0, 10 * kNsPerMs, 1e-3);
    EXPECT_FALSE(r.died);
    r = s.drain(10 * kNsPerMs, 50 * kNsPerMs, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 20 * kNsPerMs); // survived until t = 30 ms
    EXPECT_EQ(s.offTimeAfterDeath(30 * kNsPerMs), 70 * kNsPerMs);
}

TEST(Supply, PatternFullDutyIsContinuous)
{
    PatternSupply s(100 * kNsPerMs, 1.0);
    EXPECT_FALSE(s.intermittent());
    EXPECT_FALSE(s.drain(0, 10 * kNsPerSec, 1.0).died);
}

TEST(Supply, PatternDiesImmediatelyInOffWindow)
{
    PatternSupply s(100 * kNsPerMs, 0.3);
    const auto r = s.drain(50 * kNsPerMs, kNsPerMs, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 0u);
}

TEST(Supply, HarvestingBrownsOutAndRecovers)
{
    HarvestingSupply::Config cfg; // 10 uF, Von 3.0, Voff 1.8
    HarvestingSupply s(cfg,
                       std::make_unique<ConstantHarvester>(0.2e-3));
    // Load 0.75 mW vs harvest 0.2 mW: net drain ~0.55 mW over the
    // 28.8 uJ usable buffer -> dies in roughly 50 ms.
    const auto r = s.drain(0, kNsPerSec, 0.75e-3);
    EXPECT_TRUE(r.died);
    EXPECT_NEAR(static_cast<double>(r.ranFor) / kNsPerMs, 52.0, 8.0);
    EXPECT_LT(s.voltage(), cfg.vOff + 0.05);
    // Recharge at 0.2 mW back to Von: ~144 ms.
    const TimeNs off = s.offTimeAfterDeath(r.ranFor);
    EXPECT_NEAR(static_cast<double>(off) / kNsPerMs, 144.0, 20.0);
    EXPECT_GE(s.voltage(), cfg.vOn - 0.01);
}

TEST(Supply, HarvestingSurvivesWithStrongSource)
{
    HarvestingSupply::Config cfg;
    HarvestingSupply s(cfg, std::make_unique<ConstantHarvester>(5e-3));
    EXPECT_FALSE(s.drain(0, kNsPerSec, 0.75e-3).died);
    EXPECT_GT(s.voltageNow(), 0.0);
}

TEST(Supply, HarvestingCapsHopelessRecharge)
{
    HarvestingSupply::Config cfg;
    cfg.maxOffTime = 100 * kNsPerMs;
    HarvestingSupply s(cfg, std::make_unique<ConstantHarvester>(0.0));
    const auto r = s.drain(0, kNsPerSec, 0.75e-3);
    ASSERT_TRUE(r.died);
    EXPECT_EQ(s.offTimeAfterDeath(r.ranFor), cfg.maxOffTime);
}
