/**
 * @file
 * Power-supply models. The Board charges every simulated cycle to the
 * supply; the supply decides when brown-outs happen and how long the
 * device stays off before the turn-on threshold is reached again.
 *
 * Three models cover the paper's experimental setups:
 *  - ContinuousSupply: bench power (Fig. 9 timing runs, plain C).
 *  - PatternSupply: pre-programmed reset patterns (Table 1).
 *  - HarvestingSupply: capacitor + harvester with Von/Voff hysteresis
 *    (Table 2, Fig. 8 RF-powered runs).
 */

#ifndef TICSIM_ENERGY_SUPPLY_HPP
#define TICSIM_ENERGY_SUPPLY_HPP

#include <limits>
#include <memory>
#include <vector>

#include "energy/capacitor.hpp"
#include "energy/harvester.hpp"
#include "support/statebuf.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

namespace ticsim::energy {

/** Outcome of draining the supply over a requested interval. */
struct DrainResult {
    bool died = false;   ///< brown-out occurred before the interval ended
    TimeNs ranFor = 0;   ///< time actually powered (== request if !died)
};

/**
 * Abstract supply. All times are absolute virtual times; drain() is
 * always called with monotonically non-decreasing @p now.
 */
class Supply
{
  public:
    Supply() : stats_("supply") {}
    virtual ~Supply() = default;

    /**
     * Consume @p load watts over [now, now + dur).
     * @return whether and when the supply browned out.
     */
    virtual DrainResult drain(TimeNs now, TimeNs dur, Watts load) = 0;

    /**
     * After a brown-out at @p deathTime, the time the device stays off
     * until the turn-on condition is met again.
     */
    virtual TimeNs offTimeAfterDeath(TimeNs deathTime) = 0;

    /** Restore the initial state (for experiment repetition). Every
     *  implementation also drops the death horizon. */
    virtual void reset() = 0;

    /**
     * Death horizon: any drain(t, d) with t + d < safeUntil() would
     * return {false, d} and change no supply state, stats included,
     * so the Board may account the charge without calling drain().
     * 0 means "call drain". Supplies whose deaths depend only on time
     * (continuous, pattern, scheduled, and fault overlays on them)
     * refresh it inside drain(); the horizon is valid only while time
     * moves forward, so reset(), loadState() and dropHorizon() clear
     * it. Harvesting and trace supplies leave it at 0.
     */
    TimeNs safeUntil() const { return horizon_; }

    /** Clear the death horizon: time is about to move backwards. */
    void dropHorizon() { horizon_ = 0; }

    /** False for bench supplies that can never brown out. */
    virtual bool intermittent() const { return true; }

    /**
     * Current storage voltage for hardware-assisted (voltage-
     * triggered) checkpointing, or a negative value when the supply
     * has no observable voltage (pattern/bench supplies).
     */
    virtual Volts voltageNow() const { return -1.0; }

    StatGroup &stats() { return stats_; }

    /**
     * Snapshot/restore hooks for the failure-space explorer
     * (board::Snapshot). Implementations serialize exactly the
     * mutable dynamics that influence future drain() results; the
     * statistics group is captured separately by the Board (StatGroup
     * is copyable). The defaults cover stateless supplies
     * (continuous, pattern). A blob is only replayed into the same
     * object it was captured from.
     */
    virtual void saveState(StateWriter &) const {}
    virtual void loadState(StateReader &) {}

  protected:
    /** A horizon no drain can reach. */
    static constexpr TimeNs kForever = std::numeric_limits<TimeNs>::max();

    StatGroup stats_;
    CounterHandle deaths_{stats_, "deaths"};
    TimeNs horizon_ = 0; ///< see safeUntil()
};

/** Never browns out. */
class ContinuousSupply : public Supply
{
  public:
    DrainResult drain(TimeNs, TimeNs dur, Watts) override;
    TimeNs offTimeAfterDeath(TimeNs) override;
    void reset() override { horizon_ = 0; }
    bool intermittent() const override { return false; }
};

/**
 * Pre-programmed periodic reset pattern: power is on for the first
 * @p onTime of every period and off for the remainder. An on-fraction
 * of 1.0 degenerates to continuous power. This reproduces the paper's
 * Table 1 methodology ("MCU was brought to hardware reset following a
 * pre-programmed pattern").
 */
class PatternSupply : public Supply
{
  public:
    PatternSupply(TimeNs period, double onFraction);

    DrainResult drain(TimeNs now, TimeNs dur, Watts load) override;
    TimeNs offTimeAfterDeath(TimeNs deathTime) override;
    void reset() override { horizon_ = 0; }
    bool intermittent() const override { return onTime_ < period_; }

    TimeNs period() const { return period_; }
    TimeNs onTime() const { return onTime_; }

  private:
    TimeNs period_;
    TimeNs onTime_;
};

/**
 * An explicit list of power-cut instants: the exact-schedule
 * counterpart of PatternSupply's periodic resets. Fault-injection
 * campaigns express every minimized failure schedule as one of these,
 * and ScheduledSupply replays it deterministically.
 */
struct ResetPattern {
    /** Absolute virtual times at which power is cut, ascending. Each
     *  cut fires once; after the last one the supply is continuous. */
    std::vector<TimeNs> cutsAt;
    /** Off time after every cut (power returns immediately at 0). */
    TimeNs offTime = kNsPerMs;
};

/**
 * Replays a ResetPattern: power fails exactly at each listed instant
 * and returns offTime later. Interval semantics are half-open like
 * PatternSupply's — a charge ending exactly at a cut completes, and
 * the death lands on the next drain (ranFor 0). Cuts that are already
 * in the past when probed (e.g. a second cut arriving while boot /
 * restore work of the previous reboot is still charging — re-entrant
 * death) also kill immediately.
 */
class ScheduledSupply : public Supply
{
  public:
    explicit ScheduledSupply(ResetPattern pattern);

    DrainResult drain(TimeNs now, TimeNs dur, Watts load) override;
    TimeNs offTimeAfterDeath(TimeNs deathTime) override;
    void
    reset() override
    {
        next_ = 0;
        horizon_ = 0;
    }
    bool intermittent() const override { return !pattern_.cutsAt.empty(); }

    /** Cuts consumed so far (== deaths this supply forced). */
    std::size_t cutsFired() const { return next_; }
    const ResetPattern &pattern() const { return pattern_; }

    void saveState(StateWriter &w) const override { w.put(next_); }
    void loadState(StateReader &r) override
    {
        next_ = r.get<std::size_t>();
        horizon_ = 0;
    }

  private:
    ResetPattern pattern_;
    std::size_t next_ = 0; ///< index of the first unconsumed cut
};

/**
 * Capacitor-buffered harvesting supply with hysteresis: the device
 * turns on at Von and browns out at Voff. Integration uses a fixed
 * step, which bounds the error in death-time placement.
 */
class HarvestingSupply : public Supply
{
  public:
    struct Config {
        Farads capacitance = 10e-6;   ///< 10 uF, as on the P2110-EVB
        Volts vMax = 5.25;
        Volts vOn = 3.0;              ///< turn-on threshold
        Volts vOff = 1.8;             ///< MSP430 brown-out
        Watts leakage = 1e-6;
        TimeNs integrationStep = 50 * kNsPerUs;
        /** Give up waiting for power-on after this long off. */
        TimeNs maxOffTime = 3600 * kNsPerSec;
    };

    HarvestingSupply(Config cfg, std::unique_ptr<Harvester> harvester);

    DrainResult drain(TimeNs now, TimeNs dur, Watts load) override;
    TimeNs offTimeAfterDeath(TimeNs deathTime) override;
    void reset() override;

    Volts voltage() const { return cap_.voltage(); }
    Volts voltageNow() const override { return cap_.voltage(); }
    const Config &config() const { return cfg_; }

    void saveState(StateWriter &w) const override
    {
        w.put(cap_.voltage());
        harvester_->saveState(w);
    }
    void loadState(StateReader &r) override
    {
        cap_.setVoltage(r.get<Volts>());
        harvester_->loadState(r);
    }

  private:
    Config cfg_;
    std::unique_ptr<Harvester> harvester_;
    Capacitor cap_;
    DistributionHandle offTimeUs_{stats_, "offTimeUs"};
};

} // namespace ticsim::energy

#endif // TICSIM_ENERGY_SUPPLY_HPP
