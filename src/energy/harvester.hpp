/**
 * @file
 * Ambient-energy harvester models. A harvester reports its output power
 * as a function of virtual time; the PowerSupply integrates that power
 * into the storage capacitor.
 *
 * The paper's Table 2 / Fig. 8 experiments power the board wirelessly
 * from a Powercast TX91501-3W 915 MHz transmitter; RfHarvester models
 * that link with free-space path loss. A square-wave harvester covers
 * the remaining experiment shapes, and the stochastic harvester
 * produces the irregular outages that drive data-expiration behaviour.
 * Recorded environment traces drive a whole supply (TraceSupply).
 */

#ifndef TICSIM_ENERGY_HARVESTER_HPP
#define TICSIM_ENERGY_HARVESTER_HPP

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "support/statebuf.hpp"
#include "support/units.hpp"

namespace ticsim::energy {

/** Interface: instantaneous harvest power at a given virtual time. */
class Harvester
{
  public:
    virtual ~Harvester() = default;

    /** Output power in watts at virtual time @p now. */
    virtual Watts power(TimeNs now) = 0;

    /** Snapshot/restore hooks for the failure-space explorer. The
     *  defaults cover the stateless models (constant, square-wave,
     *  RF, trace): their output is a pure function of `now`. */
    virtual void saveState(StateWriter &) const {}
    virtual void loadState(StateReader &) {}
};

/** Fixed output power (bench power supply / strong steady source). */
class ConstantHarvester : public Harvester
{
  public:
    explicit ConstantHarvester(Watts p) : power_(p) {}
    Watts power(TimeNs) override { return power_; }

  private:
    Watts power_;
};

/** Square-wave source: @p onPower for a fraction of each period. */
class SquareWaveHarvester : public Harvester
{
  public:
    SquareWaveHarvester(Watts onPower, TimeNs period, double dutyOn);
    Watts power(TimeNs now) override;

  private:
    Watts onPower_;
    TimeNs period_;
    TimeNs onLength_;
};

/**
 * Powercast-like RF harvesting link: transmitter EIRP attenuated by
 * free-space path loss at 915 MHz, converted with a fixed RF-DC
 * efficiency. Matches the order of magnitude of the P2110 receiver
 * (~1 mW at 1-2 m from a 3 W EIRP transmitter).
 */
class RfHarvester : public Harvester
{
  public:
    /**
     * @param txEirpW Transmitter EIRP in watts (paper: 3 W).
     * @param distanceM Receiver distance in meters.
     * @param rxGain Receive antenna gain (linear).
     * @param efficiency RF-to-DC conversion efficiency in (0, 1].
     */
    RfHarvester(Watts txEirpW, double distanceM, double rxGain = 1.26,
                double efficiency = 0.55);

    /**
     * Enable slow log-normal fading: received power varies by
     * N(0, sigmaDb) dB per coherence block (multipath in a real
     * deployment; without it every charge/discharge cycle is
     * identical, which no physical link is).
     */
    void setFading(double sigmaDb, TimeNs blockNs, std::uint64_t seed);

    Watts power(TimeNs now) override;

    /** Re-position the receiver (updates output power). */
    void setDistance(double distanceM);

    double distance() const { return distanceM_; }

  private:
    void recompute();

    Watts txEirpW_;
    double distanceM_;
    double rxGain_;
    double efficiency_;
    Watts harvested_;
    double fadingSigmaDb_ = 0.0;
    TimeNs fadingBlockNs_ = 50 * kNsPerMs;
    std::uint64_t fadingSeed_ = 0;
    /** The last block's fading gain, a pure function of the block
     *  index (distance does not enter it): every later call in that
     *  block skips the std::pow. setFading() drops it. */
    std::optional<std::uint64_t> fadeBlock_;
    double fadeGain_ = 1.0;
};

/**
 * Gilbert-style two-state stochastic source: alternates exponentially
 * distributed good (harvesting) and dead (no harvest) intervals, with
 * per-interval power jitter. Produces the variable off-time
 * distribution that triggers data-expiration violations.
 */
class StochasticHarvester : public Harvester
{
  public:
    StochasticHarvester(Watts meanPower, TimeNs meanOnNs, TimeNs meanOffNs,
                        Rng rng);

    Watts power(TimeNs now) override;

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    void advanceTo(TimeNs now);

    Watts meanPower_;
    TimeNs meanOnNs_;
    TimeNs meanOffNs_;
    Rng rng_;
    TimeNs stateEnd_ = 0;
    bool on_ = false;
    Watts current_ = 0.0;
};

} // namespace ticsim::energy

#endif // TICSIM_ENERGY_HARVESTER_HPP
