/**
 * @file
 * Storage-capacitor model. Batteryless platforms (WISP, Flicker, the
 * Powercast P2110-EVB used in the paper) buffer harvested energy in a
 * small capacitor; the MCU runs while the capacitor voltage stays above
 * the brown-out threshold.
 */

#ifndef TICSIM_ENERGY_CAPACITOR_HPP
#define TICSIM_ENERGY_CAPACITOR_HPP

#include <algorithm>
#include <cmath>

#include "support/units.hpp"

namespace ticsim::energy {

/**
 * Ideal capacitor with optional leakage. Energy E = 1/2 C V^2; charge
 * and discharge are expressed in joules and clamped to [0, Vmax].
 */
class Capacitor
{
  public:
    /**
     * @param capacitance Farads (paper's receiver board: 10 uF).
     * @param vMax Maximum (clamp) voltage.
     * @param vInitial Starting voltage.
     * @param leakageW Constant leakage drain in watts.
     */
    Capacitor(Farads capacitance, Volts vMax, Volts vInitial = 0.0,
              Watts leakageW = 0.0);

    Volts voltage() const { return voltage_; }
    Joules energy() const { return 0.5 * capacitance_ * voltage_ * voltage_; }
    Farads capacitance() const { return capacitance_; }
    Watts leakage() const { return leakageW_; }

    /** Energy stored above the given voltage floor (0 if below it). */
    Joules energyAbove(Volts vFloor) const;

    /** Add harvested energy (clamped at vMax). */
    void charge(Joules j)
    {
        if (j <= 0.0)
            return;
        const Joules eMax = 0.5 * capacitance_ * vMax_ * vMax_;
        const Joules e = std::min(energy() + j, eMax);
        voltage_ = std::sqrt(2.0 * e / capacitance_);
    }

    /**
     * Remove energy.
     * @return the joules actually removed (the capacitor can run dry).
     */
    Joules discharge(Joules j)
    {
        if (j <= 0.0)
            return 0.0;
        const Joules have = energy();
        const Joules took = std::min(j, have);
        const Joules e = have - took;
        voltage_ = std::sqrt(2.0 * e / capacitance_);
        return took;
    }

    /** Force the voltage (used when building specific test scenarios). */
    void setVoltage(Volts v);

  private:
    Farads capacitance_;
    Volts vMax_;
    Volts voltage_;
    Watts leakageW_;
};

} // namespace ticsim::energy

#endif // TICSIM_ENERGY_CAPACITOR_HPP
