#include "capacitor.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace ticsim::energy {

Capacitor::Capacitor(Farads capacitance, Volts vMax, Volts vInitial,
                     Watts leakageW)
    : capacitance_(capacitance), vMax_(vMax), voltage_(vInitial),
      leakageW_(leakageW)
{
    if (capacitance <= 0.0)
        fatal("capacitor: capacitance must be > 0 (got %g F)", capacitance);
    if (vInitial < 0.0 || vInitial > vMax)
        fatal("capacitor: initial voltage %g outside [0, %g]", vInitial,
              vMax);
}

Joules
Capacitor::energyAbove(Volts vFloor) const
{
    if (voltage_ <= vFloor)
        return 0.0;
    return 0.5 * capacitance_ * (voltage_ * voltage_ - vFloor * vFloor);
}

void
Capacitor::setVoltage(Volts v)
{
    voltage_ = std::clamp(v, 0.0, vMax_);
}

} // namespace ticsim::energy
