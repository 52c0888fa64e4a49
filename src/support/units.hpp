/**
 * @file
 * Strong unit types shared across the simulator.
 *
 * The simulated MCU runs at a configurable clock (default 1 MHz as in
 * the paper's Table 4), so one Cycle == 1 us at the default frequency.
 * Virtual wall-clock time is held in nanoseconds to keep sub-cycle
 * precision when mixing clock domains (MCU clock vs. RTC vs. harvester
 * integration steps).
 */

#ifndef TICSIM_SUPPORT_UNITS_HPP
#define TICSIM_SUPPORT_UNITS_HPP

#include <cstdint>

namespace ticsim {

/** Count of MCU clock cycles. */
using Cycles = std::uint64_t;

/** Virtual time in nanoseconds since simulation start. */
using TimeNs = std::uint64_t;

/** Energy in joules; voltages in volts; capacitance in farads. */
using Joules = double;
using Volts = double;
using Farads = double;
using Watts = double;

/** Simulated (modeled) byte address inside the device address space. */
using Addr = std::uint32_t;

constexpr TimeNs kNsPerUs = 1000ULL;
constexpr TimeNs kNsPerMs = 1000ULL * kNsPerUs;
constexpr TimeNs kNsPerSec = 1000ULL * kNsPerMs;

/** Largest time a fault plan or a command-line flag may name: below
 *  2^62 ns, so the simulator's now + delay and now + off cannot wrap. */
constexpr TimeNs kMaxTimeNs = (TimeNs{1} << 62) - 1;

/** Convert nanoseconds to (truncated) microseconds. */
constexpr std::uint64_t
nsToUs(TimeNs t)
{
    return t / kNsPerUs;
}

/** Convert nanoseconds to fractional seconds. */
constexpr double
nsToSec(TimeNs t)
{
    return static_cast<double>(t) / static_cast<double>(kNsPerSec);
}

/** Convert fractional seconds to nanoseconds (saturating at >= 0). */
constexpr TimeNs
secToNs(double s)
{
    return s <= 0.0 ? 0 : static_cast<TimeNs>(s * 1e9);
}

constexpr TimeNs
usToNs(std::uint64_t us)
{
    return us * kNsPerUs;
}

constexpr TimeNs
msToNs(std::uint64_t ms)
{
    return ms * kNsPerMs;
}

} // namespace ticsim

#endif // TICSIM_SUPPORT_UNITS_HPP
