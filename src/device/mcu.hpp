/**
 * @file
 * MCU core model: clock, cycle accounting, and the bridge from charged
 * cycles to elapsed virtual time and consumed energy. The Board owns
 * one Mcu and forwards every charge to the power supply.
 */

#ifndef TICSIM_DEVICE_MCU_HPP
#define TICSIM_DEVICE_MCU_HPP

#include "device/costs.hpp"
#include "support/units.hpp"
#include "telemetry/phase.hpp"

namespace ticsim::device {

/**
 * The simulated microcontroller core. Time on the device only advances
 * when cycles are charged; the Board adds off-time during outages.
 */
class Mcu
{
  public:
    explicit Mcu(CostModel costs = CostModel())
        : costs_(costs), cycleNs_(costs.cycleTimeNs())
    {
    }

    const CostModel &costs() const { return costs_; }

    /** Modeled register-file size (16 x 16-bit regs + SR/PC bookkeeping). */
    static constexpr std::uint32_t regFileBytes = 34;

    /** Total cycles executed since reset(). */
    Cycles cycles() const { return cycles_; }

    /** Account @p c executed cycles, attributing them to the active
     *  telemetry phase. Attribution here (rather than in the Board)
     *  makes sum-over-phases == cycles() hold by construction. */
    void
    addCycles(Cycles c)
    {
        cycles_ += c;
        if (profiler_ != nullptr)
            profiler_->attribute(c);
    }

    /** Attach the phase profiler every charge is attributed through. */
    void setPhaseProfiler(telemetry::PhaseProfiler *p) { profiler_ = p; }

    /** Duration of one cycle at the configured clock (the cost model
     *  is immutable, so it is computed once). */
    TimeNs cycleTimeNs() const { return cycleNs_; }

    /** Duration of @p c cycles at the configured clock. */
    TimeNs cyclesToNs(Cycles c) const { return c * cycleNs_; }

    /** Energy drawn by @p c active cycles. */
    Joules cyclesToJoules(Cycles c) const
    {
        return costs_.cyclesToJoules(c);
    }

    /** Restore the cycle counter to a snapshotted value without phase
     *  attribution (the profiler is restored wholesale alongside). */
    void setCycles(Cycles c) { cycles_ = c; }

    void
    reset()
    {
        cycles_ = 0;
        if (profiler_ != nullptr)
            profiler_->resetCycles();
    }

  private:
    CostModel costs_;
    TimeNs cycleNs_;
    Cycles cycles_ = 0;
    telemetry::PhaseProfiler *profiler_ = nullptr;
};

} // namespace ticsim::device

#endif // TICSIM_DEVICE_MCU_HPP
