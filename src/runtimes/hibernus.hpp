/**
 * @file
 * Hibernus-like reactive checkpointing baseline (Balsamo et al., the
 * paper's reference [5]; QuickRecall [23] is the same family).
 *
 * Instead of checkpointing continuously, the system reacts to a
 * falling supply: when the storage voltage crosses Vsave, it snapshots
 * the *entire* volatile state exactly once, then sleeps until the
 * brown-out; on reboot it restores and continues. Minimal checkpoint
 * count (one per power cycle) and zero overhead while energy is
 * plentiful — but the snapshot is full-state (unbounded, the problem
 * TICS's segmentation solves), it needs a reliably observable supply
 * voltage, and the Vsave-to-brown-out energy reserve must cover the
 * worst-case snapshot or the save itself dies.
 *
 * Built on the MementOS-like full-state snapshot machinery; only the
 * trigger discipline differs.
 */

#ifndef TICSIM_RUNTIMES_HIBERNUS_HPP
#define TICSIM_RUNTIMES_HIBERNUS_HPP

#include "runtimes/mementos.hpp"

namespace ticsim::runtimes {

class HibernusRuntime : public MementosRuntime
{
  public:
    /**
     * @param vSave Falling-voltage threshold that triggers the single
     *        hibernation snapshot. Must leave enough energy above the
     *        brown-out voltage to complete a full-state checkpoint.
     */
    explicit HibernusRuntime(Volts vSave = 2.1)
        : MementosRuntime(MementosConfig{
              MementosConfig::Trigger::Voltage, 0, /*unused*/ 0.0}),
          vSave_(vSave)
    {
        stats_ = StatGroup("hibernus");
    }

    const char *name() const override { return "Hibernus-like"; }

    bool
    onPowerOn() override
    {
        savedThisLife_ = false; // the Vsave comparator re-arms
        return MementosRuntime::onPowerOn();
    }

    void
    triggerPoint() override
    {
        auto &b = *board_;
        b.charge(4); // voltage comparator poll
        const Volts v = b.supply().voltageNow();
        if (v < 0.0)
            return; // no observable supply voltage: inert
        if (savedThisLife_ || v > vSave_)
            return;

        // Falling edge through Vsave: hibernate.
        savedThisLife_ = true;
        ++hibernations_;
        checkpointNow();
        // Sleep out the remaining charge (the device does no useful
        // work below Vsave). A restore re-enters inside
        // checkpointNow() and skips this loop: the capacitor is back
        // above the threshold.
        while (b.supply().voltageNow() <= vSave_)
            b.charge(400);
    }

    void
    saveState(StateWriter &w) const override
    {
        MementosRuntime::saveState(w);
        w.put(savedThisLife_);
    }
    void
    loadState(StateReader &r) override
    {
        MementosRuntime::loadState(r);
        savedThisLife_ = r.get<bool>();
    }

  private:
    Volts vSave_;
    /** Volatile comparator latch (re-armed by every boot). */
    bool savedThisLife_ = false;
    CounterHandle hibernations_{stats_, "hibernations"};
};

} // namespace ticsim::runtimes

#endif // TICSIM_RUNTIMES_HIBERNUS_HPP
