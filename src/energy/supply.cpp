#include "supply.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace ticsim::energy {

DrainResult
ContinuousSupply::drain(TimeNs, TimeNs dur, Watts)
{
    horizon_ = kForever;
    return {false, dur};
}

TimeNs
ContinuousSupply::offTimeAfterDeath(TimeNs)
{
    // The supply itself never browns out, but application code may
    // abandon the context (a manual reset / injected failure in
    // tests); power is back instantly.
    return 0;
}

PatternSupply::PatternSupply(TimeNs period, double onFraction)
    : period_(period)
{
    if (period == 0)
        fatal("pattern supply: period must be nonzero");
    if (onFraction <= 0.0 || onFraction > 1.0)
        fatal("pattern supply: on-fraction %g outside (0, 1]", onFraction);
    onTime_ = static_cast<TimeNs>(static_cast<double>(period) * onFraction);
    if (onTime_ == 0)
        fatal("pattern supply: on-time rounds to zero");
}

DrainResult
PatternSupply::drain(TimeNs now, TimeNs dur, Watts)
{
    if (!intermittent()) {
        horizon_ = kForever;
        return {false, dur};
    }
    const TimeNs phase = now % period_;
    // Every later charge ending before this on-window closes completes
    // (in an off window the end has passed, so every charge comes here).
    horizon_ = now - phase + onTime_;
    if (phase >= onTime_) {
        // Called while inside an off window (can happen when the board
        // probes right at a boundary): die immediately.
        ++deaths_;
        return {true, 0};
    }
    const TimeNs remainingOn = onTime_ - phase;
    // Half-open windows: a charge occupying [now, now + dur) with
    // dur == remainingOn ends exactly on the window boundary and
    // completes; the death lands on the next drain, which starts at
    // the boundary. (Killing it here would lose the boundary cycle
    // twice — once as unfinished work, once as off time.)
    if (dur <= remainingOn)
        return {false, dur};
    ++deaths_;
    return {true, remainingOn};
}

TimeNs
PatternSupply::offTimeAfterDeath(TimeNs deathTime)
{
    if (!intermittent())
        panic("pattern supply with 100%% duty cannot die");
    const TimeNs phase = deathTime % period_;
    // Next on window begins at the next period boundary.
    return period_ - phase;
}

ScheduledSupply::ScheduledSupply(ResetPattern pattern)
    : pattern_(std::move(pattern))
{
    for (std::size_t i = 1; i < pattern_.cutsAt.size(); ++i) {
        if (pattern_.cutsAt[i] < pattern_.cutsAt[i - 1])
            fatal("scheduled supply: cut times must be ascending");
    }
}

DrainResult
ScheduledSupply::drain(TimeNs now, TimeNs dur, Watts)
{
    DrainResult r{false, dur};
    if (next_ < pattern_.cutsAt.size()) {
        const TimeNs cut = pattern_.cutsAt[next_];
        if (cut <= now) {
            // The cut instant has arrived (or passed, when a previous
            // reboot's boot/restore charges straddled it): re-entrant
            // death, before any of this charge runs.
            r = {true, 0};
        } else if (now + dur > cut) {
            r = {true, cut - now}; // ending at the cut still completes
        }
        if (r.died) {
            ++next_;
            ++deaths_;
        }
    }
    // Every charge ending before the next unconsumed cut completes.
    horizon_ = next_ < pattern_.cutsAt.size() ? pattern_.cutsAt[next_]
                                              : kForever;
    return r;
}

TimeNs
ScheduledSupply::offTimeAfterDeath(TimeNs)
{
    return pattern_.offTime;
}

HarvestingSupply::HarvestingSupply(Config cfg,
                                   std::unique_ptr<Harvester> harvester)
    : cfg_(cfg), harvester_(std::move(harvester)),
      cap_(cfg.capacitance, cfg.vMax, cfg.vOn, cfg.leakage)
{
    if (!harvester_)
        fatal("harvesting supply: null harvester");
    if (cfg.vOff >= cfg.vOn)
        fatal("harvesting supply: vOff %g must be below vOn %g", cfg.vOff,
              cfg.vOn);
    if (cfg.integrationStep == 0)
        fatal("harvesting supply: zero integration step");
}

DrainResult
HarvestingSupply::drain(TimeNs now, TimeNs dur, Watts load)
{
    TimeNs done = 0;
    while (done < dur) {
        const TimeNs step = std::min<TimeNs>(cfg_.integrationStep,
                                             dur - done);
        const double dt = nsToSec(step);
        cap_.charge(harvester_->power(now + done) * dt);
        cap_.discharge((load + cfg_.leakage) * dt);
        done += step;
        if (cap_.voltage() < cfg_.vOff) {
            ++deaths_;
            return {true, done};
        }
    }
    return {false, dur};
}

TimeNs
HarvestingSupply::offTimeAfterDeath(TimeNs deathTime)
{
    TimeNs off = 0;
    while (cap_.voltage() < cfg_.vOn) {
        if (off >= cfg_.maxOffTime) {
            warn("harvesting supply: power-on threshold unreachable; "
                 "device stays dark (off for %llu s)",
                 static_cast<unsigned long long>(off / kNsPerSec));
            return cfg_.maxOffTime;
        }
        const TimeNs step = cfg_.integrationStep;
        const double dt = nsToSec(step);
        cap_.charge(harvester_->power(deathTime + off) * dt);
        cap_.discharge(cfg_.leakage * dt);
        off += step;
    }
    offTimeUs_.sample(static_cast<double>(nsToUs(off)));
    return off;
}

void
HarvestingSupply::reset()
{
    cap_.setVoltage(cfg_.vOn);
    stats_.resetAll();
}

} // namespace ticsim::energy
