#include "harvester.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace ticsim::energy {

SquareWaveHarvester::SquareWaveHarvester(Watts onPower, TimeNs period,
                                         double dutyOn)
    : onPower_(onPower), period_(period)
{
    if (period == 0)
        fatal("square-wave harvester: period must be nonzero");
    if (dutyOn < 0.0 || dutyOn > 1.0)
        fatal("square-wave harvester: duty %g outside [0, 1]", dutyOn);
    onLength_ = static_cast<TimeNs>(static_cast<double>(period) * dutyOn);
}

Watts
SquareWaveHarvester::power(TimeNs now)
{
    return (now % period_) < onLength_ ? onPower_ : 0.0;
}

RfHarvester::RfHarvester(Watts txEirpW, double distanceM, double rxGain,
                         double efficiency)
    : txEirpW_(txEirpW), distanceM_(distanceM), rxGain_(rxGain),
      efficiency_(efficiency)
{
    if (distanceM <= 0.0)
        fatal("rf harvester: distance must be > 0 (got %g m)", distanceM);
    if (efficiency <= 0.0 || efficiency > 1.0)
        fatal("rf harvester: efficiency %g outside (0, 1]", efficiency);
    recompute();
}

void
RfHarvester::setDistance(double distanceM)
{
    if (distanceM <= 0.0)
        fatal("rf harvester: distance must be > 0 (got %g m)", distanceM);
    distanceM_ = distanceM;
    recompute();
}

void
RfHarvester::setFading(double sigmaDb, TimeNs blockNs, std::uint64_t seed)
{
    if (blockNs == 0)
        fatal("rf harvester: zero fading block");
    fadingSigmaDb_ = sigmaDb;
    fadingBlockNs_ = blockNs;
    fadingSeed_ = seed;
    fadeBlock_.reset();
}

Watts
RfHarvester::power(TimeNs now)
{
    if (fadingSigmaDb_ <= 0.0)
        return harvested_;
    const std::uint64_t block = now / fadingBlockNs_;
    if (fadeBlock_ != block) {
        // Stateless per-block fade: hash the block index into an
        // approximately normal dB offset (sum of three uniforms).
        std::uint64_t x = block ^ fadingSeed_;
        double acc = 0.0;
        for (int i = 0; i < 3; ++i) {
            x += 0x9E3779B97F4A7C15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            z ^= z >> 31;
            acc += static_cast<double>(z >> 11) * 0x1.0p-53;
        }
        const double normal = (acc - 1.5) * 2.0; // ~N(0,1)
        const double db = normal * fadingSigmaDb_;
        fadeGain_ = std::pow(10.0, db / 10.0);
        fadeBlock_ = block;
    }
    return harvested_ * fadeGain_;
}

void
RfHarvester::recompute()
{
    // Friis free-space: Prx = Ptx * Grx * (lambda / (4 pi d))^2.
    constexpr double kLambda915MHz = 0.3276; // meters
    const double factor =
        kLambda915MHz / (4.0 * M_PI * distanceM_);
    harvested_ = txEirpW_ * rxGain_ * factor * factor * efficiency_;
}

StochasticHarvester::StochasticHarvester(Watts meanPower, TimeNs meanOnNs,
                                         TimeNs meanOffNs, Rng rng)
    : meanPower_(meanPower), meanOnNs_(meanOnNs), meanOffNs_(meanOffNs),
      rng_(rng)
{
    if (meanOnNs == 0 || meanOffNs == 0)
        fatal("stochastic harvester: mean interval lengths must be nonzero");
}

void
StochasticHarvester::advanceTo(TimeNs now)
{
    while (now >= stateEnd_) {
        on_ = !on_;
        const double mean = on_ ? static_cast<double>(meanOnNs_)
                                : static_cast<double>(meanOffNs_);
        const double len = std::max(1.0, rng_.exponential(mean));
        stateEnd_ += static_cast<TimeNs>(len);
        current_ =
            on_ ? std::max(0.0, meanPower_ * rng_.uniform(0.6, 1.4)) : 0.0;
    }
}

Watts
StochasticHarvester::power(TimeNs now)
{
    advanceTo(now);
    return current_;
}

void
StochasticHarvester::saveState(StateWriter &w) const
{
    w.put(rng_);
    w.put(stateEnd_);
    w.put(on_);
    w.put(current_);
}

void
StochasticHarvester::loadState(StateReader &r)
{
    rng_ = r.get<Rng>();
    stateEnd_ = r.get<TimeNs>();
    on_ = r.get<bool>();
    current_ = r.get<Watts>();
}

} // namespace ticsim::energy
