/**
 * @file
 * Trace-driven harvesting supply: replays a long-horizon ambient-power
 * timeline (diurnal solar, mobile RF, thermal gradient...) from a CSV
 * file through the capacitor + Von/Voff hysteresis model, so sweeps
 * can ask how device-days under a *real-shaped* environment distribute
 * across runtimes instead of synthesizing i.i.d. outages.
 *
 * Determinism contract: the trace is immutable and harvest power is a
 * pure function of absolute virtual time (linear interpolation between
 * samples, wrap-around or clamp past the end), so the supply's entire
 * mutable state is the capacitor voltage. saveState()/loadState()
 * serialize exactly that, which is what makes snapshot/restore replay
 * (the explorer's journal contract) byte-identical: any mid-trace boot
 * finds its sample segment again by binary search.
 *
 * The off-time path walks the trace one segment at a time: one binary
 * search per segment, then 50 us integration steps that interpolate
 * inside it with EnvTrace::power()'s exact expression, so every step
 * charges the same joules as a per-step lookup would. Long zero-harvest
 * gaps (a solar night) are fast-forwarded a whole segment at a time —
 * the voltage cannot cross Von while harvest power stays at or below
 * leakage, so skipping a dark segment is exact, not an approximation.
 *
 * A long enough skip drains a leaky capacitor to exactly +0.0 V
 * (sqrt(+0) and x - x are the only zeros it produces), so every device
 * that waited out the same night steps the next lit segment from the
 * same state: bitwise +0.0 at its first sample. That ramp reads
 * nothing but the segment's two samples and the capacitor config, so
 * the EnvTrace memoises it: (segment, capacitance, vMax, vOn, leakage,
 * step) -> (duration, end voltage), recorded only for a ramp that
 * reached Von or the segment end, and replayed only when maxOffTime
 * could not have cut it short. Replaying one is bit-exact with
 * stepping it.
 */

#ifndef TICSIM_ENERGY_TRACE_SUPPLY_HPP
#define TICSIM_ENERGY_TRACE_SUPPLY_HPP

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "energy/capacitor.hpp"
#include "energy/supply.hpp"
#include "support/units.hpp"

namespace ticsim::energy {

/**
 * An immutable harvest-power timeline: strictly ascending sample
 * times (the first at t=0) with linearly interpolated power between
 * them. Loaded once per process and shared across every supply that
 * replays it (a fleet worker runs many cells against one trace).
 */
class EnvTrace
{
  public:
    struct Sample {
        TimeNs time = 0;
        Watts power = 0.0;
    };

    /**
     * Parse "time_s,power_w" CSV text ('#' comments, blank lines
     * skipped), each field a plain decimal (parseDouble()) and not
     * negative, not even -0. @return nullptr with a message in @p err
     * unless the trace has >= 2 samples, starts at t=0, is strictly
     * ascending and every time is below 2^62 ns.
     */
    static std::shared_ptr<const EnvTrace>
    parse(const std::string &text, const std::string &origin,
          std::string &err);

    /** parse() over a file's contents. */
    static std::shared_ptr<const EnvTrace>
    load(const std::string &path, std::string &err);

    /**
     * Cached lookup of the named environment's trace,
     * "<trace-dir>/<name>.csv". The directory is $TICSIM_TRACE_DIR
     * when set, else the compiled-in docs/traces path. Thread-safe;
     * the first load wins and later callers share it.
     */
    static std::shared_ptr<const EnvTrace>
    forEnv(const std::string &name, std::string &err);

    /** Total timeline length == time of the last sample. */
    TimeNs duration() const { return samples_.back().time; }

    const std::vector<Sample> &samples() const { return samples_; }

    /**
     * Interpolated power at absolute time @p t under @p wrap
     * semantics (true: t modulo duration; false: hold the last
     * sample's power forever). Exact at sample boundaries: t equal to
     * a sample's time returns that sample's power.
     */
    Watts power(TimeNs t, bool wrap) const;

    /**
     * End (exclusive) of the sample segment containing @p t and the
     * largest power anywhere inside it — what the dark-gap
     * fast-forward needs to prove a skip cannot cross Von. Past the
     * end of a clamped trace the "segment" is unbounded; @p horizon
     * caps it.
     */
    struct SegmentView {
        TimeNs end = 0;    ///< absolute, > t
        Watts maxPower = 0.0;
        Watts powerAtEnd = 0.0;
        /** The segment's first sample, samples()[index] (the last
         *  sample on a clamped tail), and its absolute time <= t. */
        std::size_t index = 0;
        TimeNs start = 0;
    };
    SegmentView segmentAt(TimeNs t, bool wrap, TimeNs horizon) const;

  private:
    friend class TraceSupply; // the ramp memo's only user

    /** An empty-capacitor ramp through one segment: what stepping it
     *  from +0.0 V at its first sample does, for one capacitor
     *  config (see the file comment). */
    struct RampKey {
        std::size_t segment = 0;
        Farads capacitance = 0.0;
        Volts vMax = 0.0;
        Volts vOn = 0.0;
        Watts leakage = 0.0;
        TimeNs step = 0;

        std::array<std::uint64_t, 6> bits() const;
    };
    struct Ramp {
        TimeNs duration = 0; ///< a whole number of steps
        Volts voltage = 0.0;
    };

    explicit EnvTrace(std::vector<Sample> samples);

    std::optional<Ramp> findRamp(const RampKey &key) const;
    void recordRamp(const RampKey &key, const Ramp &ramp) const;

    std::vector<Sample> samples_;

    /** A cache of a pure function of the trace, not supply state:
     *  shared by every supply (and JobPool thread) replaying this
     *  trace. Keyed by the bit patterns of RampKey's fields. */
    mutable std::mutex rampMutex_;
    mutable std::map<std::array<std::uint64_t, 6>, Ramp> ramps_;
};

/**
 * Capacitor-buffered supply replaying an EnvTrace. Mirrors
 * HarvestingSupply's integration (fixed step, Von/Voff hysteresis)
 * so trace cells are comparable with rf/stochastic cells, plus the
 * segment-skipping off-time path for multi-hour dark gaps.
 */
class TraceSupply : public Supply
{
  public:
    struct Config {
        Farads capacitance = 10e-6;
        Volts vMax = 5.25;
        Volts vOn = 3.0;
        Volts vOff = 1.8;
        Watts leakage = 1e-6;
        TimeNs integrationStep = 50 * kNsPerUs;
        /** Give up waiting for power-on after this long off (a full
         *  diurnal cycle by default: any longer gap is a dead site). */
        TimeNs maxOffTime = 24 * 3600 * kNsPerSec;
        /** Past-the-end policy: wrap to t modulo duration (periodic
         *  environments) or clamp to the last sample's power. */
        bool wrap = true;
        /** Position in the trace at virtual time 0 (mid-trace boot). */
        TimeNs startOffset = 0;
    };

    TraceSupply(Config cfg, std::shared_ptr<const EnvTrace> trace);

    DrainResult drain(TimeNs now, TimeNs dur, Watts load) override;
    TimeNs offTimeAfterDeath(TimeNs deathTime) override;
    void reset() override;

    Volts voltageNow() const override { return cap_.voltage(); }
    const Config &config() const { return cfg_; }
    const EnvTrace &trace() const { return *trace_; }

    /** Harvest power at absolute virtual time @p now (offset + wrap
     *  applied); exposed for tests. */
    Watts harvestAt(TimeNs now) const;

    void saveState(StateWriter &w) const override
    {
        // The trace is immutable and power is a pure function of
        // time, so the capacitor voltage is the whole mutable state.
        w.put(cap_.voltage());
    }
    void loadState(StateReader &r) override
    {
        cap_.setVoltage(r.get<Volts>());
    }

    /**
     * Deterministic per-seed start offset: distinct seeds spread
     * device boots across the whole timeline, which is what turns a
     * seed axis into a population of device-days.
     */
    static TimeNs offsetForSeed(std::uint64_t seed,
                                const EnvTrace &trace);

  private:
    /** Step from absolute time @p t, @p off into the outage, through
     *  @p seg until Von, the segment's end or maxOffTime, replaying
     *  the trace's memoised ramp instead where one applies.
     *  @return the off time stepped. */
    TimeNs stepSegment(const EnvTrace::SegmentView &seg, TimeNs t,
                       TimeNs off);

    Config cfg_;
    std::shared_ptr<const EnvTrace> trace_;
    Capacitor cap_;
    CounterHandle darkGiveUps_{stats_, "darkGiveUps"};
    DistributionHandle offTimeUs_{stats_, "offTimeUs"};
};

} // namespace ticsim::energy

#endif // TICSIM_ENERGY_TRACE_SUPPLY_HPP
