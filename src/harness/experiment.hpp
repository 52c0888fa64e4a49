/**
 * @file
 * Experiment plumbing shared by the benchmark binaries: supply
 * factories for the paper's three power setups, board construction,
 * and common result formatting.
 */

#ifndef TICSIM_HARNESS_EXPERIMENT_HPP
#define TICSIM_HARNESS_EXPERIMENT_HPP

#include <memory>
#include <string>

#include "board/board.hpp"
#include "tics/runtime.hpp"

namespace ticsim::harness {

/** The paper's power setups, plus trace-driven environments. */
enum class PowerSetup {
    Continuous,   ///< bench supply (Fig. 9 overhead runs)
    Pattern,      ///< pre-programmed reset pattern (Table 1)
    RfHarvested,  ///< Powercast-like RF + capacitor (Table 2 / Fig. 8)
    Stochastic,   ///< bursty ambient source (ablations)
    TraceEnv,     ///< replayed docs/traces CSV (fleet env axis)
};

struct SupplySpec {
    PowerSetup setup = PowerSetup::Continuous;
    /** Pattern: reset period and powered fraction. */
    TimeNs patternPeriod = 100 * kNsPerMs;
    double patternOnFraction = 1.0;
    /** RF: transmitter EIRP and distance. */
    Watts rfTxEirp = 3.0;
    double rfDistanceM = 2.9;
    /**
     * Energy-buffer capacitance override for the harvested setups
     * (RfHarvested/Stochastic). 0 keeps the supply's default; the
     * capacitor-sweep experiments (Fig. 9-style) set it per cell.
     */
    double capacitanceF = 0.0;
    /** Stochastic: mean power and interval lengths. */
    Watts stochasticPower = 2.2e-3;
    TimeNs stochasticOn = 80 * kNsPerMs;
    TimeNs stochasticOff = 150 * kNsPerMs;
    std::uint64_t seed = 1;
    /**
     * TraceEnv: the environment-trace name (docs/traces/<name>.csv).
     * The seed picks a deterministic start offset into the trace, so
     * a seed axis becomes a population of device-days.
     */
    std::string traceEnv;
    /** Accelerometer activity-regime switching period (the timed AR
     *  experiments use fast switching so alert deadlines bind). */
    TimeNs accelRegimePeriod = 500 * kNsPerMs;
};

/** Build a supply per spec. */
std::unique_ptr<energy::Supply> makeSupply(const SupplySpec &spec);

/** Failure-free spec (reference runs of the consistency checker). */
SupplySpec continuousSpec();

/** Pre-programmed reset-pattern spec (Table 1 setups, the checker). */
SupplySpec patternSpec(TimeNs period, double onFraction);

/** Build a board with a perfect timekeeper (the common case). */
std::unique_ptr<board::Board>
makeBoard(const SupplySpec &spec, std::uint64_t seed = 1,
          device::CostModel costs = {});

/** Paper configuration names for TICS working-stack setups. */
struct TicsSetup {
    const char *name;
    std::uint32_t segmentBytes;
    tics::PolicyKind policy;
    TimeNs timerPeriod;
};

/** S1 / S2 / S1* / S2* / ST from Fig. 9. */
tics::TicsConfig makeTicsConfig(const TicsSetup &s);

extern const TicsSetup kSetupS1;      ///< 50 B, grow/shrink only
extern const TicsSetup kSetupS2;      ///< 256 B, grow/shrink only
extern const TicsSetup kSetupS1Star;  ///< 50 B + 10 ms timer
extern const TicsSetup kSetupS2Star;  ///< 256 B + 10 ms timer
extern const TicsSetup kSetupST;      ///< 256 B + task-boundary ckpts

/** Simulated milliseconds of powered execution. */
double simMs(const board::RunResult &r);

/** "12.3" or "x" when the configuration cannot run the program. */
std::string msCell(bool supported, bool completed, double ms);

} // namespace ticsim::harness

#endif // TICSIM_HARNESS_EXPERIMENT_HPP
