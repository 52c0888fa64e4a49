/**
 * @file
 * The three static analyses of ticsverify, run over a recovered
 * ProgramModel (plus the WAR-possibility pass that re-evaluates the
 * dynamic checker's condition over *every* region of the model):
 *
 *  1. energy-progress: per checkpoint region, compare the worst-case
 *     charge-to-execute (calibrated region work + re-entry overhead:
 *     boot, restore, worst-case rollback of the region's versioning
 *     traffic) against the power supply's per-window cycle budget. A
 *     region that needs more than one full charge can never commit —
 *     the program is statically non-terminating under that supply.
 *
 *  2. timeliness reachability: timestamped data is tainted at its
 *     timed assignment; a consumption is *guarded* when a freshness
 *     check on the same variable precedes it within the same region
 *     (re-execution then always re-evaluates the check before the
 *     use). Unguarded uses are flagged when the worst-case data age —
 *     calibrated on-path time plus the supply's worst-case outage
 *     accumulation — can exceed the variable's expiration window.
 *
 *  3. I/O idempotency: a peripheral transmission inside a region that
 *     can re-execute after rollback is flagged unless it happens
 *     inside a guarded post-commit drain window (the virtualized-I/O
 *     pattern: staged in NV, sequence-numbered, sent exactly once per
 *     committed stage).
 *
 * Soundness/completeness: the analyses are conservative — every
 * violation the dynamic checker can observe corresponds to a static
 * finding (the cross-validation harness machine-checks this), while
 * the reverse does not hold: a static finding is a *possibility*
 * under some failure schedule, not a certainty under the one schedule
 * the dynamic checker happened to run.
 */

#ifndef TICSIM_VERIFY_ANALYSES_HPP
#define TICSIM_VERIFY_ANALYSES_HPP

#include <string>
#include <vector>

#include "device/costs.hpp"
#include "energy/budget.hpp"
#include "verify/model.hpp"

namespace ticsim::verify {

// The budget arithmetic lives in energy/budget.hpp so the simulator's
// energy layer and the prob/envmodel passes share one definition; the
// verify names remain the canonical spelling inside the analyses.
using energy::EnergyBudget;
using energy::capacitorBudget;
using energy::patternBudget;
using energy::unboundedBudget;

/** One static finding, in run-report style. */
struct Finding {
    std::string analysis; ///< energy-progress | timeliness |
                          ///< io-idempotency | war-possibility
    std::string app;
    std::string runtime;
    std::string subject;  ///< NV region, timed variable, or peripheral
    std::size_t regionIndex = 0;
    std::string anchor;   ///< region anchor (task name or region#N)
    std::uint32_t offset = 0; ///< WAR ranges: offset within subject
    std::uint32_t bytes = 0;  ///< WAR ranges: range length
    std::string detail;   ///< human explanation with the offending path
};

/** Worst-case re-entry cost of @p r: boot + restore + rollback. */
Cycles reentryCycles(const ProgramModel &m, const RegionNode &r,
                     const device::CostModel &costs);

/** Analysis 1: statically non-terminating regions. */
std::vector<Finding> analyzeEnergyProgress(
    const ProgramModel &m, const EnergyBudget &budget,
    const device::CostModel &costs);

/** Analysis 2: unguarded timed uses that can exceed their window. */
std::vector<Finding> analyzeTimeliness(const ProgramModel &m,
                                       const EnergyBudget &budget,
                                       const device::CostModel &costs);

/** Analysis 3: re-executable unguarded peripheral transmissions. */
std::vector<Finding> analyzeIoIdempotency(const ProgramModel &m,
                                          const EnergyBudget &budget);

/** WAR pass: every latent range in the model becomes a finding. */
std::vector<Finding> analyzeWarPossibility(const ProgramModel &m,
                                           const EnergyBudget &budget);

/** All four analyses over one model. */
std::vector<Finding> analyzeAll(const ProgramModel &m,
                                const EnergyBudget &budget,
                                const device::CostModel &costs);

} // namespace ticsim::verify

#endif // TICSIM_VERIFY_ANALYSES_HPP
