/**
 * @file
 * The dynamic checker behind `ticsverify --dynamic`: runs the paper's
 * BC and Cuckoo benchmarks under every runtime that can express them
 * (TICS, MementOS-like, Chinchilla-like, Alpaca-like tasks, and the
 * unprotected plain-C baseline), with a failure-free reference run and
 * an intermittent subject run per scenario, and reduces each pair to
 * one ScenarioFinding: WAR hazards found by the detector plus final-
 * state divergence found by the replay oracle.
 *
 * The AR benchmark is deliberately absent: its sensor samples depend
 * on virtual time, so a failure-free and an intermittent run read
 * different accelerometer sequences and their final states diverge for
 * reasons that have nothing to do with memory consistency.
 *
 * Expected split (the paper's Fig. 3a argument, machine-checked): the
 * protected runtimes produce zero materialized hazards and zero
 * divergence; plain C under a reset pattern that interrupts it
 * mid-interval produces both.
 */

#ifndef TICSIM_ANALYSIS_CHECKER_HPP
#define TICSIM_ANALYSIS_CHECKER_HPP

#include <string>
#include <vector>

#include "analysis/replay_oracle.hpp"
#include "analysis/war_detector.hpp"
#include "apps/bc/bc_legacy.hpp"
#include "apps/common/cuckoo_core.hpp"
#include "board/board.hpp"
#include "support/table.hpp"

namespace ticsim::analysis {

struct CheckConfig {
    /** Reset pattern for the subject runs (matches the tier-1 matrix). */
    TimeNs patternPeriod = 30 * kNsPerMs;
    double patternOnFraction = 0.6;
    /** Virtual-time budget for protected runs (they complete). */
    TimeNs budget = 600 * kNsPerSec;
    /**
     * Budget for the unprotected subject runs: plain C restarts from
     * scratch every reboot and never finishes once the work exceeds
     * one on-window, so its runs are time-boxed instead.
     */
    TimeNs unprotectedBudget = 3 * kNsPerSec;
    std::uint64_t seed = 11;
    apps::BcParams bc{};
    apps::CuckooParams cuckoo{};

    CheckConfig()
    {
        // The stock Cuckoo workload fits inside one on-window of the
        // default reset pattern, so plain C would finish before the
        // pattern could interrupt it and the unprotected half of the
        // split would show nothing. Scale the modeled per-op work so
        // one full pass always spans several power cycles.
        cuckoo.workScale = 16.0;
    }
};

/** The outcome of one (app, runtime) reference/subject pair. */
struct ScenarioFinding {
    std::string app;
    std::string runtime;
    /** Whether this runtime claims consistency protection (everything
     *  except plain C). Determines which verdict applies. */
    bool isProtected = true;
    bool refCompleted = false;
    board::RunResult subject;
    bool verified = false; ///< subject app's own output verification
    std::uint64_t intervals = 0;
    std::uint64_t nvReadBytes = 0;
    std::uint64_t nvWriteBytes = 0;
    WarReport war;
    ReplayReport replay;
};

/**
 * Verdict for one finding: protected runtimes must complete, verify,
 * materialize no hazard and show no divergence; the unprotected
 * baseline must demonstrably reboot mid-interval, materialize at
 * least one hazard and diverge.
 */
bool scenarioOk(const ScenarioFinding &f);

/** Run the full app x runtime matrix. */
std::vector<ScenarioFinding> checkMatrix(const CheckConfig &cfg = {});

/** Render findings in the repo's standard table format. */
Table findingsTable(const std::vector<ScenarioFinding> &findings);

/** Per-hazard detail rows (ticsverify --dynamic --verbose). */
Table hazardTable(const std::vector<ScenarioFinding> &findings);

} // namespace ticsim::analysis

#endif // TICSIM_ANALYSIS_CHECKER_HPP
