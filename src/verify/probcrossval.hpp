/**
 * @file
 * Cross-validation of the probabilistic timing analysis against
 * simulation: every sweep-matched (app, runtime) pair is run through
 * the ticssweep pool under the tier-1 reset pattern and the
 * stochastic harvesting supply, and the statically derived
 * completion-time percentiles are gated against the simulated
 * cross-seed distribution at p50/p95/p99 within a declared
 * per-percentile tolerance.
 *
 * Pairs whose static model says "never completes" (pNonterm ~ 1) are
 * gated on verdict agreement instead: the simulation must show zero
 * completed cells. That keeps plain-C-under-pattern — whose region
 * outgrows every charge window — inside the gate rather than excused
 * from it.
 *
 * The declared tolerances are honest about the model's approximation
 * error (DESIGN.md section 10): the geometric outage-count model adds
 * variance a deterministic pattern run does not have, and a 16-24
 * seed simulated p99 is itself a noisy order statistic, so the gate
 * widens toward the tail.
 */

#ifndef TICSIM_VERIFY_PROBCROSSVAL_HPP
#define TICSIM_VERIFY_PROBCROSSVAL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "support/table.hpp"
#include "verify/analyses.hpp"
#include "verify/prob.hpp"

namespace ticsim::verify {

/** Relative tolerance per gated percentile. */
struct ProbGateTolerance {
    double p50 = 0.35;
    double p95 = 0.60;
    double p99 = 0.80;
};

/** One (app, runtime, environment) gate row. */
struct ProbGateRow {
    std::string app;
    std::string runtime;
    std::string env;        ///< supply-axis token
    double capUf = 0.0;     ///< stochastic rows: modeled capacitance

    // Static side (milliseconds).
    double staticP50Ms = 0.0;
    double staticP95Ms = 0.0;
    double staticP99Ms = 0.0;
    double staticMeanMs = 0.0;
    double pNonterm = 0.0;
    double meanOutages = 0.0;

    // Order-statistic bracket of each simulated percentile. A
    // nearest-rank pXX over n seeds is the order statistic of rank
    // k = ceil(xx * n) — for n = 16 the "p99" is simply the sample
    // maximum, whose quantile position is spread over roughly
    // [0.83, 0.997]. The gate therefore brackets the static
    // distribution between the 5% and 95% quantile positions of that
    // order statistic (solved from the binomial tail) and requires
    // the simulated value to fall inside the band, widened by the
    // declared tolerance. Zeros mean "degenerate band at the nominal
    // static percentile" (synthetic test rows).
    double staticLoP50Ms = 0.0, staticHiP50Ms = 0.0;
    double staticLoP95Ms = 0.0, staticHiP95Ms = 0.0;
    double staticLoP99Ms = 0.0, staticHiP99Ms = 0.0;

    // Simulated side.
    std::uint64_t simCells = 0;
    std::uint64_t simCompleted = 0;
    double simP50Ms = 0.0;
    double simP95Ms = 0.0;
    double simP99Ms = 0.0;

    // Gate outcome (filled by gateProbRow).
    bool gatePassed = false;
    std::string gateKind;         ///< "percentiles" | "nonterm"
    std::string failedPercentile; ///< "p50"/"p95"/"p99"/"completion"
    double worstRel = 0.0;        ///< worst relative deviation seen
};

struct ProbCrossValConfig {
    /** Simulated seeds per cell group (cross-seed distribution). */
    std::vector<std::uint64_t> seeds;
    ProbGateTolerance tol;
    /** Stochastic supply rows model/simulate this capacitance. */
    double stochasticCapUf = 1.0;
    TimeNs patternPeriod = 30 * kNsPerMs;
    double patternOnFraction = 0.6;
    unsigned jobs = 0;          ///< sweep pool width; 0 = hardware
    bool useCache = true;
    std::string cacheDir = ".ticssweep-cache";
    std::uint64_t rebootLimit = 300;
    std::uint64_t modelSeed = 11; ///< calibration-run seed
    TimeNs calibrationBudget = 600 * kNsPerSec;

    ProbCrossValConfig()
    {
        for (std::uint64_t s = 11; s < 11 + 16; ++s)
            seeds.push_back(s);
    }
};

struct ProbCrossValReport {
    std::vector<ProbGateRow> rows;          ///< app/runtime/env order
    std::vector<FreshnessEstimate> freshness; ///< static, all envs
    bool pass = true;
    std::vector<Finding> findings; ///< one per failed gate row
};

/** Static half only: rows carry no simulated side (gateKind
 *  "static") and no gate runs. What `--prob` without `--crossval`
 *  computes, and the source of the baseline's probabilistic verdicts. */
struct ProbStaticResult {
    std::vector<ProbGateRow> rows;
    std::vector<FreshnessEstimate> freshness;
};

/**
 * Recover the sweep-matched model of one (app, runtime) pair: default
 * app parameters and the sweep's runtime configurations (TICS 10 ms
 * timer, 256 B segment), mirroring sweep::runCell — deliberately not
 * verifyMatrix's checker-matched configuration. A pair the scenario
 * catalog does not hold is fatal.
 */
ProgramModel recoverSweepPair(const ProbCrossValConfig &cfg,
                              const std::string &app,
                              const std::string &runtime);

/**
 * Static probabilistic analysis of the sweep matrix under the pattern
 * and stochastic environments, plus freshness-only coverage of the
 * SensorRelay self-test pair (guarded twin ~0, unguarded twin > 0).
 */
ProbStaticResult probStaticAnalyze(const ProbCrossValConfig &cfg);

/**
 * Evaluate the gate outcome of one row against @p tol: verdict
 * agreement for nonterminating rows, relative percentile agreement
 * (and full completion) otherwise. Pure function of the row's static
 * and simulated fields, so tests can feed synthetic (miscalibrated)
 * rows without running a sweep.
 */
void gateProbRow(ProbGateRow &row, const ProbGateTolerance &tol);

/** The findings entry a failed gate row earns. */
Finding probGateFinding(const ProbGateRow &row);

/** Recover models, run the sweep, gate every row. */
ProbCrossValReport
probCrossValidate(const ProbCrossValConfig &cfg = {});

/** Per-row static-vs-simulated table. */
Table probCrossValTable(const ProbCrossValReport &r);

/** Static freshness-violation probability table. */
Table freshnessTable(const std::vector<FreshnessEstimate> &rows);

} // namespace ticsim::verify

#endif // TICSIM_VERIFY_PROBCROSSVAL_HPP
