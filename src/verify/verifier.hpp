/**
 * @file
 * The ticsverify driver: recovers a ProgramModel per (app, runtime)
 * pair from one failure-free calibration run, derives the deployment
 * supply's energy budget, runs the four static analyses, and reduces
 * everything to per-pair verdicts and a flat findings list.
 *
 * The verdict mirrors the dynamic checker's split: protected runtimes
 * must come out clean of WAR possibilities, while the unprotected
 * plain-C baseline (whole program = one region, no versioning) must be
 * flagged WAR-unsafe — and, whenever that one region outgrows a charge
 * window, statically non-terminating too.
 * Applications that bypass the guard layers (direct radio sends,
 * unchecked timed reads) are flagged regardless of runtime — the point
 * of a static pass is that "no violation observed" is not "none
 * possible".
 */

#ifndef TICSIM_VERIFY_VERIFIER_HPP
#define TICSIM_VERIFY_VERIFIER_HPP

#include <span>
#include <string>
#include <vector>

#include "analysis/checker.hpp"
#include "apps/ar/ar_common.hpp"
#include "harness/scenario.hpp"
#include "support/table.hpp"
#include "verify/analyses.hpp"
#include "verify/model.hpp"

namespace ticsim::verify {

struct VerifyConfig {
    /** Deployment supply the static analyses verify against (the
     *  tier-1 reset pattern by default, matching the dynamic checker). */
    TimeNs patternPeriod = 30 * kNsPerMs;
    double patternOnFraction = 0.6;
    /** > 0: verify against a capacitor budget of this capacitance
     *  instead of the pattern (the non-terminating demo scenario). */
    double capacitanceF = 0.0;
    double capVOn = 3.0;
    double capVOff = 1.8;
    TimeNs capMaxOffTime = 3600 * kNsPerSec;

    /** Virtual-time budget of one calibration run, and of every
     *  protected dynamic-checker run (checkConfig()). */
    TimeNs calibrationBudget = 600 * kNsPerSec;
    std::uint64_t seed = 11;
    std::uint64_t rebootLimit = 300; ///< starvation bound (outages)

    /**
     * Worker threads for the cross-validation harness's independent
     * evidence gatherers (static matrix, dynamic matrix, probe runs);
     * 0 = all hardware threads. Results are matched in a fixed order
     * afterwards, so the report is identical for any job count. Note
     * that with more than one job the per-run report records
     * (--json `runs`) are skipped for worker-thread runs; coverage
     * numbers are unaffected.
     */
    unsigned jobs = 1;

    apps::BcParams bc{};
    apps::CuckooParams cuckoo{};
    apps::ArParams ar{};

    VerifyConfig()
    {
        // Match the dynamic checker's matrix workload so the cross-
        // validation compares like with like.
        cuckoo.workScale = 16.0;
    }
};

/** One (app, runtime) pair's static verification outcome. */
struct AppVerdict {
    /** The catalog row verified; names its source for the lint. */
    const harness::Scenario *scenario = nullptr;
    std::string app;
    std::string runtime;
    bool isProtected = true; ///< same meaning as the checker's flag
    /** Pair is expected to carry WAR-possibility findings: the
     *  unprotected baseline (no versioning at all) and MementOS-like
     *  (no undo log — writes before the first checkpoint are
     *  unrecoverable, the latent window the checker also reports). */
    bool expectWar = false;
    ProgramModel model;
    std::vector<Finding> findings;

    std::size_t count(const std::string &analysis) const
    {
        std::size_t n = 0;
        for (const auto &f : findings) {
            if (f.analysis == analysis)
                ++n;
        }
        return n;
    }
};

/**
 * One failure-free calibration run of catalog row @p s under a
 * continuous supply: the recorded program model with its WAR ranges
 * and, read off the built runtime, the TICS segment size and the task
 * graph. @p record adds the run to the bench report as
 * "<app>/calibration".
 */
ProgramModel calibrateModel(const harness::Scenario &s,
                            const harness::ScenarioParams &params,
                            std::uint64_t seed, TimeNs budget,
                            bool record);

/**
 * The SensorRelay twins (verify/demo_app.hpp) as catalog-shaped rows,
 * both under TICS: "Relay+guard", then "Relay-unguard". They are not
 * in the harness catalog because the app sits above harness.
 */
std::span<const harness::Scenario> relayScenarios();

/**
 * The verifier's rows in report order: the consistency matrix, every
 * other catalog app under TICS and plain C, then the SensorRelay
 * twins.
 */
std::vector<const harness::Scenario *> verifierScenarios();

/**
 * The dynamic checker's configuration for the deployment @p cfg
 * describes: its reset pattern, seed and app sizes, with the
 * calibration budget bounding each protected run.
 */
analysis::CheckConfig checkConfig(const VerifyConfig &cfg);

/** The deployment budget the config describes. */
EnergyBudget deploymentBudget(const VerifyConfig &cfg,
                              const device::CostModel &costs);

/**
 * Statically verify the full app matrix (ar/bc/cuckoo/ghm/study plus
 * the SensorRelay self-test pair) against the configured budget.
 */
std::vector<AppVerdict> verifyMatrix(const VerifyConfig &cfg = {});

/**
 * Whether a verdict matches the expected split: protected pairs that
 * keep to the guard layers are clean; plain C is energy- and WAR-
 * flagged; apps that bypass the guards carry exactly the io/timeliness
 * findings they earned.
 */
bool verdictOk(const AppVerdict &v);

/** Per-pair summary table. */
Table verdictTable(const std::vector<AppVerdict> &verdicts);

/** Per-finding detail table (ticsverify --verbose). */
Table findingTable(const std::vector<AppVerdict> &verdicts);

/** Flatten all findings of a verdict set. */
std::vector<Finding>
allFindings(const std::vector<AppVerdict> &verdicts);

} // namespace ticsim::verify

#endif // TICSIM_VERIFY_VERIFIER_HPP
