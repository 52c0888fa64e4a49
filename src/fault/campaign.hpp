/**
 * @file
 * Adversarial fault-injection campaigns over the (app, runtime) matrix
 * (DESIGN.md Section 8).
 *
 * For every pair the driver first performs a failure-free reference
 * run with the injector in observe mode, which yields both the golden
 * final state (via the replay oracle) and a census of boundary events
 * and gated stores. From the census it enumerates systematic schedules
 * — cuts at and just after every commit/restore/send/boot boundary,
 * torn writes at first/middle/last store of each site, stale-slot
 * retention flips — plus a band of seeded-random schedules, and runs
 * each as a subject. A violation is any subject run that fails to
 * complete, fails the app's own verify(), or whose final application
 * state diverges from the reference.
 *
 * Every violation is delta-debugged (ddmin over the plan's atoms) to a
 * minimal reproducing schedule, re-verified by replay, and — when the
 * minimized schedule is cuts-only — absolutized into an explicit
 * ResetPattern of cut instants so it replays independently of event
 * counting. The whole campaign is a pure function of its seed.
 */

#ifndef TICSIM_FAULT_CAMPAIGN_HPP
#define TICSIM_FAULT_CAMPAIGN_HPP

#include <functional>
#include <string>
#include <vector>

#include "analysis/replay_oracle.hpp"
#include "apps/bc/bc_legacy.hpp"
#include "apps/common/cuckoo_core.hpp"
#include "board/board.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "harness/scenario.hpp"
#include "support/table.hpp"

namespace ticsim::fault {

struct CampaignConfig {
    std::uint64_t seed = 11;
    /** Seeded-random schedules per pair on top of the systematic set. */
    std::uint32_t randomSchedules = 8;
    /** Virtual-time budget per run. Faults are finite, so every run —
     *  including plain C restarting from scratch — eventually
     *  completes on the continuous tail; no separate unprotected
     *  budget is needed. */
    TimeNs budget = 600 * kNsPerSec;
    /** Off window after every injected death. */
    TimeNs offNs = 12 * kNsPerMs;
    /** Wall-clock cap in seconds; 0 = unlimited. A capped campaign
     *  marks itself truncated (and is then not seed-reproducible). */
    double maxSeconds = 0;
    /**
     * Worker threads for the reference / subject / shrink phases
     * (0 = all hardware threads). Every run uses a fresh Board and
     * results are assembled in (pair, schedule) order, so any job
     * count produces the identical report as long as the wall-clock
     * cap does not fire.
     */
    unsigned jobs = 1;
    /** Minimize violations by forking from a snapshot instead of
     *  re-running every ddmin candidate from boot (same minimal plans,
     *  fewer simulated cycles; see fault/explore.hpp). */
    bool forkShrink = false;
    apps::BcParams bc{};
    apps::CuckooParams cuckoo{};

    CampaignConfig()
    {
        // Same scaling as ticscheck: one Cuckoo pass must span several
        // injected outages for the unprotected split to show anything.
        cuckoo.workScale = 16.0;
    }
};

/** Outcome of one subject (or reference) run of a pair. */
struct PairRunOutcome {
    board::RunResult res;
    bool verified = false;
    analysis::ArenaSnapshot snap;
    EventCensus census;
    std::vector<TimeNs> firedCuts;
    std::uint64_t injectedDeaths = 0;
    std::uint64_t tearsApplied = 0;
    std::uint64_t flipsApplied = 0;
    /** Per-atom trigger records in planFromAtoms order (cuts, tears,
     *  flips) — what `ticsfault --replay` reports per plan event. */
    std::vector<AtomFiring> atomFirings;
};

/**
 * One (app, runtime) campaign target: a catalog row at the campaign's
 * app sizes and TICS setup. Stepwise drivers (the failure-space
 * explorer, the fork shrinker) make() the pair on their own board,
 * begin/continue the run themselves and call verify() at every
 * explored leaf instead of once after a whole run.
 */
struct PairSpec {
    std::string app;
    std::string runtime;
    const harness::Scenario *scenario = nullptr;
    harness::ScenarioParams params;

    /** Build the runtime and app on @p board without running them. */
    harness::ScenarioInstance
    make(board::Board &board) const
    {
        return scenario->build(board, params);
    }
};

/**
 * Verdict of a subject run against the reference: empty kind means
 * consistent; otherwise layout | starved | not-completed |
 * verify-failed | diverged, in that precedence order.
 */
struct Classification {
    std::string kind;
    std::uint64_t divergentBytes = 0;
};

/** The verdict for a subject run that ended as @p res, whose verify()
 *  returned @p verified and whose final NV state diffed as @p diff.
 *  Campaign subjects, confirmation replays, explorer leaves and fork
 *  shrinker probes all classify through this one function. */
Classification classify(const analysis::ReplayReport &diff,
                        const board::RunResult &res, bool verified);

/** classify() of @p sub's snapshot diffed against @p ref's. */
Classification classifyOutcome(const PairRunOutcome &ref,
                               const PairRunOutcome &sub);

/**
 * One subject (or reference) execution: fresh board, fresh runtime and
 * app from the pair's catalog row, a FaultedSupply over a continuous
 * inner supply, and the injector installed as the access sink for the
 * whole run. The row rebuilds identical objects each time, so arena
 * layouts match and the replay diff is byte-meaningful.
 */
PairRunOutcome runPairWithPlan(const CampaignConfig &cfg,
                               const PairSpec &spec, const FaultPlan &plan,
                               bool observe);

/** Rebuild a plan from a subset of its atom indices (ddmin
 *  granularity: one cut, tear, or flip per atom, in that order;
 *  offNs always carried over). */
FaultPlan planFromAtoms(const FaultPlan &full,
                        const std::vector<std::size_t> &keep);

/** The campaign matrix: the catalog's consistency-matrix rows (BC and
 *  Cuckoo under TICS, MementOS-like, Chinchilla-like, Alpaca-like
 *  tasks, and plain C; 10 pairs, mirroring ticscheck). */
std::vector<PairSpec> campaignPairs(const CampaignConfig &cfg);

/** What one evaluation of a candidate plan observed. */
struct PlanProbe {
    Classification cls;
    std::vector<TimeNs> firedCuts; ///< for cut absolutization
    Cycles cycles = 0; ///< simulated cycles the evaluation executed
};

/** Evaluate one candidate plan against the pair's reference. The
 *  from-boot evaluator re-runs the whole pair; the fork evaluator
 *  restores a snapshot and only executes the suffix. */
using PlanEval = std::function<PlanProbe(const FaultPlan &)>;

/** A minimized, replay-verified consistency violation. */
struct Violation {
    std::string app;
    std::string runtime;
    std::string plan;        ///< minimized schedule (FaultPlan::format)
    std::string originalPlan;///< schedule that first exposed it
    std::string kind;        ///< not-completed | starved | verify-failed
                             ///< | diverged | layout
    std::uint64_t divergentBytes = 0;
    std::uint32_t shrinkRuns = 0;  ///< subject runs the shrinker spent
    bool replayVerified = false;   ///< minimized plan still violates
    Cycles shrinkCycles = 0;       ///< simulated cycles all evals spent
};

/**
 * ddmin over the plan's atoms through @p eval, then — for cuts-only
 * survivors — an absolutization pass preferring the equivalent
 * explicit `cut@t:` schedule, then a final confirmation evaluation.
 * Pure in @p eval: plug in a from-boot or a fork-based evaluator and
 * the minimal plans come out the same.
 */
Violation shrinkPlanWith(const PairSpec &spec, const FaultPlan &original,
                         const Classification &firstSeen,
                         const PlanEval &eval);

/** The from-boot shrinker: shrinkPlanWith over full re-runs. */
Violation shrinkViolationFromBoot(const CampaignConfig &cfg,
                                  const PairSpec &spec,
                                  const PairRunOutcome &ref,
                                  const FaultPlan &original,
                                  const Classification &firstSeen);

struct PairReport {
    std::string app;
    std::string runtime;
    bool isProtected = true;
    bool refCompleted = false;
    std::uint64_t schedules = 0;
    std::uint64_t violations = 0;
    std::uint64_t injectedDeaths = 0;
    std::uint64_t tearsApplied = 0;
    std::uint64_t flipsApplied = 0;
    std::vector<Violation> found;
};

struct CampaignReport {
    std::vector<PairReport> pairs;
    std::uint64_t totalSchedules = 0;
    std::uint64_t totalViolations = 0;
    /** True when the wall-clock cap truncated the sweep. */
    bool truncated = false;

    /**
     * The acceptance verdict: every reference completed, protected
     * pairs show zero violations, the unprotected baseline shows at
     * least one, and every reported violation replays from its
     * minimized schedule.
     */
    bool ok() const;
};

/** Run the full campaign. Deterministic for a given config when
 *  maxSeconds is 0. */
CampaignReport runCampaign(const CampaignConfig &cfg);

/**
 * Re-execute one plan against one pair ("App/Runtime", either name
 * exact or a catalog alias such as "CF/tics"), reporting the violation
 * kind ("consistent" when the run is clean). Returns false when the
 * pair name matches no campaign pair.
 */
bool replayPlan(const CampaignConfig &cfg, const std::string &pairName,
                const FaultPlan &plan, std::string &verdictOut);

/** One plan atom's replay status, human-readable. */
struct ReplayAtomStatus {
    std::string atom;   ///< the atom, re-serialized on its own
    bool fired = false;
    std::uint64_t occurrence = 0; ///< boundary/store/boot ordinal hit
    TimeNs at = 0;                ///< virtual time of the trigger
};

/** replayPlan plus per-atom firing detail for `ticsfault --replay`. */
struct ReplayDetail {
    std::string verdict;
    std::vector<ReplayAtomStatus> atoms;

    bool allFired() const
    {
        for (const auto &a : atoms)
            if (!a.fired)
                return false;
        return true;
    }
};

bool replayPlanDetailed(const CampaignConfig &cfg,
                        const std::string &pairName, const FaultPlan &plan,
                        ReplayDetail &out);

/** Per-pair summary in the repo's standard table format. */
Table campaignTable(const CampaignReport &report);

/** Per-violation detail (minimized schedules). */
Table violationTable(const CampaignReport &report);

} // namespace ticsim::fault

#endif // TICSIM_FAULT_CAMPAIGN_HPP
