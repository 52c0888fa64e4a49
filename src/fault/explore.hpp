/**
 * @file
 * Exhaustive failure-space exploration on snapshot/fork (DESIGN.md
 * Section 13).
 *
 * The random/systematic campaign (fault/campaign.*) samples the
 * failure space; the explorer *enumerates* it. One recording pass per
 * pair runs the application failure-free under a FaultInjector bound
 * to the empty plan, whose recording hook takes a light board::Snapshot
 * at every decision point — each boundary event and each gated NV store
 * — together with the injector's state. The explorer then walks the
 * decision list newest-first (write-journal marks only roll backward),
 * restores each snapshot in place, reseeds the injector with setState(),
 * and branches over the local fault alphabet: die here, or — at a store
 * — land one of the distinct torn images and then die. Each branch is
 * driven to a leaf and classified against the pair's golden reference
 * exactly like a campaign subject; the faults on the way form the
 * leaf's FaultPlan.
 *
 * With maxFaults > 1 every branch leaf is itself re-recorded and
 * explored recursively, enumerating all schedules of up to that many
 * faults. A pair whose walk hits no frontier cut-off is *exhausted*:
 * within the model (one death per decision point, the tear alphabet
 * below, depth maxFaults) every schedule was executed and classified.
 * Violations are deduplicated, re-confirmed through a real from-boot
 * injector replay, and ddmin-minimized when they carry more than one
 * atom.
 *
 * The same snapshot machinery powers forkShrinkViolation(): a second
 * recording hook keeps the latest fiber snapshot from which every atom
 * of the original plan still lies ahead (atomsAhead()), and the ddmin
 * shrinker evaluates each candidate plan by restoring it and rebinding
 * the same injector to the candidate, executing only the suffix instead
 * of re-running from boot. Minimal plans are identical by construction
 * (shrinkPlanWith is pure in its evaluator); Violation::shrinkCycles
 * measures the saving.
 */

#ifndef TICSIM_FAULT_EXPLORE_HPP
#define TICSIM_FAULT_EXPLORE_HPP

#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "support/table.hpp"

namespace ticsim::fault {

struct ExploreConfig {
    /** Seed, budget, off window and app sizes of every explored run. */
    PairConfig base{};
    /** Maximum faults per explored schedule (exploration depth). */
    std::uint32_t maxFaults = 1;
    /**
     * Frontier cap: decision points explored per recording frame
     * (0 = unbounded). A capped walk skips the *earliest* decisions —
     * the ones nearest boot are reachable by every sampling campaign
     * anyway — counts each skip as a frontier cut-off, and reports
     * exhausted = false.
     */
    std::uint64_t maxDecisions = 0;
    /** Worker threads (0 = all hardware threads); top-level decision
     *  points are dealt round-robin across shards, each with its own
     *  Board. Any job count yields the identical report. */
    unsigned jobs = 1;
};

/** One distinct violating schedule the walk found. */
struct ExploredViolation {
    std::string plan;     ///< minimal confirmed schedule
    std::string foundAs;  ///< schedule the walk first hit it with
    std::string kind;     ///< classification (campaign.hpp)
    std::uint64_t divergentBytes = 0;
    /** Re-ran through the real from-boot injector and still violates.
     *  Unconfirmed entries mark fidelity gaps of the emulated death,
     *  are kept visible, and never count toward the verdict. */
    bool confirmed = false;
};

/** The explorer's verdict on one (app, runtime) pair. */
struct PairExploreResult {
    std::string app;
    std::string runtime;
    bool isProtected = true;
    bool refCompleted = false;
    /** The recording pass reproduced the reference run exactly (it
     *  must: both are failure-free). */
    bool recordingConsistent = true;
    std::uint64_t decisionPoints = 0;  ///< per top-level recording
    std::uint64_t branchesTaken = 0;   ///< schedules started
    std::uint64_t statesExplored = 0;  ///< leaves classified
    std::uint64_t frontierCutoffs = 0; ///< decisions skipped by the cap
    /** Proof of exhaustion: every decision point was branched over at
     *  full depth — the violation list is complete for this model. */
    bool exhausted = false;
    std::uint64_t confirmedViolations = 0;
    std::vector<ExploredViolation> violations;
};

struct ExploreReport {
    std::vector<PairExploreResult> pairs;
    std::uint32_t maxFaults = 1;

    bool
    allExhausted() const
    {
        for (const auto &p : pairs)
            if (!p.exhausted)
                return false;
        return !pairs.empty();
    }

    /**
     * The acceptance verdict: every reference completed and re-recorded
     * consistently, protected pairs show zero confirmed violations, and
     * an exhausted unprotected pair shows at least one (an exhaustive
     * walk that cannot break plain C would mean the model lost its
     * teeth).
     */
    bool ok() const;
};

/** Enumerate the failure space of one pair. */
PairExploreResult explorePair(const ExploreConfig &cfg,
                              const PairSpec &spec);

/** explorePair over a set of pairs (see campaignPairs()). */
ExploreReport exploreMatrix(const ExploreConfig &cfg,
                            const std::vector<PairSpec> &specs);

/**
 * The fork-based ddmin shrinker: shrinkPlanWith() over an evaluator
 * that restores the latest safe snapshot and executes only the suffix.
 * Falls back to a from-boot evaluation for candidates whose first atom
 * lands before the snapshot (cannot happen for subsets of @p original,
 * but absolutized confirmation plans are also routed through it), and
 * is shrinkViolationFromBoot() outright — no recording pass — when an
 * atom of @p original lies at or before the first power-on.
 * Drop-in replacement for shrinkViolationFromBoot().
 */
Violation forkShrinkViolation(const PairConfig &cfg,
                              const PairSpec &spec,
                              const PairRunOutcome &ref,
                              const FaultPlan &original,
                              const Classification &firstSeen);

/** Per-pair summary in the repo's standard table format. */
Table exploreTable(const ExploreReport &report);

/** Per-violation detail (minimal confirmed schedules). */
Table exploreViolationTable(const ExploreReport &report);

} // namespace ticsim::fault

#endif // TICSIM_FAULT_EXPLORE_HPP
