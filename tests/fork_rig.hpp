/**
 * @file
 * The explorer's recording set-up, for the fork tests: explorer-scale
 * pair sizes, the number of decision points of a failure-free run, and
 * one pair on a FaultedBoard under the empty-plan injector, whose hook
 * sees every counted event. Shared by the snapshot suite and the
 * allocation-counting test, which is an executable of its own.
 */

#ifndef TICSIM_TESTS_FORK_RIG_HPP
#define TICSIM_TESTS_FORK_RIG_HPP

#include <cstdint>

#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "harness/experiment.hpp"
#include "mem/journal.hpp"
#include "mem/trace.hpp"

namespace ticsim::testfork {

/** Explorer-scale workloads: small enough that every pair's recording
 *  stays in the hundreds of decision points. */
inline fault::CampaignConfig
smallConfig()
{
    fault::CampaignConfig cfg;
    cfg.bc.iterations = 2;
    cfg.cuckoo.workScale = 1.0;
    cfg.cuckoo.keys = 8;
    return cfg;
}

/** Total events the injector counts over @p ref's run (its decision
 *  points). */
inline std::uint64_t
countedEvents(const fault::PairRunOutcome &ref)
{
    std::uint64_t n = 0;
    for (const std::uint64_t c : ref.census.boundary)
        n += c;
    for (const std::uint64_t c : ref.census.stores)
        n += c;
    return n;
}

/**
 * One pair on a FaultedBoard under the empty-plan injector, as an
 * explorer shard records it: the hook sees every counted event.
 */
struct ForkBoard {
    ForkBoard(const fault::CampaignConfig &cfg, const fault::PairSpec &spec)
        : fb(cfg, noFaults), inj(fb.board, fb.supply, noFaults),
          as(&inj), env(spec.make(fb.board)), sj(&journal)
    {
    }

    const fault::FaultPlan noFaults;
    fault::FaultedBoard fb;
    fault::FaultInjector inj;
    mem::ScopedSink as;
    harness::ScenarioInstance env;
    mem::WriteJournal journal;
    mem::ScopedWriteJournal sj;
};

} // namespace ticsim::testfork

#endif // TICSIM_TESTS_FORK_RIG_HPP
