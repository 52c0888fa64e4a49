/**
 * @file
 * Snapshot / fork tests: in-place Board snapshot+restore round-trips
 * across the whole campaign matrix (byte-identical NV, identical
 * RunResult, identical event timeline vs a from-scratch run), board
 * isolation under concurrent exploration, the exhaustive explorer's
 * protection-split and shard-count invariance, and ddmin-via-fork
 * parity (same minimal plans as the from-boot shrinker, fewer
 * simulated cycles), and the explorer's bound replay reference against
 * capture-and-diff on real arenas — after from-boot fault plans and
 * after restores on one board.
 */

#include <cstring>
#include <gtest/gtest.h>
#include <thread>

#include "analysis/replay_oracle.hpp"
#include "board/board.hpp"
#include "board/runtime.hpp"
#include "energy/supply.hpp"
#include "fault/campaign.hpp"
#include "fault/explore.hpp"
#include "fault/injector.hpp"
#include "mem/journal.hpp"
#include "mem/trace.hpp"
#include "replay_reference.hpp"
#include "support/rng.hpp"
#include "timekeeper/timekeeper.hpp"

using namespace ticsim;

namespace {

/** Explorer-scale workloads: small enough that every pair's recording
 *  stays in the hundreds of decision points. */
fault::CampaignConfig
smallConfig()
{
    fault::CampaignConfig cfg;
    cfg.bc.iterations = 2;
    cfg.cuckoo.workScale = 1.0;
    cfg.cuckoo.keys = 8;
    return cfg;
}

fault::PairSpec
findPair(const fault::CampaignConfig &cfg, const std::string &app,
         const std::string &runtime)
{
    for (fault::PairSpec &s : fault::campaignPairs(cfg))
        if (s.app == app && s.runtime == runtime)
            return std::move(s);
    ADD_FAILURE() << "no pair " << app << "/" << runtime;
    return {};
}

/** What one run left behind, for cross-run equality checks. */
struct RunTrace {
    board::RunResult res;
    bool verified = false;
    analysis::ArenaSnapshot nv;
    std::vector<telemetry::Event> events;
};

RunTrace
traceOf(board::Board &board, const harness::ScenarioInstance &env,
        const board::RunResult &res)
{
    RunTrace t;
    t.res = res;
    t.verified = env.verify();
    t.nv = analysis::ReplayOracle::capture(
        board.nvram(), analysis::ReplayOracle::appStateFilter());
    t.events = board.events().snapshot();
    return t;
}

void
expectSameRun(const RunTrace &a, const RunTrace &b, const char *what)
{
    EXPECT_EQ(a.res.completed, b.res.completed) << what;
    EXPECT_EQ(a.res.starved, b.res.starved) << what;
    EXPECT_EQ(a.res.reboots, b.res.reboots) << what;
    EXPECT_EQ(a.res.cycles, b.res.cycles) << what;
    EXPECT_EQ(a.res.elapsed, b.res.elapsed) << what;
    EXPECT_EQ(a.res.onTime, b.res.onTime) << what;
    EXPECT_EQ(a.verified, b.verified) << what;
    const analysis::ReplayReport diff =
        analysis::ReplayOracle::diff(a.nv, b.nv);
    EXPECT_TRUE(diff.clean())
        << what << ": " << diff.divergentBytes << " divergent bytes";
    ASSERT_EQ(a.events.size(), b.events.size()) << what;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].at, b.events[i].at) << what << " [" << i << "]";
        EXPECT_EQ(a.events[i].kind, b.events[i].kind)
            << what << " [" << i << "]";
        EXPECT_EQ(a.events[i].arg0, b.events[i].arg0)
            << what << " [" << i << "]";
        EXPECT_EQ(a.events[i].arg1, b.events[i].arg1)
            << what << " [" << i << "]";
    }
}

/**
 * Minimal recording sink: counts in-context gated stores and commits
 * and captures one full (fiber) snapshot at the k-th, from inside the
 * application context — the same capture point the fork shrinker
 * uses. Commits matter because task-model pairs have no gated stores
 * at all (channel privatize/commit writes are journaled directly).
 * The resumed run re-enters the capture call, which returns false,
 * and falls through as if the recording run had never stopped.
 */
class SnapAtEvent : public mem::AccessSink
{
  public:
    SnapAtEvent(board::Board &board, std::uint64_t k)
        : board_(board), target_(k)
    {
    }

    bool captured() const { return captured_; }
    const board::Snapshot &snap() const { return snap_; }

    void powerOn() override { started_ = true; }
    void commit() override { hit(); }

    void
    store(mem::StoreSite, void *dst, const void *src,
          std::uint32_t bytes) override
    {
        hit();
        mem::journalNote(dst, bytes);
        std::memcpy(dst, src, bytes);
    }

  private:
    void
    hit()
    {
        if (!captured_ && started_ && board_.ctx().inside() &&
            ++seen_ == target_ &&
            board_.snapshot(snap_, /*withFiber=*/true))
            captured_ = true;
    }

    board::Board &board_;
    std::uint64_t target_;
    std::uint64_t seen_ = 0;
    bool started_ = false;
    bool captured_ = false;
    board::Snapshot snap_;
};

/**
 * What the explorer checks at a leaf, both ways: @p bound (bound to
 * @p board before the run) must report what capture-and-diff reports
 * for the arena as it is now, and that must be the original
 * algorithm's report. Returns the report.
 */
analysis::ReplayReport
expectBoundMatchesCapture(const analysis::BoundReference &bound,
                          const analysis::ArenaSnapshot &ref,
                          board::Board &board, const std::string &what)
{
    const analysis::ArenaSnapshot sub = analysis::ReplayOracle::capture(
        board.nvram(), analysis::ReplayOracle::appStateFilter());
    const analysis::ReplayReport want =
        analysis::ReplayOracle::diff(ref, sub);
    testref::expectSameReport(testref::referenceDiff(ref, sub), want,
                              what + ": diff");
    testref::expectSameReport(want, bound.diff(), what + ": bound");
    return want;
}

/**
 * Recording sink for the restore test: a light snapshot at every
 * in-run gated store and commit while armed — the explorer's decision
 * points — and otherwise a plain journaled store.
 */
class SnapEveryEvent : public mem::AccessSink
{
  public:
    explicit SnapEveryEvent(board::Board &board) : board_(board) {}

    void disarm() { armed_ = false; }
    const std::vector<board::Snapshot> &snaps() const { return snaps_; }

    void powerOn() override { started_ = true; }
    void commit() override { hit(); }

    void
    store(mem::StoreSite, void *dst, const void *src,
          std::uint32_t bytes) override
    {
        hit();
        mem::journalNote(dst, bytes);
        std::memcpy(dst, src, bytes);
    }

  private:
    void
    hit()
    {
        if (!armed_ || !started_)
            return;
        snaps_.emplace_back();
        board_.snapshot(snaps_.back(), /*withFiber=*/false);
    }

    board::Board &board_;
    bool armed_ = true;
    bool started_ = false;
    std::vector<board::Snapshot> snaps_;
};

} // namespace

// ---- snapshot / restore round-trips ----------------------------------------

TEST(SnapshotRoundTrip, ResumeAtStoreKMatchesFromScratchOnEveryPair)
{
    const fault::CampaignConfig cfg = smallConfig();
    for (const fault::PairSpec &spec : fault::campaignPairs(cfg)) {
        SCOPED_TRACE(spec.app + "/" + spec.runtime);

        // From-scratch baseline: no sink, no journal.
        RunTrace base;
        {
            board::BoardConfig bcfg;
            bcfg.seed = cfg.seed;
            board::Board board(
                bcfg, std::make_unique<energy::ContinuousSupply>(),
                std::make_unique<timekeeper::PerfectTimekeeper>());
            harness::ScenarioInstance env = spec.make(board);
            board.beginRun(*env.runtime, env.entry, cfg.budget);
            base = traceOf(board, env, board.continueRun());
            ASSERT_TRUE(base.res.completed);
        }

        // Instrumented run: snapshot at the 2nd gated store, finish,
        // then rewind to the snapshot and finish again.
        board::BoardConfig bcfg;
        bcfg.seed = cfg.seed;
        board::Board board(
            bcfg, std::make_unique<energy::ContinuousSupply>(),
            std::make_unique<timekeeper::PerfectTimekeeper>());
        SnapAtEvent sink(board, 2);
        mem::ScopedSink as(&sink);
        harness::ScenarioInstance env = spec.make(board);
        mem::WriteJournal journal;
        mem::ScopedWriteJournal sj(&journal);

        board.beginRun(*env.runtime, env.entry, cfg.budget);
        const RunTrace first = traceOf(board, env, board.continueRun());
        // Host-side observation (sink + journal) must be free:
        // the instrumented run is the baseline run.
        expectSameRun(base, first, "instrumented vs baseline");
        ASSERT_TRUE(sink.captured());

        board.restore(sink.snap());
        const RunTrace second = traceOf(board, env, board.continueRun());
        expectSameRun(base, second, "restored vs baseline");
    }
}

TEST(SnapshotRoundTrip, RepeatedRestoreFromOneSnapshotIsIdempotent)
{
    const fault::CampaignConfig cfg = smallConfig();
    const fault::PairSpec spec = findPair(cfg, "BC", "TICS");

    board::BoardConfig bcfg;
    bcfg.seed = cfg.seed;
    board::Board board(bcfg,
                       std::make_unique<energy::ContinuousSupply>(),
                       std::make_unique<timekeeper::PerfectTimekeeper>());
    SnapAtEvent sink(board, 3);
    mem::ScopedSink as(&sink);
    harness::ScenarioInstance env = spec.make(board);
    mem::WriteJournal journal;
    mem::ScopedWriteJournal sj(&journal);

    board.beginRun(*env.runtime, env.entry, cfg.budget);
    const RunTrace first = traceOf(board, env, board.continueRun());
    ASSERT_TRUE(sink.captured());

    // The same snapshot must replay identically any number of times —
    // the journal undo is a stack, not a one-shot.
    board.restore(sink.snap());
    const RunTrace second = traceOf(board, env, board.continueRun());
    board.restore(sink.snap());
    const RunTrace third = traceOf(board, env, board.continueRun());
    expectSameRun(first, second, "first replay");
    expectSameRun(first, third, "second replay");
}

// ---- fork determinism and isolation ----------------------------------------

TEST(ForkDeterminism, ConcurrentExplorationsShareNoState)
{
    // Two boards exploring concurrently on two threads: the NV port's
    // sink and write journal are thread-local, so each walk must
    // produce exactly what it produces alone.
    fault::ExploreConfig cfg;
    cfg.base = smallConfig();
    const fault::PairSpec tics = findPair(cfg.base, "BC", "TICS");
    const fault::PairSpec plain = findPair(cfg.base, "BC", "plain-C");

    const fault::PairExploreResult ticsAlone =
        fault::explorePair(cfg, tics);
    const fault::PairExploreResult plainAlone =
        fault::explorePair(cfg, plain);

    fault::PairExploreResult ticsConc, plainConc;
    std::thread t1(
        [&] { ticsConc = fault::explorePair(cfg, tics); });
    std::thread t2(
        [&] { plainConc = fault::explorePair(cfg, plain); });
    t1.join();
    t2.join();

    const auto expectSame = [](const fault::PairExploreResult &a,
                               const fault::PairExploreResult &b) {
        EXPECT_EQ(a.decisionPoints, b.decisionPoints);
        EXPECT_EQ(a.branchesTaken, b.branchesTaken);
        EXPECT_EQ(a.statesExplored, b.statesExplored);
        EXPECT_EQ(a.exhausted, b.exhausted);
        ASSERT_EQ(a.violations.size(), b.violations.size());
        for (std::size_t i = 0; i < a.violations.size(); ++i) {
            EXPECT_EQ(a.violations[i].plan, b.violations[i].plan);
            EXPECT_EQ(a.violations[i].kind, b.violations[i].kind);
        }
    };
    expectSame(ticsAlone, ticsConc);
    expectSame(plainAlone, plainConc);
}

TEST(ForkDeterminism, ShardCountDoesNotChangeTheExploration)
{
    fault::ExploreConfig serial;
    serial.base = smallConfig();
    serial.jobs = 1;
    fault::ExploreConfig sharded = serial;
    sharded.jobs = 3;

    const fault::PairSpec spec =
        findPair(serial.base, "BC", "plain-C");
    const fault::PairExploreResult a = fault::explorePair(serial, spec);
    const fault::PairExploreResult b = fault::explorePair(sharded, spec);

    EXPECT_EQ(a.decisionPoints, b.decisionPoints);
    EXPECT_EQ(a.branchesTaken, b.branchesTaken);
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.confirmedViolations, b.confirmedViolations);
    ASSERT_EQ(a.violations.size(), b.violations.size());
    for (std::size_t i = 0; i < a.violations.size(); ++i)
        EXPECT_EQ(a.violations[i].plan, b.violations[i].plan);
}

// ---- the exhaustive explorer -----------------------------------------------

TEST(ExploreSplit, ProtectedPairIsExhaustedWithZeroViolations)
{
    fault::ExploreConfig cfg;
    cfg.base = smallConfig();
    cfg.jobs = 2;
    const fault::PairExploreResult r =
        fault::explorePair(cfg, findPair(cfg.base, "BC", "TICS"));

    EXPECT_TRUE(r.refCompleted);
    EXPECT_TRUE(r.recordingConsistent);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.frontierCutoffs, 0u);
    EXPECT_GT(r.decisionPoints, 0u);
    EXPECT_GE(r.statesExplored, r.decisionPoints);
    EXPECT_EQ(r.confirmedViolations, 0u);
}

TEST(ExploreSplit, PlainCViolationsAreFoundAndConfirmed)
{
    fault::ExploreConfig cfg;
    cfg.base = smallConfig();
    cfg.jobs = 2;
    const fault::PairExploreResult r =
        fault::explorePair(cfg, findPair(cfg.base, "BC", "plain-C"));

    EXPECT_TRUE(r.exhausted);
    EXPECT_GT(r.confirmedViolations, 0u);
    for (const auto &v : r.violations) {
        EXPECT_TRUE(v.confirmed) << v.plan;
        EXPECT_FALSE(v.kind.empty()) << v.plan;
        // Every reported plan must round-trip through the grammar
        // ticsfault --replay accepts.
        fault::FaultPlan p;
        std::string err;
        EXPECT_TRUE(fault::FaultPlan::parse(v.plan, p, &err))
            << v.plan << ": " << err;
    }
}

TEST(ExploreSplit, FrontierCapForfeitsExhaustionHonestly)
{
    fault::ExploreConfig cfg;
    cfg.base = smallConfig();
    cfg.maxDecisions = 2; // keep only the two latest decisions
    const fault::PairExploreResult r =
        fault::explorePair(cfg, findPair(cfg.base, "BC", "plain-C"));

    EXPECT_GT(r.frontierCutoffs, 0u);
    EXPECT_FALSE(r.exhausted);
}

// ---- ddmin via fork --------------------------------------------------------

TEST(ForkShrink, SameMinimalPlanAsFromBootButCheaper)
{
    const fault::CampaignConfig cfg = smallConfig();
    const fault::PairSpec spec = findPair(cfg, "BC", "plain-C");

    const fault::PairRunOutcome ref =
        fault::runPairWithPlan(cfg, spec, fault::FaultPlan{}, true);
    ASSERT_TRUE(ref.res.completed);

    // A known violating tear padded with a harmless absolute cut far
    // past the end of the run: ddmin must strip the cut and keep the
    // tear. The never-firing cut leaves the fork recorder free to
    // snapshot right up to the torn store, so the fork savings are
    // visible; a boot-anchored pad would force every evaluation back
    // to from-boot (occurrence 1 is behind any post-boot snapshot).
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(
        "cut@t:999000000000;tear@store:3/prefix:0;off:12000000", plan,
        &err))
        << err;
    const fault::PairRunOutcome sub =
        fault::runPairWithPlan(cfg, spec, plan, false);
    const fault::Classification cls = fault::classifyOutcome(ref, sub);
    ASSERT_FALSE(cls.kind.empty());

    const fault::Violation fromBoot =
        fault::shrinkViolationFromBoot(cfg, spec, ref, plan, cls);
    const fault::Violation forked =
        fault::forkShrinkViolation(cfg, spec, ref, plan, cls);

    EXPECT_TRUE(fromBoot.replayVerified);
    EXPECT_TRUE(forked.replayVerified);
    EXPECT_EQ(forked.plan, fromBoot.plan);
    EXPECT_EQ(forked.kind, fromBoot.kind);
    // The point of forking: evaluating candidates from a mid-run
    // snapshot simulates strictly fewer cycles than from-boot reruns.
    EXPECT_GT(fromBoot.shrinkCycles, 0u);
    EXPECT_LT(forked.shrinkCycles, fromBoot.shrinkCycles);
}

TEST(ForkShrink, CampaignForkShrinkMatchesFromBootCampaign)
{
    // End to end: the sampling campaign run with fork-based shrinking
    // must report exactly the same minimized schedules as the default
    // from-boot shrinker.
    fault::CampaignConfig cfg = smallConfig();
    cfg.randomSchedules = 2;
    fault::CampaignConfig forked = cfg;
    forked.forkShrink = true;

    const fault::CampaignReport a = fault::runCampaign(cfg);
    const fault::CampaignReport b = fault::runCampaign(forked);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
        ASSERT_EQ(a.pairs[i].found.size(), b.pairs[i].found.size())
            << a.pairs[i].app << "/" << a.pairs[i].runtime;
        for (std::size_t j = 0; j < a.pairs[i].found.size(); ++j)
            EXPECT_EQ(a.pairs[i].found[j].plan,
                      b.pairs[i].found[j].plan);
    }
}

// ---- the bound replay reference on real arenas -----------------------------

TEST(BoundReference, MatchesCaptureAfterFaultPlansOnEveryPair)
{
    // Every pair at the sizes ticsmc and hostbench explore, run from
    // boot under seeded plans: a cut at the first, two random and the
    // last occurrence of every boundary kind, and every tear mode at
    // three random occurrences of every store site.
    const fault::CampaignConfig cfg = smallConfig();
    const auto filter = analysis::ReplayOracle::appStateFilter();
    Rng rng(cfg.seed);
    std::uint64_t runs = 0, divergentRuns = 0;
    for (const fault::PairSpec &spec : fault::campaignPairs(cfg)) {
        const std::string pair = spec.app + "/" + spec.runtime;
        const fault::PairRunOutcome ref =
            fault::runPairWithPlan(cfg, spec, fault::FaultPlan{}, true);
        ASSERT_TRUE(ref.res.completed) << pair;

        std::vector<fault::FaultPlan> plans;
        const auto pick = [&](std::uint64_t count) {
            return 1 + rng.below(count);
        };
        for (int b = 0; b < fault::kBoundaryCount; ++b) {
            const std::uint64_t n = ref.census.boundary[b];
            if (n == 0)
                continue;
            for (const std::uint64_t occ :
                 {std::uint64_t{1}, pick(n), pick(n), n}) {
                fault::FaultPlan p;
                p.offNs = cfg.offNs;
                fault::PowerCut c;
                c.boundary = static_cast<fault::Boundary>(b);
                c.occurrence = occ;
                p.cuts.push_back(c);
                plans.push_back(p);
            }
        }
        for (int site = 0; site < mem::kStoreSiteCount; ++site) {
            const std::uint64_t n = ref.census.stores[site];
            if (n == 0)
                continue;
            for (int k = 0; k < 9; ++k) {
                fault::FaultPlan p;
                p.offNs = cfg.offNs;
                fault::TornWrite t;
                t.site = static_cast<mem::StoreSite>(site);
                t.occurrence = pick(n);
                t.mode = static_cast<fault::TearMode>(k % 3);
                t.keepBytes = static_cast<std::uint32_t>(
                    rng.below(ref.census.maxStoreBytes[site] + 1));
                p.tears.push_back(t);
                plans.push_back(p);
            }
        }

        for (const fault::FaultPlan &plan : plans) {
            board::BoardConfig bcfg;
            bcfg.seed = cfg.seed;
            auto supply = std::make_unique<fault::FaultedSupply>(
                std::make_unique<energy::ContinuousSupply>(), plan.offNs);
            fault::FaultedSupply *sup = supply.get();
            board::Board board(
                bcfg, std::move(supply),
                std::make_unique<timekeeper::PerfectTimekeeper>());
            fault::FaultInjector inj(board, *sup, plan, false);
            mem::ScopedSink as(&inj);
            harness::ScenarioInstance env = spec.make(board);
            board.beginRun(*env.runtime, env.entry, cfg.budget);
            const analysis::BoundReference bound =
                analysis::ReplayOracle::bind(ref.snap, board.nvram(), filter);
            board.continueRun();
            const analysis::ReplayReport r = expectBoundMatchesCapture(
                bound, ref.snap, board, pair + " " + plan.format());
            ++runs;
            if (r.divergentBytes > 0)
                ++divergentRuns;
        }
    }
    // The comparison must have been exercised on diverging arenas.
    EXPECT_GT(runs, 150u);
    EXPECT_GT(divergentRuns, 10u);
}

TEST(BoundReference, OneBindingSurvivesRestoresOnEveryPair)
{
    // As the explorer uses it: bound once per board, then restored to
    // each recorded decision point newest-first, killed there, and
    // compared after every continuation.
    const fault::CampaignConfig cfg = smallConfig();
    std::uint64_t leaves = 0, divergentLeaves = 0;
    for (const fault::PairSpec &spec : fault::campaignPairs(cfg)) {
        const std::string pair = spec.app + "/" + spec.runtime;
        const fault::PairRunOutcome ref =
            fault::runPairWithPlan(cfg, spec, fault::FaultPlan{}, true);
        ASSERT_TRUE(ref.res.completed) << pair;

        board::BoardConfig bcfg;
        bcfg.seed = cfg.seed;
        auto supply = std::make_unique<fault::FaultedSupply>(
            std::make_unique<energy::ContinuousSupply>(), cfg.offNs);
        fault::FaultedSupply *sup = supply.get();
        board::Board board(bcfg, std::move(supply),
                           std::make_unique<timekeeper::PerfectTimekeeper>());
        SnapEveryEvent sink(board);
        mem::ScopedSink as(&sink);
        harness::ScenarioInstance env = spec.make(board);
        mem::WriteJournal journal;
        mem::ScopedWriteJournal sj(&journal);
        board.beginRun(*env.runtime, env.entry, cfg.budget);
        const analysis::BoundReference bound = analysis::ReplayOracle::bind(
            ref.snap, board.nvram(), analysis::ReplayOracle::appStateFilter());
        board.continueRun();
        sink.disarm();
        EXPECT_TRUE(
            expectBoundMatchesCapture(bound, ref.snap, board, pair + " clean")
                .clean());
        ASSERT_GT(sink.snaps().size(), 0u) << pair;

        for (std::size_t i = sink.snaps().size(); i-- > 0;) {
            board.restore(sink.snaps()[i]);
            sup->noteForcedDeath();
            board.markInjectedDeath();
            board.continueRun();
            const analysis::ReplayReport r = expectBoundMatchesCapture(
                bound, ref.snap, board,
                pair + " death at event " + std::to_string(i));
            ++leaves;
            if (r.divergentBytes > 0)
                ++divergentLeaves;
        }
    }
    EXPECT_GT(leaves, 200u);
    EXPECT_GT(divergentLeaves, 10u);
}
