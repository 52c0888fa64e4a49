#include "explore.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <utility>

#include "board/runtime.hpp"
#include "mem/journal.hpp"
#include "support/logging.hpp"
#include "sweep/job_pool.hpp"
#include "timekeeper/timekeeper.hpp"

namespace ticsim::fault {

namespace {

// ---- the explorer ----------------------------------------------------------

/**
 * One forkable point discovered by a recording pass: a boundary event
 * (branch: die here) or a gated NV store (branches: land each distinct
 * torn image, then die). Carries the light snapshot to restore, the
 * sink census to reseed, and — for stores — the source bytes, because
 * the caller's src pointer is dead by the time the branch runs.
 */
struct Decision {
    bool isStore = false;
    Boundary boundary = Boundary::Boot;
    mem::StoreSite site = mem::StoreSite::AppGlobal;
    std::uint64_t occurrence = 0; ///< ordinal this branch's atom targets
    std::uint32_t bytes = 0;
    void *dst = nullptr;
    std::vector<std::uint8_t> src;
    /** Sink census to reseed on restore: for boundaries *after* the
     *  event was counted (the cut atom targets the count as-of here);
     *  for stores *before* (the branch itself replays the count). */
    EventCensus counters{};
    board::Snapshot snap{};
};

using Frame = std::vector<Decision>;

/**
 * Recording-pass sink: counts events exactly like FaultInjector (same
 * started_ gating, construction stores excluded) and, while a frame is
 * armed, records a Decision with a light snapshot per countable event.
 * Its store() lands gated stores during exploration — with journaling,
 * so restore() can roll them back.
 */
class ExploreSink : public mem::AccessSink
{
  public:
    explicit ExploreSink(board::Board &board) : board_(board) {}

    void beginRecording(Frame *frame) { frame_ = frame; }
    void stopRecording() { frame_ = nullptr; }

    EventCensus &census() { return census_; }
    void setCensus(const EventCensus &c) { census_ = c; }

    // AccessSink
    void
    powerOn() override
    {
        started_ = true;
        note(Boundary::Boot);
    }

    void commit() override { note(Boundary::CommitEnd); }

    void
    sideEvent(const mem::SideEvent &ev) override
    {
        if (const auto b = boundaryOf(ev.kind))
            note(*b);
    }

    void
    store(mem::StoreSite site, void *dst, const void *src,
          std::uint32_t bytes) override
    {
        if (!started_) {
            // Programming-time stores: outside the fault universe.
            std::memcpy(dst, src, bytes);
            return;
        }
        const int s = static_cast<int>(site);
        if (frame_ != nullptr) {
            Decision d;
            d.isStore = true;
            d.site = site;
            d.occurrence = census_.stores[s] + 1;
            d.bytes = bytes;
            d.dst = dst;
            d.src.assign(static_cast<const std::uint8_t *>(src),
                         static_cast<const std::uint8_t *>(src) + bytes);
            d.counters = census_;
            board_.snapshot(d.snap, /*withFiber=*/false);
            frame_->push_back(std::move(d));
        }
        ++census_.stores[s];
        mem::journalNote(dst, bytes);
        std::memcpy(dst, src, bytes);
    }

  private:
    void
    note(Boundary b)
    {
        ++census_.boundary[static_cast<int>(b)];
        if (frame_ == nullptr)
            return;
        Decision d;
        d.boundary = b;
        d.occurrence = census_.boundary[static_cast<int>(b)];
        d.counters = census_;
        board_.snapshot(d.snap, /*withFiber=*/false);
        frame_->push_back(std::move(d));
    }

    board::Board &board_;
    Frame *frame_ = nullptr;
    EventCensus census_{};
    bool started_ = false;
};

/** One branch of a decision's local fault alphabet, as a plan atom. */
struct BranchAtom {
    bool isTear = false;
    Boundary boundary = Boundary::Boot;
    mem::StoreSite site = mem::StoreSite::AppGlobal;
    std::uint64_t occurrence = 0;
    TearMode mode = TearMode::Prefix;
    std::uint32_t keepBytes = 0;
};

/**
 * The local alphabet. A boundary forks one branch: die here. A store
 * of n bytes forks the distinct torn images the injector's tear modes
 * can produce — nothing landed, half landed, a garbled tail, word
 * interleaving — each followed by death, deduplicated by (mode, keep).
 */
std::vector<BranchAtom>
branchesOf(const Decision &d)
{
    std::vector<BranchAtom> out;
    if (!d.isStore) {
        BranchAtom a;
        a.boundary = d.boundary;
        a.occurrence = d.occurrence;
        out.push_back(a);
        return out;
    }
    const auto add = [&](TearMode m, std::uint32_t keep) {
        for (const auto &b : out)
            if (b.mode == m && b.keepBytes == keep)
                return;
        BranchAtom a;
        a.isTear = true;
        a.site = d.site;
        a.occurrence = d.occurrence;
        a.mode = m;
        a.keepBytes = keep;
        out.push_back(a);
    };
    const std::uint32_t n = d.bytes;
    add(TearMode::Prefix, 0);
    if (n / 2 > 0)
        add(TearMode::Prefix, n / 2);
    if (n > 0)
        add(TearMode::GarbageTail, std::min<std::uint32_t>(4, n / 2));
    if (n > 4)
        add(TearMode::Interleaved, n / 2);
    return out;
}

void
atomInto(const BranchAtom &a, FaultPlan &p)
{
    if (a.isTear) {
        TornWrite t;
        t.site = a.site;
        t.occurrence = a.occurrence;
        t.mode = a.mode;
        t.keepBytes = a.keepBytes;
        p.tears.push_back(t);
    } else {
        PowerCut c;
        c.absolute = false;
        c.boundary = a.boundary;
        c.occurrence = a.occurrence;
        c.delayNs = 0;
        p.cuts.push_back(c);
    }
}

/** A violating leaf, pending cross-shard dedup and confirmation. */
struct PendingViolation {
    FaultPlan plan;
    std::string planStr;
    std::string kind;
    std::uint64_t divergentBytes = 0;
};

struct ShardStats {
    bool recordingConsistent = true;
    std::uint64_t decisionPoints = 0; ///< identical across shards
    std::uint64_t branchesTaken = 0;
    std::uint64_t statesExplored = 0;
    std::uint64_t frontierCutoffs = 0;
    std::vector<PendingViolation> viols;
};

/**
 * Bind the pair's reference to @p board's arena. Call after
 * beginRun(): runtimes allocate their regions when they attach.
 */
analysis::BoundReference
bindReference(const PairRunOutcome &ref, board::Board &board)
{
    return analysis::ReplayOracle::bind(
        ref.snap, board.nvram(), analysis::ReplayOracle::appStateFilter());
}

/** A leaf's verdict: the app's verify(), then the live arena diffed in
 *  place against the bound reference. */
Classification
judgeLeaf(const analysis::BoundReference &oracle,
          const harness::ScenarioInstance &env,
          const board::RunResult &res)
{
    const bool verified = env.verify();
    return classify(oracle.diff(), res, verified);
}

/**
 * One shard's walk: own Board, own recording pass (identical in every
 * shard), then the reverse-index branch loop over the decisions this
 * shard owns. Decisions must be restored newest-first — write-journal
 * marks only roll backward — which the reverse walk guarantees at
 * every depth.
 */
class ShardWalker
{
  public:
    ShardWalker(const ExploreConfig &cfg, const PairSpec &spec,
                const PairRunOutcome &ref, unsigned shard,
                unsigned shardCount)
        : cfg_(cfg), spec_(spec), ref_(ref), shard_(shard),
          shards_(shardCount)
    {
    }

    ShardStats
    run()
    {
        board::BoardConfig bcfg;
        bcfg.seed = cfg_.base.seed;
        auto supply = std::make_unique<FaultedSupply>(
            std::make_unique<energy::ContinuousSupply>(), cfg_.base.offNs);
        sup_ = supply.get();
        board::Board board(bcfg, std::move(supply),
                           std::make_unique<timekeeper::PerfectTimekeeper>());
        board_ = &board;
        ExploreSink sink(board);
        sink_ = &sink;
        mem::ScopedSink as(&sink);
        harness::ScenarioInstance env = spec_.make(board);
        env_ = &env;
        mem::WriteJournal journal;
        mem::ScopedWriteJournal sj(&journal);

        board.beginRun(*env.runtime, env.entry, cfg_.base.budget);
        const analysis::BoundReference oracle = bindReference(ref_, board);
        oracle_ = &oracle;
        Frame top;
        sink.beginRecording(&top);
        const board::RunResult cleanRes = board.continueRun();
        sink.stopRecording();

        // The fault-free recording pass must be the reference run.
        if (!judgeLeaf(oracle, env, cleanRes).kind.empty()) {
            st_.recordingConsistent = false;
            return st_;
        }

        st_.decisionPoints = top.size();
        walkFrame(top, cfg_.maxFaults - 1, /*sharded=*/true);
        return st_;
    }

  private:
    void
    walkFrame(const Frame &frame, std::uint32_t depthLeft, bool sharded)
    {
        // The frontier cap keeps the *latest* decisions: the earliest
        // ones sit a few events past boot, where sampling campaigns
        // already reach cheaply.
        std::size_t lo = 0;
        if (cfg_.maxDecisions != 0 && frame.size() > cfg_.maxDecisions)
            lo = frame.size() - cfg_.maxDecisions;
        for (std::size_t i = frame.size(); i-- > 0;) {
            if (sharded && i % shards_ != shard_)
                continue;
            if (i < lo) {
                ++st_.frontierCutoffs;
                continue;
            }
            exploreDecision(frame[i], depthLeft);
        }
    }

    void
    exploreDecision(const Decision &d, std::uint32_t depthLeft)
    {
        for (const BranchAtom &a : branchesOf(d)) {
            board_->restore(d.snap);
            sink_->setCensus(d.counters);
            ++st_.branchesTaken;
            if (a.isTear) {
                // The torn store happens — counted, journaled, landed
                // torn — and the lights go out on it.
                ++sink_->census().stores[static_cast<int>(d.site)];
                TornWrite t;
                t.site = a.site;
                t.occurrence = a.occurrence;
                t.mode = a.mode;
                t.keepBytes = a.keepBytes;
                mem::journalNote(d.dst, d.bytes);
                applyTornStore(t, d.dst, d.src.data(), d.bytes);
            }
            sup_->noteForcedDeath();
            board_->markInjectedDeath();
            path_.push_back(a);
            if (depthLeft == 0) {
                classifyLeaf(board_->continueRun());
            } else {
                Frame sub;
                sink_->beginRecording(&sub);
                const board::RunResult res = board_->continueRun();
                sink_->stopRecording();
                classifyLeaf(res);
                walkFrame(sub, depthLeft - 1, /*sharded=*/false);
            }
            path_.pop_back();
        }
    }

    void
    classifyLeaf(const board::RunResult &res)
    {
        ++st_.statesExplored;
        const Classification c = judgeLeaf(*oracle_, *env_, res);
        if (c.kind.empty())
            return;
        PendingViolation pv;
        pv.plan.offNs = cfg_.base.offNs;
        for (const BranchAtom &a : path_)
            atomInto(a, pv.plan);
        pv.planStr = pv.plan.format();
        pv.kind = c.kind;
        pv.divergentBytes = c.divergentBytes;
        st_.viols.push_back(std::move(pv));
    }

    const ExploreConfig &cfg_;
    const PairSpec &spec_;
    const PairRunOutcome &ref_;
    unsigned shard_;
    unsigned shards_;
    board::Board *board_ = nullptr;
    FaultedSupply *sup_ = nullptr;
    ExploreSink *sink_ = nullptr;
    harness::ScenarioInstance *env_ = nullptr;
    const analysis::BoundReference *oracle_ = nullptr;
    std::vector<BranchAtom> path_;
    ShardStats st_;
};

// ---- the fork shrinker -----------------------------------------------------

/**
 * Recording-side sink of forkShrinkViolation(): counts the census the
 * same way FaultInjector does and keeps re-capturing a full (fiber)
 * snapshot at every countable event, as long as every atom of the
 * target plan still lies ahead of it. The *last* capture wins: the
 * latest point from which any subset of the target plan can still
 * fire, so forked evaluations execute the shortest possible suffix.
 *
 * The capture runs inside this sink's own stack frames; when an
 * evaluation restores the snapshot, execution resumes here (capture
 * returns false), falls through the store tail — journal note plus
 * memcpy, now under the evaluation's injector — and returns to the
 * runtime as if the recording run had never stopped.
 */
class ShrinkRecorder : public mem::AccessSink
{
  public:
    ShrinkRecorder(board::Board &board, const FaultPlan &target)
        : board_(board), target_(&target)
    {
    }

    void disarm() { arming_ = false; }
    bool haveSnap() const { return haveSnap_; }
    const board::Snapshot &snap() const { return snap_; }
    const InjectorState &stateAt() const { return state0_; }

    /** Can a forked evaluation of @p p start from the snapshot — i.e.
     *  does every one of its atoms still lie ahead of it? */
    bool
    planSafeFrom(const FaultPlan &p) const
    {
        if (!haveSnap_)
            return false;
        for (const auto &c : p.cuts) {
            if (c.absolute) {
                if (snap_.now >= c.atNs)
                    return false;
            } else if (state0_.census.boundary[static_cast<int>(
                           c.boundary)] >= c.occurrence) {
                return false;
            }
        }
        for (const auto &t : p.tears)
            if (state0_.census.stores[static_cast<int>(t.site)] >=
                t.occurrence)
                return false;
        for (const auto &f : p.flips)
            if (state0_.boots >= f.outageIndex + 1)
                return false;
        return true;
    }

    // AccessSink
    void
    powerOn() override
    {
        started_ = true;
        ++boots_;
        ++census_.boundary[static_cast<int>(Boundary::Boot)];
        maybeCaptureBoot();
    }

    void
    commit() override
    {
        count(Boundary::CommitEnd);
    }

    void
    sideEvent(const mem::SideEvent &ev) override
    {
        if (const auto b = boundaryOf(ev.kind))
            count(*b);
    }

    void
    store(mem::StoreSite site, void *dst, const void *src,
          std::uint32_t bytes) override
    {
        if (!started_) {
            std::memcpy(dst, src, bytes);
            return;
        }
        ++census_.stores[static_cast<int>(site)];
        maybeCaptureFiber();
        // Resumed evaluations re-enter above and complete the store
        // here, under their own injector and journal epoch.
        mem::journalNote(dst, bytes);
        std::memcpy(dst, src, bytes);
    }

  private:
    void
    count(Boundary b)
    {
        ++census_.boundary[static_cast<int>(b)];
        maybeCaptureFiber();
    }

    void
    maybeCaptureFiber()
    {
        if (!checkArmed())
            return;
        if (!board_.ctx().inside())
            return; // scheduler-side event; boot capture covers those
        if (!board_.snapshot(snap_, /*withFiber=*/true))
            return; // resume path of a forked evaluation
        recordState();
    }

    void
    maybeCaptureBoot()
    {
        if (!checkArmed())
            return;
        // This callback fires from traceBoot(), before the run loop
        // emits the Boot event — so the captured ring mark excludes it
        // and the phase is patched to BootNoTrace: the resumed loop
        // emits the event exactly once and never re-announces the boot
        // to the (then different) sink.
        board_.snapshot(snap_, /*withFiber=*/false);
        snap_.phase = board::RunPhase::BootNoTrace;
        recordState();
    }

    /** Safety is monotone — census and clock only grow — so the first
     *  unsafe event disarms capturing for good. */
    bool
    checkArmed()
    {
        if (!arming_)
            return false;
        for (const auto &c : target_->cuts) {
            if (c.absolute) {
                if (board_.now() >= c.atNs)
                    arming_ = false;
            } else if (census_.boundary[static_cast<int>(c.boundary)] >=
                       c.occurrence) {
                arming_ = false;
            }
        }
        for (const auto &t : target_->tears)
            if (census_.stores[static_cast<int>(t.site)] >= t.occurrence)
                arming_ = false;
        for (const auto &f : target_->flips)
            if (boots_ >= f.outageIndex + 1)
                arming_ = false;
        return arming_;
    }

    void
    recordState()
    {
        state0_.census = census_;
        state0_.started = started_;
        state0_.boots = boots_;
        haveSnap_ = true;
    }

    board::Board &board_;
    const FaultPlan *target_;
    bool arming_ = true;
    bool haveSnap_ = false;
    bool started_ = false;
    std::uint64_t boots_ = 0;
    EventCensus census_{};
    board::Snapshot snap_{};
    InjectorState state0_{};
};

} // namespace

// ---- public API ------------------------------------------------------------

PairExploreResult
explorePair(const ExploreConfig &cfg, const PairSpec &spec)
{
    PairExploreResult out;
    out.app = spec.app;
    out.runtime = spec.runtime;
    if (!spec.scenario)
        fatal("explore: pair '%s/%s' has no scenario", spec.app.c_str(),
              spec.runtime.c_str());
    out.isProtected = spec.scenario->isProtected;
    if (cfg.maxFaults == 0)
        fatal("explore: maxFaults must be at least 1");

    const PairRunOutcome ref =
        runPairWithPlan(cfg.base, spec, FaultPlan{}, /*observe=*/true);
    out.refCompleted = ref.res.completed;
    if (!out.refCompleted)
        return out;

    const unsigned shards = std::max(1u, cfg.jobs);
    std::vector<ShardStats> stats(shards);
    sweep::JobPool pool(shards);
    pool.run(shards, [&](std::size_t s) {
        ShardWalker w(cfg, spec, ref, static_cast<unsigned>(s), shards);
        stats[s] = w.run();
    });

    for (const ShardStats &s : stats) {
        out.recordingConsistent =
            out.recordingConsistent && s.recordingConsistent;
        out.decisionPoints = std::max(out.decisionPoints, s.decisionPoints);
        out.branchesTaken += s.branchesTaken;
        out.statesExplored += s.statesExplored;
        out.frontierCutoffs += s.frontierCutoffs;
    }
    out.exhausted = out.recordingConsistent && out.frontierCutoffs == 0;

    // Merge shards deterministically: every distinct plan once, in
    // plan-string order (shard assignment only changes who found it).
    std::vector<PendingViolation> all;
    for (ShardStats &s : stats)
        for (PendingViolation &pv : s.viols)
            all.push_back(std::move(pv));
    std::sort(all.begin(), all.end(),
              [](const PendingViolation &a, const PendingViolation &b) {
                  return a.planStr < b.planStr;
              });
    all.erase(std::unique(all.begin(), all.end(),
                          [](const PendingViolation &a,
                             const PendingViolation &b) {
                              return a.planStr == b.planStr;
                          }),
              all.end());

    // Confirm each survivor through the real from-boot injector, and
    // ddmin multi-fault schedules down to minimal form (via fork).
    std::set<std::string> reported;
    for (const PendingViolation &pv : all) {
        const PairRunOutcome sub =
            runPairWithPlan(cfg.base, spec, pv.plan, /*observe=*/false);
        const Classification c = classifyOutcome(ref, sub);
        ExploredViolation ev;
        ev.foundAs = pv.planStr;
        ev.plan = pv.planStr;
        ev.kind = pv.kind;
        ev.divergentBytes = pv.divergentBytes;
        ev.confirmed = !c.kind.empty();
        if (ev.confirmed) {
            ev.kind = c.kind;
            ev.divergentBytes = c.divergentBytes;
            if (pv.plan.atomCount() > 1) {
                const Violation v =
                    forkShrinkViolation(cfg.base, spec, ref, pv.plan, c);
                if (v.replayVerified) {
                    ev.plan = v.plan;
                    ev.kind = v.kind;
                    ev.divergentBytes = v.divergentBytes;
                }
            }
        }
        if (!reported.insert(ev.plan + "|" + (ev.confirmed ? "c" : "u"))
                 .second)
            continue; // two schedules minimized to the same plan
        if (ev.confirmed)
            ++out.confirmedViolations;
        out.violations.push_back(std::move(ev));
    }
    return out;
}

ExploreReport
exploreMatrix(const ExploreConfig &cfg, const std::vector<PairSpec> &specs)
{
    ExploreReport report;
    report.maxFaults = cfg.maxFaults;
    for (const PairSpec &spec : specs)
        report.pairs.push_back(explorePair(cfg, spec));
    return report;
}

bool
ExploreReport::ok() const
{
    if (pairs.empty())
        return false;
    for (const auto &p : pairs) {
        if (!p.refCompleted || !p.recordingConsistent)
            return false;
        if (p.isProtected && p.confirmedViolations > 0)
            return false;
        if (!p.isProtected && p.exhausted && p.confirmedViolations == 0)
            return false;
    }
    return true;
}

Violation
forkShrinkViolation(const CampaignConfig &cfg, const PairSpec &spec,
                    const PairRunOutcome &ref, const FaultPlan &original,
                    const Classification &firstSeen)
{
    if (!spec.scenario)
        fatal("explore: pair '%s/%s' has no scenario", spec.app.c_str(),
              spec.runtime.c_str());

    // Recording pass: one fault-free run — the common prefix of every
    // ddmin candidate — capturing the latest snapshot from which all
    // of the original plan's atoms still lie ahead.
    board::BoardConfig bcfg;
    bcfg.seed = cfg.seed;
    auto supply = std::make_unique<FaultedSupply>(
        std::make_unique<energy::ContinuousSupply>(), original.offNs);
    FaultedSupply *sup = supply.get();
    board::Board board(bcfg, std::move(supply),
                       std::make_unique<timekeeper::PerfectTimekeeper>());
    ShrinkRecorder rec(board, original);
    mem::ScopedSink as(&rec);
    harness::ScenarioInstance env = spec.make(board);
    mem::WriteJournal journal;
    mem::ScopedWriteJournal sj(&journal);
    board.beginRun(*env.runtime, env.entry, cfg.budget);
    const analysis::BoundReference oracle = bindReference(ref, board);
    board.continueRun();
    rec.disarm();

    FaultInjector inj(board, *sup, original, /*observeOnly=*/false);

    const PlanEval eval = [&](const FaultPlan &p) -> PlanProbe {
        PlanProbe probe;
        if (!rec.planSafeFrom(p)) {
            // Absolutized confirmation plans (or a capture that never
            // happened) fall back to a full from-boot evaluation.
            const PairRunOutcome sub =
                runPairWithPlan(cfg, spec, p, /*observe=*/false);
            probe.cls = classifyOutcome(ref, sub);
            probe.firedCuts = sub.firedCuts;
            probe.cycles = sub.res.cycles;
            return probe;
        }
        board.restore(rec.snap());
        inj.rebind(&p, /*observeOnly=*/false);
        inj.setState(rec.stateAt());
        std::vector<TimeNs> abs;
        for (const auto &c : p.cuts)
            if (c.absolute)
                abs.push_back(c.atNs);
        std::sort(abs.begin(), abs.end());
        sup->scheduleAbsolute(std::move(abs));
        const Cycles before = board.mcu().cycles();
        mem::ScopedSink evalSink(&inj);
        const board::RunResult res = board.continueRun();
        probe.cls = judgeLeaf(oracle, env, res);
        probe.firedCuts = sup->firedAt(); // restore rolled these back
        probe.cycles = res.cycles - before;
        return probe;
    };

    return shrinkPlanWith(spec, original, firstSeen, eval);
}

Table
exploreTable(const ExploreReport &report)
{
    Table t("ticsmc: exhaustive failure-space census (maxFaults=" +
            std::to_string(report.maxFaults) + ")");
    t.header({"app", "runtime", "prot", "decisions", "branches", "leaves",
              "cutoffs", "exhausted", "violations"});
    for (const auto &p : report.pairs) {
        t.row()
            .cell(p.app)
            .cell(p.runtime)
            .cell(p.isProtected ? "yes" : "no")
            .cell(p.decisionPoints)
            .cell(p.branchesTaken)
            .cell(p.statesExplored)
            .cell(p.frontierCutoffs)
            .cell(!p.refCompleted           ? "ref-failed"
                  : !p.recordingConsistent ? "rec-diverged"
                  : p.exhausted            ? "yes"
                                           : "no")
            .cell(p.confirmedViolations);
    }
    return t;
}

Table
exploreViolationTable(const ExploreReport &report)
{
    Table t("ticsmc: violations (minimal confirmed schedules)");
    t.header({"app", "runtime", "kind", "confirmed", "divergent",
              "schedule"});
    for (const auto &p : report.pairs) {
        for (const auto &v : p.violations) {
            t.row()
                .cell(p.app)
                .cell(p.runtime)
                .cell(v.kind)
                .cell(v.confirmed ? "yes" : "NO")
                .cell(v.divergentBytes)
                .cell(v.plan);
        }
    }
    return t;
}

} // namespace ticsim::fault
