#include "explore.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "board/runtime.hpp"
#include "mem/journal.hpp"
#include "support/logging.hpp"
#include "sweep/job_pool.hpp"

namespace ticsim::fault {

namespace {

// ---- the explorer ----------------------------------------------------------

/**
 * One forkable point discovered by a recording pass: a boundary event
 * (branch: die here) or a gated NV store (branches: land each distinct
 * torn image, then die). Carries the light snapshot to restore, the
 * injector state to reseed — with this event already counted — and,
 * for stores, the source bytes, because the caller's src pointer is
 * dead by the time the branch runs.
 */
struct Decision {
    bool isStore = false;
    Boundary boundary = Boundary::Boot;
    mem::StoreSite site = mem::StoreSite::AppGlobal;
    std::uint32_t bytes = 0;
    void *dst = nullptr;
    std::vector<std::uint8_t> src;
    InjectorState state{};
    board::Snapshot snap{};
};

/**
 * The decisions one recording pass found. A walker keeps one Frame per
 * depth and records into it again for every branch at that depth: the
 * first `size` decisions are overwritten in place and more are only
 * appended, so each Decision's buffers keep their capacity and a
 * steady-state recording allocates nothing.
 */
struct Frame {
    std::vector<Decision> decisions;
    std::size_t size = 0; ///< decisions of the latest recording
};

/**
 * A store decision's local alphabet: the distinct torn images the
 * injector's tear modes can produce — nothing landed, half landed, a
 * garbled tail, word interleaving — each followed by death,
 * deduplicated by (mode, keep).
 */
std::vector<TornWrite>
tearsAt(const Decision &d)
{
    std::vector<TornWrite> out;
    const auto add = [&](TearMode m, std::uint32_t keep) {
        for (const auto &t : out)
            if (t.mode == m && t.keepBytes == keep)
                return;
        out.push_back(
            {.site = d.site,
             .occurrence = d.state.census.stores[static_cast<int>(d.site)],
             .mode = m,
             .keepBytes = keep});
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
          shards_(shardCount), frames_(cfg.maxFaults)
    {
        path_.offNs = cfg.base.offNs;
    }

    ShardStats
    run()
    {
        FaultedBoard fb(cfg_.base, path_);
        board_ = &fb;
        const FaultPlan noFaults;
        FaultInjector inj(fb.board, fb.supply, noFaults);
        inj_ = &inj;
        mem::ScopedSink as(&inj);
        harness::ScenarioInstance env = spec_.make(fb.board);
        env_ = &env;
        mem::WriteJournal journal;
        mem::ScopedWriteJournal sj(&journal);

        fb.board.beginRun(*env.runtime, env.entry, cfg_.base.budget);
        const analysis::BoundReference oracle =
            bindReference(ref_, fb.board);
        oracle_ = &oracle;
        const board::RunResult cleanRes = record(frames_[0]);

        // The fault-free recording pass must be the reference run.
        if (!judgeLeaf(oracle, env, cleanRes).kind.empty()) {
            st_.recordingConsistent = false;
            return st_;
        }

        st_.decisionPoints = frames_[0].size;
        walkFrame(0, /*sharded=*/true);
        return st_;
    }

  private:
    /** Continue the run with a Decision and a light snapshot recorded
     *  into @p frame at every event the injector counts. */
    board::RunResult
    record(Frame &frame)
    {
        frame.size = 0;
        inj_->setHook([this, &frame](const CountedEvent &ev) {
            Decision &d = frame.size < frame.decisions.size()
                              ? frame.decisions[frame.size]
                              : frame.decisions.emplace_back();
            ++frame.size;
            d.isStore = ev.isStore;
            d.boundary = ev.boundary;
            d.site = ev.site;
            d.bytes = ev.bytes;
            d.dst = ev.dst;
            d.src.clear();
            if (ev.isStore) {
                const auto *src = static_cast<const std::uint8_t *>(ev.src);
                d.src.assign(src, src + ev.bytes);
            }
            d.state = inj_->state();
            board_->board.snapshot(d.snap, /*withFiber=*/false);
        });
        const board::RunResult res = board_->board.continueRun();
        inj_->setHook(nullptr);
        return res;
    }

    /** Branch over the decisions of frames_[@p depth], newest first. */
    void
    walkFrame(std::uint32_t depth, bool sharded)
    {
        const Frame &frame = frames_[depth];
        // The frontier cap keeps the *latest* decisions: the earliest
        // ones sit a few events past boot, where sampling campaigns
        // already reach cheaply.
        std::size_t lo = 0;
        if (cfg_.maxDecisions != 0 && frame.size > cfg_.maxDecisions)
            lo = frame.size - cfg_.maxDecisions;
        for (std::size_t i = frame.size; i-- > 0;) {
            if (sharded && i % shards_ != shard_)
                continue;
            if (i < lo) {
                ++st_.frontierCutoffs;
                continue;
            }
            exploreDecision(frame.decisions[i], depth);
        }
    }

    void
    exploreDecision(const Decision &d, std::uint32_t depth)
    {
        if (!d.isStore) {
            // A boundary forks one branch: die right at it.
            path_.cuts.push_back(
                {.boundary = d.boundary,
                 .occurrence =
                     d.state.census.boundary[static_cast<int>(d.boundary)]});
            branch(d, nullptr, depth);
            path_.cuts.pop_back();
            return;
        }
        for (const TornWrite &t : tearsAt(d)) {
            path_.tears.push_back(t);
            branch(d, &t, depth);
            path_.tears.pop_back();
        }
    }

    /** Restore @p d, a decision of frames_[@p depth], and die there —
     *  after landing @p tear, if any — then drive the run to a leaf,
     *  recording frames_[depth + 1] on the way while depth remains. */
    void
    branch(const Decision &d, const TornWrite *tear, std::uint32_t depth)
    {
        board_->board.restore(d.snap);
        inj_->setState(d.state);
        ++st_.branchesTaken;
        if (tear != nullptr) {
            // The torn store happens — journaled, landed torn — and the
            // lights go out on it.
            mem::journalNote(d.dst, d.bytes);
            applyTornStore(*tear, d.dst, d.src.data(), d.bytes);
        }
        board_->supply.noteForcedDeath();
        board_->board.markInjectedDeath();
        if (depth + 1 == frames_.size()) {
            classifyLeaf(board_->board.continueRun());
            return;
        }
        // frames_ never reallocates, and frames_[depth + 1] is not
        // frames_[depth], so @p d stays valid while the next depth is
        // recorded over.
        classifyLeaf(record(frames_[depth + 1]));
        walkFrame(depth + 1, /*sharded=*/false);
    }

    void
    classifyLeaf(const board::RunResult &res)
    {
        ++st_.statesExplored;
        const Classification c = judgeLeaf(*oracle_, *env_, res);
        if (c.kind.empty())
            return;
        PendingViolation pv;
        pv.plan = path_;
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
    FaultedBoard *board_ = nullptr;
    FaultInjector *inj_ = nullptr;
    harness::ScenarioInstance *env_ = nullptr;
    const analysis::BoundReference *oracle_ = nullptr;
    /** One reused recording per depth, sized once from maxFaults. */
    std::vector<Frame> frames_;
    /** The faults of the branch being walked, outermost first. */
    FaultPlan path_;
    ShardStats st_;
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

    const PairRunOutcome ref = runPairWithPlan(cfg.base, spec, FaultPlan{});
    out.refCompleted = ref.res.completed;
    if (!out.refCompleted)
        return out;

    const sweep::JobPool pool(cfg.jobs);
    const unsigned shards = pool.jobs();
    std::vector<ShardStats> stats(shards);
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
        const PairRunOutcome sub = runPairWithPlan(cfg.base, spec, pv.plan);
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
forkShrinkViolation(const PairConfig &cfg, const PairSpec &spec,
                    const PairRunOutcome &ref, const FaultPlan &original,
                    const Classification &firstSeen)
{
    if (!spec.scenario)
        fatal("explore: pair '%s/%s' has no scenario", spec.app.c_str(),
              spec.runtime.c_str());

    // The recording below captures nothing earlier than the first
    // power-on, at virtual time 0. A plan with an atom at or before
    // that event (e.g. `cut@boot:1`) would record a whole run, capture
    // nothing and evaluate every candidate from boot anyway.
    InjectorState firstPowerOn{.started = true, .boots = 1};
    firstPowerOn.census.boundary[static_cast<int>(Boundary::Boot)] = 1;
    if (!atomsAhead(original, firstPowerOn, 0))
        return shrinkViolationFromBoot(cfg, spec, ref, original, firstSeen);

    // Recording pass: one fault-free run — the common prefix of every
    // ddmin candidate — capturing the latest snapshot from which every
    // atom of the original plan still lies ahead. The *last* capture
    // wins, so forked evaluations execute the shortest possible suffix.
    const FaultPlan noFaults = planFromAtoms(original, {});
    FaultedBoard fb(cfg, noFaults);
    FaultInjector inj(fb.board, fb.supply, noFaults);
    board::Snapshot snap;
    InjectorState snapState;
    bool captured = false;
    bool armed = true;
    inj.setHook([&](const CountedEvent &ev) {
        // Safety is monotone — census and clock only grow — so the
        // first unsafe event disarms capturing for good.
        if (!armed)
            return;
        if (!atomsAhead(original, inj.state(), fb.board.now())) {
            armed = false;
            return;
        }
        if (!ev.isStore && ev.boundary == Boundary::Boot) {
            // A power-on fires from traceBoot(), before the run loop
            // emits the Boot event — so the captured ring mark excludes
            // it and the phase is patched to BootNoTrace: the resumed
            // loop emits the event exactly once and never re-announces
            // the boot to the injector.
            fb.board.snapshot(snap, /*withFiber=*/false);
            snap.phase = board::RunPhase::BootNoTrace;
        } else if (!fb.board.ctx().inside() ||
                   !fb.board.snapshot(snap, /*withFiber=*/true)) {
            // A scheduler-side event (the boot capture covers those),
            // or a forked evaluation resuming here: the event completes
            // in the injector under the candidate plan.
            return;
        }
        snapState = inj.state();
        captured = true;
    });
    mem::ScopedSink as(&inj);
    harness::ScenarioInstance env = spec.make(fb.board);
    mem::WriteJournal journal;
    mem::ScopedWriteJournal sj(&journal);
    fb.board.beginRun(*env.runtime, env.entry, cfg.budget);
    const analysis::BoundReference oracle = bindReference(ref, fb.board);
    fb.board.continueRun();
    // The hook stays installed, disarmed: every evaluation that resumes
    // a fiber capture returns through it.
    armed = false;

    const PlanEval eval = [&](const FaultPlan &p) -> PlanProbe {
        PlanProbe probe;
        if (!captured || !atomsAhead(p, snapState, snap.now)) {
            // Absolutized confirmation plans (or a capture that never
            // happened) fall back to a full from-boot evaluation, on a
            // board of its own that this journal must not record.
            mem::ScopedWriteJournal noJournal(nullptr);
            const PairRunOutcome sub = runPairWithPlan(cfg, spec, p);
            probe.cls = classifyOutcome(ref, sub);
            probe.firedCuts = sub.firedCuts;
            probe.cycles = sub.res.cycles;
            return probe;
        }
        fb.board.restore(snap);
        inj.rebind(p);
        inj.setState(snapState);
        fb.supply.scheduleAbsolute(absoluteCuts(p));
        const Cycles before = fb.board.mcu().cycles();
        const board::RunResult res = fb.board.continueRun();
        probe.cls = judgeLeaf(oracle, env, res);
        probe.firedCuts = fb.supply.firedAt(); // restore rolled these back
        probe.cycles = res.cycles - before;
        return probe;
    };

    Violation v = shrinkPlanWith(spec, original, firstSeen, eval);
    // The last candidate plan is gone; the pair's teardown below still
    // runs with this injector installed.
    inj.rebind(noFaults);
    return v;
}

Table
exploreTable(const ExploreReport &report)
{
    Table t("ticsfault: exhaustive failure-space census (maxFaults=" +
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
    Table t("ticsfault: violations (minimal confirmed schedules)");
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
