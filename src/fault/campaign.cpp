#include "campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <utility>

#include "fault/explore.hpp"
#include "support/rng.hpp"
#include "sweep/job_pool.hpp"
#include "timekeeper/timekeeper.hpp"

namespace ticsim::fault {

namespace {

/** {first, middle, last} occurrences of a counted event, deduplicated. */
std::vector<std::uint64_t>
probePoints(std::uint64_t count)
{
    std::vector<std::uint64_t> out;
    if (count == 0)
        return out;
    for (std::uint64_t occ : {std::uint64_t{1}, (count + 1) / 2, count}) {
        if (std::find(out.begin(), out.end(), occ) == out.end())
            out.push_back(occ);
    }
    return out;
}

/**
 * The systematic schedule set for one pair, derived from the reference
 * census: single cuts at and shortly after every boundary kind's
 * first/middle/last occurrence, a few recovery-of-recovery double
 * cuts, torn writes at each store site's probe points in all three
 * tear modes, and — when the runtime owns a checkpoint area — bit
 * flips into the stale slot right after a commit. Flips are restricted
 * to checkpoint metadata on purpose: no runtime here claims to survive
 * spontaneous retention corruption of raw application state, so a flip
 * into an app region would be an unfair (and uninformative) fault.
 */
std::vector<FaultPlan>
systematicSchedules(const CampaignConfig &cfg, const PairSpec &spec,
                    const EventCensus &census)
{
    std::vector<FaultPlan> out;
    const TimeNs kShortDelay = 200 * kNsPerUs;

    const auto blank = [&cfg] {
        FaultPlan p;
        p.offNs = cfg.offNs;
        return p;
    };
    const auto relCut = [](Boundary b, std::uint64_t occ, TimeNs delay) {
        PowerCut c;
        c.absolute = false;
        c.boundary = b;
        c.occurrence = occ;
        c.delayNs = delay;
        return c;
    };

    // Single cuts around every observed boundary.
    for (int bi = 0; bi < kBoundaryCount; ++bi) {
        const auto b = static_cast<Boundary>(bi);
        for (std::uint64_t occ : probePoints(census.boundary[bi])) {
            for (TimeNs delay : {TimeNs{0}, kShortDelay}) {
                FaultPlan p = blank();
                p.cuts.push_back(relCut(b, occ, delay));
                out.push_back(std::move(p));
            }
        }
    }

    // Recovery-of-recovery: the first cut forces a reboot; the second
    // kills that reboot mid-restore (or right at power-on).
    for (std::uint64_t occ :
         probePoints(census.boundary[static_cast<int>(Boundary::CommitEnd)])) {
        {
            FaultPlan p = blank();
            p.cuts.push_back(relCut(Boundary::CommitEnd, occ, 0));
            p.cuts.push_back(relCut(Boundary::BootRestore,
                                    census.boundary[static_cast<int>(
                                        Boundary::BootRestore)] +
                                        1,
                                    0));
            out.push_back(std::move(p));
        }
        {
            FaultPlan p = blank();
            p.cuts.push_back(relCut(Boundary::CommitEnd, occ, 0));
            p.cuts.push_back(relCut(Boundary::Boot, 2, 0));
            out.push_back(std::move(p));
        }
    }

    // Torn stores at each site's probe points, all three modes.
    for (int si = 0; si < mem::kStoreSiteCount; ++si) {
        const auto site = static_cast<mem::StoreSite>(si);
        const std::uint32_t maxB = census.maxStoreBytes[si];
        for (std::uint64_t occ : probePoints(census.stores[si])) {
            for (int m = 0; m < 3; ++m) {
                TornWrite t;
                t.site = site;
                t.occurrence = occ;
                t.mode = static_cast<TearMode>(m);
                t.keepBytes = t.mode == TearMode::GarbageTail
                                  ? std::min<std::uint32_t>(4, maxB / 2)
                                  : maxB / 2;
                FaultPlan p = blank();
                p.tears.push_back(t);
                out.push_back(std::move(p));
            }
        }
    }

    // Stale-slot retention flips: commit #occ writes generation occ
    // into slot (occ-1)%2, so the slot left stale afterwards is occ%2.
    // Recovery must keep preferring the fresh slot whatever happens to
    // the stale header (generation bit, CRC bit) or stale image.
    const std::string ckptPrefix = spec.scenario->ckptPrefix;
    if (!ckptPrefix.empty()) {
        const std::uint64_t commits =
            census.boundary[static_cast<int>(Boundary::CommitEnd)];
        for (std::uint64_t occ : probePoints(commits)) {
            const int stale = static_cast<int>(occ % 2);
            const std::string hdr =
                ckptPrefix + ".hdr" + std::to_string(stale);
            const std::string img =
                ckptPrefix + ".image" + std::to_string(stale);
            const auto flipPlan = [&](const std::string &region,
                                      std::uint32_t offset,
                                      std::uint8_t mask) {
                FaultPlan p = blank();
                p.cuts.push_back(relCut(Boundary::CommitEnd, occ, 0));
                BitFlip f;
                f.outageIndex = 1;
                f.region = region;
                f.offset = offset;
                f.mask = mask;
                p.flips.push_back(std::move(f));
                return p;
            };
            out.push_back(flipPlan(hdr, 4, 0x40));   // generation
            out.push_back(flipPlan(hdr, 20, 0x10));  // stored CRC
            out.push_back(flipPlan(img, 16, 0x01));  // stale image byte
        }
    }

    return out;
}

/** The seeded-random band: 1-2 boundary cuts with random delays, plus
 *  an occasional torn store. Same seed → same schedules. */
std::vector<FaultPlan>
randomSchedules(const CampaignConfig &cfg, const EventCensus &census,
                Rng &rng)
{
    std::vector<int> liveBoundaries;
    for (int bi = 0; bi < kBoundaryCount; ++bi)
        if (census.boundary[bi] > 0)
            liveBoundaries.push_back(bi);
    std::vector<int> liveSites;
    for (int si = 0; si < mem::kStoreSiteCount; ++si)
        if (census.stores[si] > 0)
            liveSites.push_back(si);

    std::vector<FaultPlan> out;
    for (std::uint32_t i = 0; i < cfg.randomSchedules; ++i) {
        FaultPlan p;
        p.offNs = cfg.offNs;
        if (!liveBoundaries.empty()) {
            const std::uint64_t nCuts = 1 + rng.below(2);
            for (std::uint64_t j = 0; j < nCuts; ++j) {
                const int bi = liveBoundaries[static_cast<std::size_t>(
                    rng.below(liveBoundaries.size()))];
                PowerCut c;
                c.absolute = false;
                c.boundary = static_cast<Boundary>(bi);
                c.occurrence = 1 + rng.below(census.boundary[bi]);
                c.delayNs =
                    static_cast<TimeNs>(rng.below(2 * kNsPerMs + 1));
                p.cuts.push_back(c);
            }
        }
        if (!liveSites.empty() && rng.chance(0.35)) {
            const int si = liveSites[static_cast<std::size_t>(
                rng.below(liveSites.size()))];
            TornWrite t;
            t.site = static_cast<mem::StoreSite>(si);
            t.occurrence = 1 + rng.below(census.stores[si]);
            t.mode = static_cast<TearMode>(rng.below(3));
            t.keepBytes = static_cast<std::uint32_t>(
                rng.below(census.maxStoreBytes[si] + 1));
            p.tears.push_back(t);
        }
        if (!p.empty())
            out.push_back(std::move(p));
    }
    return out;
}

} // namespace

PairRunOutcome
runPairWithPlan(const CampaignConfig &cfg, const PairSpec &spec,
                const FaultPlan &plan, bool observe)
{
    board::BoardConfig bcfg;
    bcfg.seed = cfg.seed;

    auto supply = std::make_unique<FaultedSupply>(
        std::make_unique<energy::ContinuousSupply>(), plan.offNs);
    if (!observe) {
        std::vector<TimeNs> abs;
        for (const auto &c : plan.cuts)
            if (c.absolute)
                abs.push_back(c.atNs);
        std::sort(abs.begin(), abs.end());
        supply->scheduleAbsolute(std::move(abs));
    }
    FaultedSupply *sup = supply.get();

    board::Board board(bcfg, std::move(supply),
                       std::make_unique<timekeeper::PerfectTimekeeper>());
    FaultInjector inj(board, *sup, plan, observe);
    mem::ScopedSink sink(&inj);

    PairRunOutcome out;
    {
        // The pair is torn down while the injector is still installed.
        harness::ScenarioInstance inst = spec.make(board);
        out.res = board.run(*inst.runtime, inst.entry, cfg.budget);
        out.verified = inst.verify();
        out.snap = analysis::ReplayOracle::capture(
            board.nvram(), analysis::ReplayOracle::appStateFilter());
    }
    out.census = inj.census();
    out.firedCuts = sup->firedAt();
    out.injectedDeaths = sup->injectedDeaths();
    out.tearsApplied = inj.tearsApplied();
    out.flipsApplied = inj.flipsApplied();

    // Per-atom firing records in planFromAtoms order. Relative cuts
    // were tracked by the injector; absolute cuts are matched against
    // the scheduled instants the supply consumed.
    std::vector<TimeNs> absFired = sup->absFiredAt();
    for (std::size_t i = 0; i < plan.cuts.size(); ++i) {
        AtomFiring a = inj.cutFirings()[i];
        if (plan.cuts[i].absolute) {
            const auto it = std::find(absFired.begin(), absFired.end(),
                                      plan.cuts[i].atNs);
            if (it != absFired.end()) {
                a.fired = true;
                a.at = plan.cuts[i].atNs;
                absFired.erase(it);
            }
        }
        out.atomFirings.push_back(a);
    }
    for (const AtomFiring &a : inj.tearFirings())
        out.atomFirings.push_back(a);
    for (const AtomFiring &a : inj.flipFirings())
        out.atomFirings.push_back(a);
    return out;
}

Classification
classify(const analysis::ReplayReport &diff, const board::RunResult &res,
         bool verified)
{
    Classification c;
    c.divergentBytes = diff.divergentBytes;
    if (diff.regionMismatches > 0)
        c.kind = "layout";
    else if (res.starved)
        c.kind = "starved";
    else if (!res.completed)
        c.kind = "not-completed";
    else if (!verified)
        c.kind = "verify-failed";
    else if (diff.divergentBytes > 0)
        c.kind = "diverged";
    return c;
}

Classification
classifyOutcome(const PairRunOutcome &ref, const PairRunOutcome &sub)
{
    return classify(analysis::ReplayOracle::diff(ref.snap, sub.snap),
                    sub.res, sub.verified);
}

FaultPlan
planFromAtoms(const FaultPlan &full, const std::vector<std::size_t> &keep)
{
    FaultPlan p;
    p.offNs = full.offNs;
    for (const std::size_t idx : keep) {
        if (idx < full.cuts.size()) {
            p.cuts.push_back(full.cuts[idx]);
        } else if (idx < full.cuts.size() + full.tears.size()) {
            p.tears.push_back(full.tears[idx - full.cuts.size()]);
        } else {
            p.flips.push_back(
                full.flips[idx - full.cuts.size() - full.tears.size()]);
        }
    }
    return p;
}

Violation
shrinkPlanWith(const PairSpec &spec, const FaultPlan &original,
               const Classification &firstSeen, const PlanEval &eval)
{
    Violation v;
    v.app = spec.app;
    v.runtime = spec.runtime;
    v.originalPlan = original.format();
    v.kind = firstSeen.kind;
    v.divergentBytes = firstSeen.divergentBytes;

    const auto violates = [&](const FaultPlan &p,
                              Classification *out = nullptr) {
        const PlanProbe probe = eval(p);
        ++v.shrinkRuns;
        v.shrinkCycles += probe.cycles;
        if (out)
            *out = probe.cls;
        return !probe.cls.kind.empty();
    };

    std::vector<std::size_t> atoms(original.atomCount());
    for (std::size_t i = 0; i < atoms.size(); ++i)
        atoms[i] = i;

    std::size_t n = 2;
    while (atoms.size() >= 2) {
        const std::size_t chunk = (atoms.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t start = 0;
             start < atoms.size() && !reduced; start += chunk) {
            const std::size_t end =
                std::min(start + chunk, atoms.size());
            std::vector<std::size_t> subset(atoms.begin() + start,
                                            atoms.begin() + end);
            std::vector<std::size_t> complement;
            complement.insert(complement.end(), atoms.begin(),
                              atoms.begin() + start);
            complement.insert(complement.end(), atoms.begin() + end,
                              atoms.end());
            if (subset.size() < atoms.size() &&
                violates(planFromAtoms(original, subset))) {
                atoms = std::move(subset);
                n = 2;
                reduced = true;
            } else if (!complement.empty() &&
                       complement.size() < atoms.size() &&
                       violates(planFromAtoms(original, complement))) {
                atoms = std::move(complement);
                n = n > 2 ? n - 1 : 2;
                reduced = true;
            }
        }
        if (!reduced) {
            if (n >= atoms.size())
                break;
            n = std::min(atoms.size(), n * 2);
        }
    }

    FaultPlan minimized = planFromAtoms(original, atoms);

    if (!minimized.cuts.empty() && minimized.tears.empty() &&
        minimized.flips.empty()) {
        const PlanProbe probe = eval(minimized);
        ++v.shrinkRuns;
        v.shrinkCycles += probe.cycles;
        if (!probe.cls.kind.empty() && !probe.firedCuts.empty()) {
            FaultPlan absolute;
            absolute.offNs = minimized.offNs;
            for (const TimeNs t : probe.firedCuts) {
                PowerCut c;
                c.absolute = true;
                c.atNs = t;
                absolute.cuts.push_back(c);
            }
            if (violates(absolute))
                minimized = std::move(absolute);
        }
    }

    // Final confirmation replay of whatever we are about to report.
    Classification fin;
    v.replayVerified = violates(minimized, &fin);
    if (v.replayVerified) {
        v.kind = fin.kind;
        v.divergentBytes = fin.divergentBytes;
    }
    v.plan = minimized.format();
    return v;
}

Violation
shrinkViolationFromBoot(const CampaignConfig &cfg, const PairSpec &spec,
                        const PairRunOutcome &ref, const FaultPlan &original,
                        const Classification &firstSeen)
{
    return shrinkPlanWith(
        spec, original, firstSeen, [&](const FaultPlan &p) {
            const PairRunOutcome sub = runPairWithPlan(cfg, spec, p, false);
            PlanProbe probe;
            probe.cls = classifyOutcome(ref, sub);
            probe.firedCuts = sub.firedCuts;
            probe.cycles = sub.res.cycles;
            return probe;
        });
}

std::vector<PairSpec>
campaignPairs(const CampaignConfig &cfg)
{
    harness::ScenarioParams params;
    params.bc = cfg.bc;
    params.cuckoo = cfg.cuckoo;
    params.tics = harness::matrixTics();

    std::vector<PairSpec> out;
    for (const harness::Scenario &s : harness::scenarios()) {
        if (harness::inConsistencyMatrix(s))
            out.push_back({s.app, s.runtime, &s, params});
    }
    return out;
}

bool
CampaignReport::ok() const
{
    if (pairs.empty())
        return false;
    bool unprotectedExposed = false;
    for (const auto &p : pairs) {
        if (!p.refCompleted)
            return false;
        if (p.isProtected && p.violations > 0)
            return false;
        if (!p.isProtected && p.violations > 0)
            unprotectedExposed = true;
        for (const auto &v : p.found)
            if (!v.replayVerified)
                return false;
    }
    return unprotectedExposed;
}

CampaignReport
runCampaign(const CampaignConfig &cfg)
{
    // Phased execution on the sweep JobPool. Every subject run uses a
    // fresh Board and depends only on (pair, plan), so runs can
    // execute on any worker in any order; the report is assembled
    // from per-index slots in (pair, schedule) order afterwards,
    // which makes the output identical for every job count (the
    // wall-clock cap is the only nondeterministic input, exactly as
    // in the serial driver).
    CampaignReport rep;
    const auto wallStart = std::chrono::steady_clock::now();
    const auto timeUp = [&] {
        if (cfg.maxSeconds <= 0)
            return false;
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - wallStart;
        return elapsed.count() >= cfg.maxSeconds;
    };

    const sweep::JobPool pool(cfg.jobs);
    const auto pairs = campaignPairs(cfg);

    // Phase 1: all failure-free reference runs (observe mode).
    std::vector<PairRunOutcome> refs(pairs.size());
    pool.run(pairs.size(), [&](std::size_t pi) {
        refs[pi] = runPairWithPlan(cfg, pairs[pi], FaultPlan{},
                                   /*observe=*/true);
    });

    // Phase 2 (serial, cheap): schedule generation from each census.
    // The Rng stream is a pure function of (seed, pair index).
    std::vector<std::vector<FaultPlan>> schedules(pairs.size());
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        if (!refs[pi].res.completed)
            continue;
        Rng rng(cfg.seed ^ (0x5FA017ULL + pi * 0x9E3779B97F4A7C15ULL));
        schedules[pi] = systematicSchedules(cfg, pairs[pi],
                                            refs[pi].census);
        for (auto &p : randomSchedules(cfg, refs[pi].census, rng))
            schedules[pi].push_back(std::move(p));
    }

    // Phase 3: every (pair, schedule) subject run, flattened.
    struct SubjectTask {
        std::size_t pi = 0;
        std::size_t si = 0;
        bool ran = false;
        std::uint64_t injectedDeaths = 0;
        std::uint64_t tearsApplied = 0;
        std::uint64_t flipsApplied = 0;
        Classification cls;
    };
    std::vector<SubjectTask> tasks;
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        for (std::size_t si = 0; si < schedules[pi].size(); ++si) {
            SubjectTask t;
            t.pi = pi;
            t.si = si;
            tasks.push_back(std::move(t));
        }
    }
    std::atomic<bool> truncated{false};
    pool.run(tasks.size(), [&](std::size_t ti) {
        SubjectTask &t = tasks[ti];
        if (timeUp()) {
            truncated.store(true, std::memory_order_relaxed);
            return;
        }
        const PairRunOutcome sub = runPairWithPlan(
            cfg, pairs[t.pi], schedules[t.pi][t.si], false);
        t.ran = true;
        t.injectedDeaths = sub.injectedDeaths;
        t.tearsApplied = sub.tearsApplied;
        t.flipsApplied = sub.flipsApplied;
        t.cls = classifyOutcome(refs[t.pi], sub);
    });

    // Phase 4: shrink every violating schedule. A shrink is a pure
    // function of (pair, reference, original plan), so these also
    // parallelize; shrinkRuns are attributed per violation.
    std::vector<std::size_t> violating;
    for (std::size_t ti = 0; ti < tasks.size(); ++ti)
        if (tasks[ti].ran && !tasks[ti].cls.kind.empty())
            violating.push_back(ti);
    std::vector<Violation> shrunk(violating.size());
    pool.run(violating.size(), [&](std::size_t vi) {
        if (timeUp()) {
            // Report the unshrunk schedule rather than dropping the
            // violation: a truncated campaign must still fail ok().
            truncated.store(true, std::memory_order_relaxed);
            const SubjectTask &t = tasks[violating[vi]];
            Violation v;
            v.app = pairs[t.pi].app;
            v.runtime = pairs[t.pi].runtime;
            v.originalPlan = schedules[t.pi][t.si].format();
            v.plan = v.originalPlan;
            v.kind = t.cls.kind;
            v.divergentBytes = t.cls.divergentBytes;
            v.replayVerified = false;
            shrunk[vi] = std::move(v);
            return;
        }
        const SubjectTask &t = tasks[violating[vi]];
        shrunk[vi] =
            cfg.forkShrink
                ? forkShrinkViolation(cfg, pairs[t.pi], refs[t.pi],
                                      schedules[t.pi][t.si], t.cls)
                : shrinkViolationFromBoot(cfg, pairs[t.pi], refs[t.pi],
                                          schedules[t.pi][t.si], t.cls);
    });

    // Phase 5 (serial): assemble in (pair, schedule) order.
    std::size_t ti = 0;
    std::size_t vi = 0;
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        PairReport pr;
        pr.app = pairs[pi].app;
        pr.runtime = pairs[pi].runtime;
        pr.isProtected = pairs[pi].scenario->isProtected;
        pr.refCompleted = refs[pi].res.completed;

        std::set<std::string> minimizedSeen;
        for (std::size_t si = 0; si < schedules[pi].size();
             ++si, ++ti) {
            const SubjectTask &t = tasks[ti];
            if (!t.ran)
                continue;
            ++pr.schedules;
            pr.injectedDeaths += t.injectedDeaths;
            pr.tearsApplied += t.tearsApplied;
            pr.flipsApplied += t.flipsApplied;
            if (t.cls.kind.empty())
                continue;
            ++pr.violations;
            Violation v = shrunk[vi++];
            // Distinct failing schedules often shrink to the same
            // minimal reproducer; report each reproducer once.
            if (minimizedSeen.insert(v.plan).second)
                pr.found.push_back(std::move(v));
        }

        rep.totalSchedules += pr.schedules;
        rep.totalViolations += pr.violations;
        rep.pairs.push_back(std::move(pr));
    }
    rep.truncated = truncated.load();
    return rep;
}

bool
replayPlan(const CampaignConfig &cfg, const std::string &pairName,
           const FaultPlan &plan, std::string &verdictOut)
{
    ReplayDetail detail;
    if (!replayPlanDetailed(cfg, pairName, plan, detail))
        return false;
    verdictOut = detail.verdict;
    return true;
}

namespace {

/** Serialize one atom of @p plan on its own, without the off suffix. */
std::string
formatAtom(const FaultPlan &plan, std::size_t idx)
{
    const FaultPlan one = planFromAtoms(plan, {idx});
    std::string s = one.format();
    const auto off = s.rfind(";off:");
    if (off != std::string::npos)
        s.resize(off);
    return s;
}

} // namespace

bool
replayPlanDetailed(const CampaignConfig &cfg, const std::string &pairName,
                   const FaultPlan &plan, ReplayDetail &out)
{
    const auto slash = pairName.find('/');
    if (slash == std::string::npos)
        return false;
    const std::string_view app(pairName.data(), slash);
    const std::string_view runtime =
        std::string_view(pairName).substr(slash + 1);
    for (const auto &spec : campaignPairs(cfg)) {
        if (!harness::sameApp(spec.app, app) ||
            !harness::sameRuntime(spec.runtime, runtime))
            continue;
        const PairRunOutcome ref =
            runPairWithPlan(cfg, spec, FaultPlan{}, /*observe=*/true);
        if (!ref.res.completed) {
            out.verdict = "reference-incomplete";
            return true;
        }
        const PairRunOutcome sub = runPairWithPlan(cfg, spec, plan, false);
        const Classification c = classifyOutcome(ref, sub);
        out.verdict = c.kind.empty() ? "consistent" : c.kind;
        for (std::size_t i = 0; i < sub.atomFirings.size(); ++i) {
            ReplayAtomStatus st;
            st.atom = formatAtom(plan, i);
            st.fired = sub.atomFirings[i].fired;
            st.occurrence = sub.atomFirings[i].occurrence;
            st.at = sub.atomFirings[i].at;
            out.atoms.push_back(std::move(st));
        }
        return true;
    }
    return false;
}

Table
campaignTable(const CampaignReport &report)
{
    Table t("ticsfault: fault-injection campaign per scenario");
    t.header({"App", "Runtime", "Ref", "Schedules", "Deaths", "Tears",
              "Flips", "Violations", "Verdict"});
    for (const auto &p : report.pairs) {
        const char *verdict;
        if (!p.refCompleted)
            verdict = "FAIL (reference)";
        else if (p.isProtected)
            verdict = p.violations == 0 ? "survives" : "FAIL";
        else
            verdict =
                p.violations > 0 ? "unsafe (expected)" : "FAIL (no expo)";
        t.row()
            .cell(p.app)
            .cell(p.runtime)
            .cell(p.refCompleted ? "done" : "FAIL")
            .cell(p.schedules)
            .cell(p.injectedDeaths)
            .cell(p.tearsApplied)
            .cell(p.flipsApplied)
            .cell(p.violations)
            .cell(verdict);
    }
    return t;
}

Table
violationTable(const CampaignReport &report)
{
    Table t("ticsfault: minimized violations");
    t.header({"App", "Runtime", "Kind", "Div B", "Runs", "Replays",
              "Minimized schedule"});
    for (const auto &p : report.pairs) {
        for (const auto &v : p.found) {
            t.row()
                .cell(v.app)
                .cell(v.runtime)
                .cell(v.kind)
                .cell(v.divergentBytes)
                .cell(static_cast<std::uint64_t>(v.shrinkRuns))
                .cell(v.replayVerified ? "yes" : "NO")
                .cell(v.plan);
        }
    }
    return t;
}

} // namespace ticsim::fault
