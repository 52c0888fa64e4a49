/**
 * @file
 * ticsfault: the fault-injection CLI. Both of its searches run the
 * (app, runtime) matrix under power-failure schedules and byte-diff
 * each faulted run's final application state against a failure-free
 * reference run:
 *
 *  - --campaign (the default) samples: systematic and seeded-random
 *    schedules — power cuts at commit/restore/boot boundaries, torn NV
 *    stores, stale-slot retention flips — drawn from the reference
 *    run's event census, each violation delta-debugged to a minimal
 *    schedule and re-verified by replay.
 *  - --explore enumerates: it forks the simulator (snapshot/restore in
 *    place) at every boundary event and gated NV store of a recording
 *    pass and branches over the local fault alphabet — die here, or
 *    land each distinct torn image of the store and die on it — to
 *    --max-faults depth, on smaller app sizes. A pair walked without
 *    frontier cut-offs is *exhausted*: within that model its
 *    violation list is provably complete.
 *  - --replay "App/Runtime:plan" re-executes one schedule on the
 *    program the selected mode searches.
 *
 * A search exits 0 when it matches the paper's argument — protected
 * runtimes survive every schedule, plain C demonstrably does not — and
 * 1 otherwise or when --require-exhausted is unmet; usage errors,
 * including a flag of another mode, exit 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/explore.hpp"
#include "harness/report.hpp"
#include "support/parse.hpp"
#include "sweep/job_pool.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--campaign] [--random N] [--max-seconds S]\n"
        "          [--patterns PATH] [COMMON]\n"
        "       %s --explore [--app NAME] [--runtime NAME]\n"
        "          [--max-faults N] [--max-boundaries N]\n"
        "          [--require-exhausted] [COMMON]\n"
        "       %s [--explore] --replay \"App/Runtime:plan\" [COMMON]\n"
        "COMMON: [--seed N] [--budget-s N] [--jobs N] [--verbose]\n"
        "        [--json PATH]\n"
        "--campaign (the default) sweeps adversarial fault schedules\n"
        "over the app x runtime matrix, minimizes every violation, and\n"
        "checks the protection split. --explore enumerates every\n"
        "schedule of up to --max-faults faults at every boundary event\n"
        "and gated NV store, on smaller app sizes; --app/--runtime\n"
        "filter its pairs (names or aliases, repeatable) and\n"
        "--max-boundaries caps the decision points per recording\n"
        "(0 = unbounded: proof of exhaustion). --replay re-executes one\n"
        "plan on the program the mode searches, e.g.\n"
        "  --replay \"BC/plain-C:cut@commit:2+5000;off:12000000\"\n"
        "and exits 0 consistent, 1 violation, 2 usage, 3 consistent\n"
        "but unreliable (a plan event never triggered). A flag of one\n"
        "mode exits 2 in another.\n",
        argv0, argv0, argv0);
}

/** The explorer's app sizes: the smallest workloads that still cross
 *  several commit boundaries. The campaign-sized ones would put tens
 *  of thousands of decision points in every recording. */
void
useExploreSizes(fault::PairConfig &cfg)
{
    cfg.bc.iterations = 2;
    cfg.cuckoo.workScale = 1.0;
    cfg.cuckoo.keys = 8;
}

/** Write every minimized schedule as "App/Runtime:plan" lines — the
 *  exact strings --replay accepts — for the CI artifact. */
void
writePatterns(const fault::CampaignReport &report,
              const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "ticsfault: cannot open '%s'\n",
                     path.c_str());
        return;
    }
    for (const auto &p : report.pairs)
        for (const auto &v : p.found)
            os << v.app << '/' << v.runtime << ':' << v.plan << '\n';
}

int
replayMain(const fault::PairConfig &cfg, const std::string &spec)
{
    // "App/Runtime:plan" — the pair name itself contains one '/', so
    // split at the first ':' after it.
    const auto slash = spec.find('/');
    const auto colon =
        slash == std::string::npos ? std::string::npos
                                   : spec.find(':', slash);
    if (colon == std::string::npos) {
        std::fprintf(stderr,
                     "ticsfault: --replay wants \"App/Runtime:plan\"\n");
        return 2;
    }
    const std::string pairName = spec.substr(0, colon);
    fault::FaultPlan plan;
    std::string err;
    if (!fault::FaultPlan::parse(spec.substr(colon + 1), plan, &err)) {
        std::fprintf(stderr, "ticsfault: bad plan: %s\n", err.c_str());
        return 2;
    }
    const auto pair = fault::pairNamed(cfg, pairName);
    if (!pair) {
        std::fprintf(stderr, "ticsfault: unknown pair \"%s\"\n",
                     pairName.c_str());
        return 2;
    }
    const fault::ReplayDetail detail =
        fault::replayPlanDetailed(cfg, *pair, plan);
    std::printf("%s: %s\n    %s\n", pairName.c_str(),
                detail.verdict.c_str(), plan.format().c_str());
    for (const auto &a : detail.atoms) {
        if (a.fired)
            std::printf("    fired    %-32s occurrence %llu at %llu ns\n",
                        a.atom.c_str(),
                        static_cast<unsigned long long>(a.occurrence),
                        static_cast<unsigned long long>(a.at));
        else
            std::printf("    NO-FIRE  %-32s never triggered\n",
                        a.atom.c_str());
    }
    if (detail.verdict != "consistent")
        return 1;
    if (!detail.allFired()) {
        // A "consistent" replay whose plan never actually fired proves
        // nothing — distinct exit code so CI scripts can tell a
        // survived fault from a fault that never happened.
        std::printf("    verdict unreliable: some plan events never "
                    "triggered\n");
        return 3;
    }
    return 0;
}

int
campaignMain(harness::BenchSession &session,
             const fault::CampaignConfig &cfg,
             const std::string &patternsPath, bool verbose)
{
    const fault::CampaignReport report = fault::runCampaign(cfg);
    fault::campaignTable(report).print(std::cout);
    fault::violationTable(report).print(std::cout);

    for (const auto &p : report.pairs) {
        for (const auto &v : p.found) {
            harness::ReportFinding rf;
            rf.analysis = "fault-campaign";
            rf.app = v.app;
            rf.runtime = v.runtime;
            rf.subject = v.kind;
            rf.bytes = v.divergentBytes;
            rf.detail = v.plan;
            session.addFinding(std::move(rf));
        }
    }
    if (!patternsPath.empty())
        writePatterns(report, patternsPath);

    if (verbose) {
        for (const auto &p : report.pairs)
            for (const auto &v : p.found)
                std::printf("  %s/%s: %s  (from %s, %u shrink runs)\n",
                            v.app.c_str(), v.runtime.c_str(),
                            v.plan.c_str(), v.originalPlan.c_str(),
                            v.shrinkRuns);
    }
    if (report.truncated)
        std::printf("ticsfault: campaign truncated by --max-seconds; "
                    "result is not seed-reproducible\n");

    if (report.ok()) {
        std::printf("ticsfault: %llu schedules, protection split holds "
                    "(protected survive, plain C violates)\n",
                    static_cast<unsigned long long>(
                        report.totalSchedules));
        return 0;
    }
    std::printf("ticsfault: UNEXPECTED campaign outcome\n");
    return 1;
}

harness::McSection
mcSection(const fault::ExploreConfig &cfg,
          const fault::ExploreReport &report)
{
    harness::McSection mc;
    mc.maxFaults = cfg.maxFaults;
    mc.maxDecisions = cfg.maxDecisions;
    mc.jobs = cfg.jobs == 0 ? sweep::JobPool::defaultJobs() : cfg.jobs;
    mc.allExhausted = report.allExhausted();
    for (const auto &p : report.pairs) {
        harness::McPairEntry e;
        e.app = p.app;
        e.runtime = p.runtime;
        e.isProtected = p.isProtected;
        e.refCompleted = p.refCompleted;
        e.recordingConsistent = p.recordingConsistent;
        e.decisionPoints = p.decisionPoints;
        e.branchesTaken = p.branchesTaken;
        e.statesExplored = p.statesExplored;
        e.frontierCutoffs = p.frontierCutoffs;
        e.exhausted = p.exhausted;
        e.confirmedViolations = p.confirmedViolations;
        mc.pairs.push_back(std::move(e));
        for (const auto &v : p.violations) {
            harness::McViolationEntry ve;
            ve.app = p.app;
            ve.runtime = p.runtime;
            ve.kind = v.kind;
            ve.plan = v.plan;
            ve.foundAs = v.foundAs;
            ve.divergentBytes = v.divergentBytes;
            ve.confirmed = v.confirmed;
            mc.violations.push_back(std::move(ve));
        }
    }
    return mc;
}

int
exploreMain(harness::BenchSession &session,
            const fault::ExploreConfig &cfg,
            const std::vector<fault::PairSpec> &specs,
            bool requireExhausted, bool verbose)
{
    const fault::ExploreReport report = fault::exploreMatrix(cfg, specs);
    fault::exploreTable(report).print(std::cout);
    fault::exploreViolationTable(report).print(std::cout);
    session.setMc(mcSection(cfg, report));

    if (verbose) {
        for (const auto &p : report.pairs)
            for (const auto &v : p.violations)
                std::printf("  %s/%s: %s  (found as %s, %s)\n",
                            p.app.c_str(), p.runtime.c_str(),
                            v.plan.c_str(), v.foundAs.c_str(),
                            v.confirmed ? "confirmed" : "UNCONFIRMED");
    }

    bool ok = report.ok();
    if (requireExhausted && !report.allExhausted()) {
        std::printf("ticsfault: --require-exhausted unmet (a pair was "
                    "frontier-capped or diverged)\n");
        ok = false;
    }
    if (ok) {
        std::uint64_t leaves = 0;
        for (const auto &p : report.pairs)
            leaves += p.statesExplored;
        std::printf("ticsfault: %llu states explored, split holds "
                    "(protected survive every schedule%s)\n",
                    static_cast<unsigned long long>(leaves),
                    report.allExhausted() ? ", exhaustively" : "");
        return 0;
    }
    std::printf("ticsfault: UNEXPECTED exploration outcome\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchSession session("ticsfault", argc, argv);
    // The common flags, one meaning in every mode.
    fault::PairConfig pair;
    unsigned jobs = 1;
    bool verbose = false;
    bool campaign = false;
    bool explore = false;
    const char *replaySpec = nullptr;
    // Flags of one mode; the last one given is named if it is refused.
    fault::CampaignConfig campaignCfg;
    std::string patternsPath;
    const char *campaignFlag = nullptr;
    fault::ExploreConfig exploreCfg;
    std::vector<std::string> apps;
    std::vector<std::string> runtimes;
    bool requireExhausted = false;
    const char *exploreFlag = nullptr;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        const auto count = [&](std::uint64_t max) {
            return flagU64("ticsfault", arg, next(), max);
        };
        if (std::strcmp(arg, "--campaign") == 0) {
            campaign = true;
        } else if (std::strcmp(arg, "--explore") == 0) {
            explore = true;
        } else if (std::strcmp(arg, "--replay") == 0) {
            replaySpec = next();
        } else if (std::strcmp(arg, "--seed") == 0) {
            pair.seed = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            pair.budget = count(kMaxTimeNs / kNsPerSec) * kNsPerSec;
        } else if (std::strcmp(arg, "--jobs") == 0) {
            jobs = static_cast<unsigned>(count(kMaxJobs));
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(arg, "--random") == 0) {
            campaignFlag = arg;
            campaignCfg.randomSchedules =
                static_cast<std::uint32_t>(count(UINT32_MAX));
        } else if (std::strcmp(arg, "--max-seconds") == 0) {
            campaignFlag = arg;
            campaignCfg.maxSeconds = flagDouble("ticsfault", arg, next());
        } else if (std::strcmp(arg, "--patterns") == 0) {
            campaignFlag = arg;
            patternsPath = next();
        } else if (std::strcmp(arg, "--app") == 0) {
            exploreFlag = arg;
            apps.emplace_back(next());
        } else if (std::strcmp(arg, "--runtime") == 0) {
            exploreFlag = arg;
            runtimes.emplace_back(next());
        } else if (std::strcmp(arg, "--max-faults") == 0) {
            exploreFlag = arg;
            exploreCfg.maxFaults =
                static_cast<std::uint32_t>(count(UINT32_MAX));
        } else if (std::strcmp(arg, "--max-boundaries") == 0) {
            exploreFlag = arg;
            exploreCfg.maxDecisions = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--require-exhausted") == 0) {
            exploreFlag = arg;
            requireExhausted = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    // A flag of another mode would be silently ignored; refuse it.
    if (campaign && explore) {
        std::fprintf(stderr,
                     "ticsfault: --campaign and --explore exclude each "
                     "other\n");
        return 2;
    }
    const bool replay = replaySpec != nullptr;
    const char *mode =
        replay ? "--replay" : explore ? "--explore" : "--campaign";
    if (campaignFlag != nullptr && (explore || replay)) {
        std::fprintf(stderr,
                     "ticsfault: %s applies only to --campaign, not to "
                     "%s\n",
                     campaignFlag, mode);
        return 2;
    }
    if (exploreFlag != nullptr && (!explore || replay)) {
        std::fprintf(stderr,
                     "ticsfault: %s applies only to --explore, not to "
                     "%s\n",
                     exploreFlag, mode);
        return 2;
    }
    if (exploreCfg.maxFaults == 0) {
        std::fprintf(stderr, "ticsfault: --max-faults must be >= 1\n");
        return 2;
    }

    if (explore)
        useExploreSizes(pair);
    session.setSeed(pair.seed);
    if (replay)
        return replayMain(pair, replaySpec);

    if (explore) {
        exploreCfg.base = pair;
        exploreCfg.jobs = jobs;
        const std::vector<fault::PairSpec> specs =
            fault::selectPairs(pair, apps, runtimes);
        if (specs.empty()) {
            std::fprintf(stderr, "ticsfault: no pair matches the filter\n");
            return 2;
        }
        return exploreMain(session, exploreCfg, specs, requireExhausted,
                           verbose);
    }

    static_cast<fault::PairConfig &>(campaignCfg) = pair;
    campaignCfg.jobs = jobs;
    return campaignMain(session, campaignCfg, patternsPath, verbose);
}
