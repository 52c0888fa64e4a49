/**
 * @file
 * ticsmc: the exhaustive failure-space explorer CLI. Where ticsfault
 * samples fault schedules, ticsmc enumerates them: one failure-free
 * recording pass per (app, runtime) pair discovers every decision
 * point — each boundary event and each gated NV store — and the
 * explorer then forks the simulator at each one (snapshot/restore in
 * place, no re-run from boot) and branches over the local fault
 * alphabet: die here, or land each distinct torn image of the store
 * and die on it. Every leaf is classified against the golden
 * reference; violations are confirmed through a real from-boot
 * injector replay and ddmin-minimized.
 *
 * A pair that completes the walk without frontier cut-offs is
 * *exhausted*: within the model (single death per decision, the
 * explorer's tear alphabet, --max-faults depth) the violation list is
 * provably complete. Exit status is 0 when every explored pair
 * behaves as the paper's argument demands — protected runtimes show
 * zero confirmed violations, an exhausted plain-C pair shows at least
 * one — and 1 otherwise (or when --require-exhausted is unmet).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/explore.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "support/parse.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--app NAME] [--runtime NAME] [--max-faults N]\n"
        "          [--max-boundaries N] [--jobs N] [--seed N]\n"
        "          [--budget-s N] [--require-exhausted] [--verbose]\n"
        "          [--json PATH]\n"
        "Exhaustively enumerates the failure space of (app, runtime)\n"
        "pairs by forking the simulator at every boundary event and\n"
        "gated NV store. --app/--runtime filter the 10-pair matrix\n"
        "(names or aliases, e.g. --app CF --runtime plain-C); repeat\n"
        "the flags to select several. --max-boundaries caps the\n"
        "decision points explored per recording (0 = unbounded: proof\n"
        "of exhaustion). --max-faults sets the schedule depth.\n",
        argv0);
}

/** An empty filter matches everything; names resolve through the
 *  catalog's aliases (e.g. --app CF --runtime tics). */
bool
nameMatches(const std::vector<std::string> &wanted, const std::string &s,
            bool (*same)(std::string_view, std::string_view))
{
    if (wanted.empty())
        return true;
    for (const auto &w : wanted)
        if (same(w, s))
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchSession session("ticsmc", argc, argv);
    fault::ExploreConfig cfg;
    // Exhaustive enumeration wants the smallest workloads that still
    // cross several commit boundaries; the campaign-sized ones would
    // put tens of thousands of decision points in every recording.
    cfg.base.bc.iterations = 2;
    cfg.base.cuckoo.workScale = 1.0;
    cfg.base.cuckoo.keys = 8;

    std::vector<std::string> apps;
    std::vector<std::string> runtimes;
    bool requireExhausted = false;
    bool verbose = false;

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
            return flagU64("ticsmc", arg, next(), max);
        };
        if (std::strcmp(arg, "--app") == 0) {
            apps.emplace_back(next());
        } else if (std::strcmp(arg, "--runtime") == 0) {
            runtimes.emplace_back(next());
        } else if (std::strcmp(arg, "--max-faults") == 0) {
            cfg.maxFaults = static_cast<std::uint32_t>(count(UINT32_MAX));
        } else if (std::strcmp(arg, "--max-boundaries") == 0) {
            cfg.maxDecisions = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--jobs") == 0) {
            cfg.jobs = static_cast<unsigned>(count(kMaxJobs));
        } else if (std::strcmp(arg, "--seed") == 0) {
            cfg.base.seed = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            cfg.base.budget = count(kMaxTimeNs / kNsPerSec) * kNsPerSec;
        } else if (std::strcmp(arg, "--require-exhausted") == 0) {
            requireExhausted = true;
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (cfg.maxFaults == 0) {
        std::fprintf(stderr, "ticsmc: --max-faults must be >= 1\n");
        return 2;
    }
    session.setSeed(cfg.base.seed);

    std::vector<fault::PairSpec> specs;
    for (fault::PairSpec &s : fault::campaignPairs(cfg.base)) {
        if (nameMatches(apps, s.app, harness::sameApp) &&
            nameMatches(runtimes, s.runtime, harness::sameRuntime))
            specs.push_back(std::move(s));
    }
    if (specs.empty()) {
        std::fprintf(stderr, "ticsmc: no pair matches the filter\n");
        return 2;
    }

    const fault::ExploreReport report =
        fault::exploreMatrix(cfg, specs);
    fault::exploreTable(report).print(std::cout);
    fault::exploreViolationTable(report).print(std::cout);

    harness::McSection mc;
    mc.maxFaults = cfg.maxFaults;
    mc.maxDecisions = cfg.maxDecisions;
    mc.jobs = std::max(1u, cfg.jobs);
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
    session.setMc(std::move(mc));

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
        std::printf("ticsmc: --require-exhausted unmet (a pair was "
                    "frontier-capped or diverged)\n");
        ok = false;
    }
    if (ok) {
        std::uint64_t leaves = 0;
        for (const auto &p : report.pairs)
            leaves += p.statesExplored;
        std::printf("ticsmc: %llu states explored, split holds "
                    "(protected survive every schedule%s)\n",
                    static_cast<unsigned long long>(leaves),
                    report.allExhausted() ? ", exhaustively" : "");
        return 0;
    }
    std::printf("ticsmc: UNEXPECTED exploration outcome\n");
    return 1;
}
