/**
 * @file
 * ticsfault: the adversarial fault-injection campaign CLI. For every
 * (app, runtime) pair it learns the boundary-event universe from a
 * failure-free reference run, then sweeps systematic and seeded-random
 * fault schedules — power cuts at commit/restore/boot boundaries, torn
 * NV stores, stale-slot retention flips — and byte-diffs each faulted
 * run's final application state against the reference. Violations are
 * delta-debugged to minimal schedules and re-verified by replay.
 *
 * Exit status is 0 when the campaign matches the paper's argument
 * (protected runtimes survive every schedule, plain C demonstrably
 * does not) and 1 on any unexpected finding — so it can gate CI.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "fault/campaign.hpp"
#include "harness/report.hpp"
#include "support/parse.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--campaign] [--seed N] [--random N] [--jobs N]\n"
        "          [--budget-s N] [--max-seconds S] [--json PATH]\n"
        "          [--patterns PATH] [--verbose]\n"
        "       %s --replay \"App/Runtime:plan\" [--seed N]\n"
        "Sweeps adversarial fault schedules (power cuts, torn NV\n"
        "stores, retention flips) over the app x runtime matrix,\n"
        "minimizes every violation, and checks the protection split.\n"
        "--replay re-executes one plan string, e.g.\n"
        "  --replay \"BC/plain-C:cut@commit:2+5000;off:12000000\"\n"
        "printing where each plan event fired (boundary occurrence and\n"
        "virtual time); exits 0 consistent, 1 violation, 2 usage,\n"
        "3 consistent-but-unreliable (a plan event never triggered).\n",
        argv0, argv0);
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
replayMain(const fault::CampaignConfig &cfg, const std::string &spec)
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
    fault::ReplayDetail detail;
    if (!fault::replayPlanDetailed(cfg, pairName, plan, detail)) {
        std::fprintf(stderr, "ticsfault: unknown pair \"%s\"\n",
                     pairName.c_str());
        return 2;
    }
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

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchSession session("ticsfault", argc, argv);
    fault::CampaignConfig cfg;
    std::string replaySpec;
    std::string patternsPath;
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
            return flagU64("ticsfault", arg, next(), max);
        };
        if (std::strcmp(arg, "--campaign") == 0) {
            // The default mode; accepted for readable CI scripts.
        } else if (std::strcmp(arg, "--seed") == 0) {
            cfg.seed = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--random") == 0) {
            cfg.randomSchedules =
                static_cast<std::uint32_t>(count(UINT32_MAX));
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            cfg.budget = count(kMaxTimeNs / kNsPerSec) * kNsPerSec;
        } else if (std::strcmp(arg, "--max-seconds") == 0) {
            cfg.maxSeconds = flagDouble("ticsfault", arg, next());
        } else if (std::strcmp(arg, "--jobs") == 0) {
            cfg.jobs = static_cast<unsigned>(count(kMaxJobs));
        } else if (std::strcmp(arg, "--replay") == 0) {
            replaySpec = next();
        } else if (std::strcmp(arg, "--patterns") == 0) {
            patternsPath = next();
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    session.setSeed(cfg.seed);
    if (!replaySpec.empty())
        return replayMain(cfg, replaySpec);

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
