/**
 * @file
 * ticscheck: the memory-consistency checker CLI. Runs the BC and
 * Cuckoo benchmarks under every runtime, traces the non-volatile
 * read/write/versioning sets per consistency interval, checks the
 * Surbatovich WAR condition, and byte-diffs each intermittent run's
 * final application state against a failure-free reference run.
 *
 * Exit status is 0 when the matrix matches the paper's argument
 * (protected runtimes consistent, plain C demonstrably not) and 1 on
 * any unexpected finding — so it can gate CI.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "analysis/checker.hpp"
#include "harness/report.hpp"
#include "support/parse.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--period-ms N] [--on-fraction F] [--seed N]\n"
        "          [--budget-s N] [--verbose]\n"
        "          [--json PATH] [--trace PATH]\n"
        "Runs the app x runtime matrix under a reset pattern and\n"
        "reports WAR hazards and replay divergence per scenario.\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    // Strips --json/--trace before the checker's own argument loop.
    harness::BenchSession session("ticscheck", argc, argv);
    analysis::CheckConfig cfg;
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
            return flagU64("ticscheck", arg, next(), max);
        };
        if (std::strcmp(arg, "--period-ms") == 0) {
            cfg.patternPeriod = count(kMaxTimeNs / kNsPerMs) * kNsPerMs;
        } else if (std::strcmp(arg, "--on-fraction") == 0) {
            cfg.patternOnFraction = flagDouble("ticscheck", arg, next());
        } else if (std::strcmp(arg, "--seed") == 0) {
            cfg.seed = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            cfg.budget = count(kMaxTimeNs / kNsPerSec) * kNsPerSec;
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    session.setSeed(cfg.seed);
    const auto findings = analysis::checkMatrix(cfg);
    analysis::findingsTable(findings).print(std::cout);
    if (verbose)
        analysis::hazardTable(findings).print(std::cout);

    int rc = 0;
    for (const auto &f : findings) {
        if (!analysis::scenarioOk(f)) {
            std::printf("UNEXPECTED: %s under %s\n", f.app.c_str(),
                        f.runtime.c_str());
            rc = 1;
        }
    }
    if (rc == 0)
        std::printf("ticscheck: matrix matches the expected "
                    "consistency split\n");
    return rc;
}
