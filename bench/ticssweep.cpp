/**
 * @file
 * ticssweep: the parallel experiment-orchestration CLI. Enumerates a
 * grid of (app, runtime, supply, capacitor, segment, seed) cells —
 * from a spec file or CLI axis flags — and runs them on a
 * work-stealing pool with a content-addressed result cache.
 *
 * The output is deterministic: any --jobs count (and any cache state)
 * produces byte-identical tables and, under --stable, byte-identical
 * --json documents, so CI can diff a 1-job run against a 4-job run.
 *
 * Modes:
 *   (default)    run the grid, print per-cell and aggregate tables
 *   --worker     serve the ticsfleet worker protocol on stdin/stdout
 *
 * The fault campaign and the cross-validation run on the same pool
 * through their own CLIs: ticsfault --campaign --jobs N and
 * ticsverify --crossval --jobs N.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "fleet/worker.hpp"
#include "harness/report.hpp"
#include "sweep/sweep.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--spec PATH] [--apps L] [--runtimes L]\n"
        "          [--supplies L] [--caps-uf L] [--segments L]\n"
        "          [--envs L] [--seeds L] [--jobs N] [--no-cache]\n"
        "          [--cache-dir PATH] [--budget-s N] [--stable]\n"
        "          [--seed N] [--json PATH] [--trace PATH]\n"
        "       %s --worker   (ticsfleet worker protocol on stdio)\n"
        "Runs the cross-product of experiment axes on a work-stealing\n"
        "pool with a content-addressed result cache. Axis lists (L)\n"
        "are comma-separated; supplies accept continuous, rf,\n"
        "stochastic and pattern:<periodMs>:<onFraction>. --jobs 0\n"
        "uses every hardware thread. --stable zeroes the wall-clock\n"
        "and cache fields of the JSON report so repeated runs are\n"
        "byte-identical. --worker is ticsfleet's re-exec entry and\n"
        "takes no other flags. --seed replaces the seed axis when it\n"
        "holds a single seed.\n",
        argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    // The fleet worker entry speaks a framed protocol on stdio; it
    // must run before BenchSession can print anything to stdout.
    if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0)
        return fleet::runWorker();

    // Strips --json/--trace before our own argument loop.
    harness::BenchSession session("ticssweep", argc, argv);

    sweep::SweepConfig cfg;
    bool stable = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        const auto axis = [&](const char *key) {
            std::string err;
            if (!sweep::parseAxis(cfg.grid, key, next(), err)) {
                std::fprintf(stderr, "ticssweep: %s\n", err.c_str());
                std::exit(2);
            }
        };
        if (std::strcmp(arg, "--spec") == 0) {
            std::string err;
            if (!sweep::parseGridFile(next(), cfg.grid, err)) {
                std::fprintf(stderr, "ticssweep: %s\n", err.c_str());
                return 2;
            }
        } else if (std::strcmp(arg, "--apps") == 0) {
            axis("apps");
        } else if (std::strcmp(arg, "--runtimes") == 0) {
            axis("runtimes");
        } else if (std::strcmp(arg, "--supplies") == 0) {
            axis("supplies");
        } else if (std::strcmp(arg, "--caps-uf") == 0) {
            axis("caps_uf");
        } else if (std::strcmp(arg, "--segments") == 0) {
            axis("segments");
        } else if (std::strcmp(arg, "--envs") == 0) {
            axis("envs");
        } else if (std::strcmp(arg, "--seeds") == 0) {
            axis("seeds");
        } else if (std::strcmp(arg, "--jobs") == 0) {
            cfg.jobs = static_cast<unsigned>(std::atoi(next()));
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            cfg.useCache = false;
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            cfg.cacheDir = next();
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            cfg.budget =
                static_cast<TimeNs>(std::atoll(next())) * kNsPerSec;
        } else if (std::strcmp(arg, "--stable") == 0) {
            stable = true;
        } else if (std::strcmp(arg, "--seed") == 0) {
            const auto seed =
                static_cast<std::uint64_t>(std::atoll(next()));
            if (cfg.grid.seeds.size() == 1)
                cfg.grid.seeds[0] = seed;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    const sweep::SweepResult result = sweep::runSweep(cfg);
    sweep::sweepTable(result).print(std::cout);
    sweep::aggregateTable(result).print(std::cout);
    session.setGrid(sweep::toGridSection(result, stable));

    if (cfg.useCache)
        std::printf("ticssweep: %zu cells (%llu cached, %llu run) on "
                    "%u job(s)\n",
                    result.cells.size(),
                    static_cast<unsigned long long>(result.cacheHits),
                    static_cast<unsigned long long>(result.cacheMisses),
                    result.jobs);
    else
        std::printf("ticssweep: %zu cells (cache disabled) on %u "
                    "job(s)\n",
                    result.cells.size(), result.jobs);
    return 0;
}
