/**
 * @file
 * ticssweep: the experiment-orchestration CLI. Enumerates a grid of
 * (app, runtime, supply, capacitor, segment, env, seed) cells — from a
 * spec file or CLI axis flags — and runs them through a
 * content-addressed result cache, either in this process on a
 * work-stealing pool (--jobs N, the default) or across N re-execs of
 * this binary (--workers N; `--worker` is their stdio entry).
 *
 * The output is deterministic: any --jobs or --workers count, any
 * cache state, and a worker lost mid-run and retried all produce
 * byte-identical tables and, under --stable, byte-identical --json
 * documents. A non-stable fleet run adds the run_report v8 `fleet`
 * section. --budget-s is the per-cell virtual-time budget, as in every
 * other tool; --max-seconds caps a fleet run's host wall clock.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "fleet/coordinator.hpp"
#include "fleet/worker.hpp"
#include "harness/report.hpp"
#include "support/parse.hpp"
#include "sweep/sweep.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--spec PATH] [--apps L] [--runtimes L]\n"
        "          [--supplies L] [--caps-uf L] [--segments L]\n"
        "          [--envs L] [--seeds L] [--seed N] [--jobs N]\n"
        "          [--no-cache] [--cache-dir PATH] [--budget-s N]\n"
        "          [--stable] [--json PATH] [--trace PATH]\n"
        "          [--workers N [--max-seconds S] [--max-retries N]\n"
        "           [--heartbeat-timeout-s S] [--kill-worker SHARD]\n"
        "           [--require-complete]]\n"
        "       %s --worker   (fleet worker protocol on stdio)\n"
        "Runs the cross-product of experiment axes with a\n"
        "content-addressed result cache. Axis lists (L) are\n"
        "comma-separated; supplies accept continuous, rf, stochastic\n"
        "and pattern:<periodMs>:<onFraction>. --seed replaces the seed\n"
        "axis when it holds a single seed. --budget-s is the per-cell\n"
        "virtual-time budget. --stable zeroes the wall-clock and cache\n"
        "fields of the JSON report so repeated runs are byte-identical.\n"
        "Cells run in-process on --jobs threads (0 = every hardware\n"
        "thread), or with --workers N >= 1 across N re-execs of this\n"
        "binary instead. Fleet flags: --max-seconds caps host\n"
        "wall-clock (each worker also honors it locally);\n"
        "--require-complete exits nonzero unless every cell produced a\n"
        "result; --kill-worker makes that shard's first process\n"
        "SIGKILL itself after one result, exercising the retry path.\n",
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

    fleet::FleetConfig fleetCfg;
    sweep::SweepConfig &cfg = fleetCfg.sweep;
    unsigned workers = 0; // 0 = run in-process
    bool stable = false;
    bool requireComplete = false;
    bool jobsGiven = false;
    const char *fleetFlag = nullptr; // last flag that needs --workers

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        const auto fleetNext = [&] {
            fleetFlag = arg;
            return next();
        };
        const auto count = [&](const char *value, std::uint64_t max) {
            return flagU64("ticssweep", arg, value, max);
        };
        const auto real = [&](const char *value) {
            return flagDouble("ticssweep", arg, value);
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
            cfg.jobs = static_cast<unsigned>(count(next(), kMaxJobs));
            jobsGiven = true;
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            cfg.useCache = false;
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            cfg.cacheDir = next();
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            cfg.budget =
                count(next(), kMaxTimeNs / kNsPerSec) * kNsPerSec;
        } else if (std::strcmp(arg, "--stable") == 0) {
            stable = true;
        } else if (std::strcmp(arg, "--seed") == 0) {
            const std::uint64_t seed = count(next(), UINT64_MAX);
            if (cfg.grid.seeds.size() == 1)
                cfg.grid.seeds[0] = seed;
        } else if (std::strcmp(arg, "--workers") == 0) {
            workers = static_cast<unsigned>(count(next(), kMaxJobs));
        } else if (std::strcmp(arg, "--max-seconds") == 0) {
            fleetCfg.wallBudgetS = real(fleetNext());
        } else if (std::strcmp(arg, "--max-retries") == 0) {
            fleetCfg.maxRetries =
                static_cast<unsigned>(count(fleetNext(), UINT32_MAX));
        } else if (std::strcmp(arg, "--heartbeat-timeout-s") == 0) {
            fleetCfg.heartbeatTimeoutS = real(fleetNext());
        } else if (std::strcmp(arg, "--kill-worker") == 0) {
            fleetCfg.killWorkerShard =
                static_cast<int>(count(fleetNext(), kMaxJobs));
        } else if (std::strcmp(arg, "--require-complete") == 0) {
            fleetFlag = arg;
            requireComplete = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    // Flags of the other mode would be silently ignored; refuse them.
    if (workers == 0 && fleetFlag != nullptr) {
        std::fprintf(stderr,
                     "ticssweep: %s applies only to a fleet run "
                     "(--workers N, N >= 1)\n",
                     fleetFlag);
        return 2;
    }
    if (workers > 0 && jobsGiven) {
        std::fprintf(stderr,
                     "ticssweep: --jobs applies only to an in-process "
                     "run; each --workers process runs its cells one "
                     "at a time\n");
        return 2;
    }

    const auto report = [&](const sweep::SweepResult &result) {
        sweep::sweepTable(result).print(std::cout);
        sweep::aggregateTable(result).print(std::cout);
        session.setGrid(sweep::toGridSection(result, stable));
    };

    if (workers == 0) {
        const sweep::SweepResult result = sweep::runSweep(cfg);
        report(result);
        if (cfg.useCache)
            std::printf(
                "ticssweep: %zu cells (%llu cached, %llu run) on "
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

    fleetCfg.workers = workers;
    fleet::FleetResult result = fleet::runFleet(fleetCfg);
    result.fleet.requireComplete = requireComplete;
    report(result.sweep);
    // --stable documents are byte-compared against in-process output,
    // so the run-varying fleet account is dropped there.
    if (!stable)
        session.setFleet(result.fleet);

    std::printf("ticssweep: %llu/%llu cells over %u worker(s), "
                "%llu spawn(s), %llu retr%s%s\n",
                static_cast<unsigned long long>(
                    result.fleet.cellsCompleted),
                static_cast<unsigned long long>(
                    result.fleet.cellsTotal),
                workers,
                static_cast<unsigned long long>(
                    result.fleet.workersSpawned),
                static_cast<unsigned long long>(result.fleet.retries),
                result.fleet.retries == 1 ? "y" : "ies",
                result.complete ? "" : " [INCOMPLETE]");
    if (requireComplete && !result.complete) {
        std::fprintf(stderr,
                     "ticssweep: --require-complete: %llu cell(s) "
                     "missing\n",
                     static_cast<unsigned long long>(
                         result.fleet.cellsTotal -
                         result.fleet.cellsCompleted));
        return 1;
    }
    return 0;
}
