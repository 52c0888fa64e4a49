#include "coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/protocol.hpp"
#include "support/logging.hpp"

namespace ticsim::fleet {

namespace {

using Clock = std::chrono::steady_clock;

/** One live (or finished) worker process attempt. */
struct WorkerProc {
    pid_t pid = -1;
    int outFd = -1; ///< worker stdout -> coordinator
    FrameReader reader;
    std::size_t shard = 0;
    std::vector<std::size_t> assigned;
    Clock::time_point lastSeen;
    bool doneFrame = false;
    bool exited = false;

    bool alive() const { return !exited; }
};

std::string
joinIndices(const std::vector<std::size_t> &indices)
{
    std::string s;
    for (std::size_t k = 0; k < indices.size(); ++k) {
        if (k)
            s += ' ';
        s += std::to_string(indices[k]);
    }
    return s;
}

/** Spawn one worker attempt; @return false if the spawn itself
 *  failed (pipe/fork), which the caller treats as a crash. */
bool
spawnWorker(const FleetConfig &cfg, const std::string &workerBin,
            std::size_t shard, const std::vector<std::size_t> &indices,
            bool dieAfterOne, double remainingMs, WorkerProc &proc)
{
    int toChild[2];
    int fromChild[2];
    if (::pipe(toChild) != 0)
        return false;
    if (::pipe(fromChild) != 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        ::close(fromChild[1]);
        return false;
    }
    if (pid == 0) {
        ::dup2(toChild[0], STDIN_FILENO);
        ::dup2(fromChild[1], STDOUT_FILENO);
        ::close(toChild[0]);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        ::close(fromChild[1]);
        ::execl(workerBin.c_str(), workerBin.c_str(), "--worker",
                static_cast<char *>(nullptr));
        // exec failed: report on stderr and die; the parent sees EOF
        // without a done frame and handles it as a crash.
        std::fprintf(stderr, "ticssweep: cannot exec '%s': %s\n",
                     workerBin.c_str(), std::strerror(errno));
        ::_exit(127);
    }
    ::close(toChild[0]);
    ::close(fromChild[1]);

    Frame hello;
    hello["type"] = "hello";
    hello["spec"] = sweep::formatSpec(cfg.sweep.grid);
    hello["indices"] = joinIndices(indices);
    hello["shard"] = std::to_string(shard);
    // Literals go through std::string temporaries: assigning a char
    // pointer trips GCC 12's bogus -Wrestrict at -O3 (PR105329).
    hello["use_cache"] = std::string(cfg.sweep.useCache ? "1" : "0");
    hello["cache_dir"] = cfg.sweep.cacheDir;
    hello["budget_ns"] = std::to_string(cfg.sweep.budget);
    hello["unprotected_budget_ns"] =
        std::to_string(cfg.sweep.unprotectedBudget);
    hello["deadline_ms"] =
        remainingMs > 0.0
            ? std::to_string(static_cast<long long>(remainingMs))
            : std::string();
    hello["die_after"] = std::string(dieAfterOne ? "1" : "");
    const std::string wire = encodeFrame(hello);
    std::size_t off = 0;
    bool wrote = true;
    while (off < wire.size()) {
        const ssize_t n = ::write(toChild[1], wire.data() + off,
                                  wire.size() - off);
        if (n <= 0) {
            wrote = false;
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(toChild[1]); // the worker needs nothing after the hello
    ::fcntl(fromChild[0], F_SETFL, O_NONBLOCK);

    proc = WorkerProc{};
    proc.pid = pid;
    proc.outFd = fromChild[0];
    proc.shard = shard;
    proc.assigned = indices;
    proc.lastSeen = Clock::now();
    if (!wrote) {
        // The child died before reading the hello; let the normal
        // EOF path classify it as a crash.
        warn("ticssweep: short hello write to shard %zu", shard);
    }
    return true;
}

void
reap(WorkerProc &proc)
{
    if (proc.outFd >= 0) {
        ::close(proc.outFd);
        proc.outFd = -1;
    }
    if (proc.pid > 0) {
        int status = 0;
        ::waitpid(proc.pid, &status, 0);
        proc.pid = -1;
    }
    proc.exited = true;
}

void
killWorker(WorkerProc &proc)
{
    if (proc.pid > 0)
        ::kill(proc.pid, SIGKILL);
    reap(proc);
}

} // namespace

FleetResult
runFleet(const FleetConfig &cfg)
{
    if (cfg.workers == 0)
        fatal("runFleet: a fleet needs at least one worker; run an "
              "in-process grid through sweep::runSweep");

    // A dead worker must not kill the coordinator through its pipe.
    ::signal(SIGPIPE, SIG_IGN);

    const std::vector<sweep::Cell> cells = cfg.sweep.grid.cells();
    FleetResult out;
    out.sweep.cells.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        out.sweep.cells[i].cell = cells[i];
    std::vector<bool> filled(cells.size(), false);
    std::size_t filledCount = 0;

    const unsigned shardCount = std::max<unsigned>(
        1, std::min<unsigned>(cfg.workers,
                              cells.empty()
                                  ? 1
                                  : static_cast<unsigned>(
                                        cells.size())));

    // Deterministic round-robin deal over the canonical cell order.
    std::vector<std::vector<std::size_t>> shardCells(shardCount);
    for (std::size_t i = 0; i < cells.size(); ++i)
        shardCells[i % shardCount].push_back(i);

    harness::FleetSection &fleet = out.fleet;
    fleet.workersRequested = cfg.workers;
    fleet.cellsTotal = cells.size();
    fleet.workers.resize(shardCount);
    std::vector<unsigned> retriesUsed(shardCount, 0);
    for (std::size_t s = 0; s < shardCount; ++s) {
        fleet.workers[s].shard = s;
        fleet.workers[s].assigned = shardCells[s].size();
    }

    const std::string workerBin =
        cfg.workerBin.empty() ? "/proc/self/exe" : cfg.workerBin;
    const auto wallStart = Clock::now();
    const bool haveWall = cfg.wallBudgetS > 0.0;
    const auto wallDeadline =
        wallStart + std::chrono::milliseconds(static_cast<long long>(
                        cfg.wallBudgetS * 1e3));
    const auto remainingMsNow = [&]() -> double {
        if (!haveWall)
            return 0.0;
        const double ms =
            std::chrono::duration<double, std::milli>(wallDeadline -
                                                      Clock::now())
                .count();
        return ms > 1.0 ? ms : 1.0;
    };

    std::vector<WorkerProc> procs(shardCount);
    const auto missingOf = [&](std::size_t shard) {
        std::vector<std::size_t> missing;
        for (const std::size_t i : shardCells[shard])
            if (!filled[i])
                missing.push_back(i);
        return missing;
    };
    const auto launch = [&](std::size_t shard,
                            const std::vector<std::size_t> &indices,
                            bool firstAttempt) {
        const bool chaos =
            firstAttempt &&
            cfg.killWorkerShard >= 0 &&
            static_cast<std::size_t>(cfg.killWorkerShard) == shard;
        if (!spawnWorker(cfg, workerBin, shard, indices, chaos,
                         remainingMsNow(), procs[shard])) {
            warn("ticssweep: cannot spawn worker for shard %zu",
                 shard);
            procs[shard].exited = true;
            return;
        }
        ++fleet.workersSpawned;
        ++fleet.workers[shard].spawns;
    };

    for (std::size_t s = 0; s < shardCount; ++s)
        launch(s, shardCells[s], /*firstAttempt=*/true);

    const auto hbTimeout = std::chrono::milliseconds(
        static_cast<long long>(cfg.heartbeatTimeoutS * 1e3));

    // One attempt ends: classify it, then either retry its missing
    // cells on a fresh process or give the shard up.
    const auto attemptEnded = [&](std::size_t s, bool timedOut) {
        WorkerProc &p = procs[s];
        const bool clean = p.doneFrame && !timedOut;
        if (timedOut)
            killWorker(p);
        else
            reap(p);
        const std::vector<std::size_t> missing = missingOf(s);
        if (clean || missing.empty())
            return;
        if (timedOut) {
            ++fleet.timeouts;
            fleet.workers[s].timedOut = true;
        } else {
            ++fleet.crashes;
            fleet.workers[s].crashed = true;
        }
        const bool wallOk =
            !haveWall || Clock::now() < wallDeadline;
        if (retriesUsed[s] < cfg.maxRetries && wallOk) {
            ++retriesUsed[s];
            ++fleet.retries;
            fleet.workers[s].assigned += missing.size();
            warn("ticssweep: shard %zu %s; retry %u/%u over %zu "
                 "remaining cell(s)",
                 s, timedOut ? "missed heartbeats" : "crashed",
                 retriesUsed[s], cfg.maxRetries, missing.size());
            launch(s, missing, /*firstAttempt=*/false);
        } else {
            warn("ticssweep: shard %zu abandoned with %zu cell(s) "
                 "missing",
                 s, missing.size());
        }
    };

    char buf[65536];
    while (true) {
        if (filledCount == cells.size()) {
            // The grid is covered. Give live workers a brief grace to
            // deliver their in-flight done frames and exit cleanly,
            // then cancel stragglers — anything still running past
            // that can only produce duplicates.
            const auto grace =
                Clock::now() + std::chrono::milliseconds(500);
            while (Clock::now() < grace) {
                std::vector<pollfd> dfds;
                std::vector<std::size_t> dsh;
                for (std::size_t s = 0; s < shardCount; ++s) {
                    if (procs[s].alive()) {
                        dfds.push_back(
                            pollfd{procs[s].outFd, POLLIN, 0});
                        dsh.push_back(s);
                    }
                }
                if (dfds.empty())
                    break;
                ::poll(dfds.data(), dfds.size(), 50);
                for (std::size_t k = 0; k < dfds.size(); ++k) {
                    if (!(dfds[k].revents &
                          (POLLIN | POLLHUP | POLLERR)))
                        continue;
                    WorkerProc &p = procs[dsh[k]];
                    while (true) {
                        const ssize_t n =
                            ::read(p.outFd, buf, sizeof(buf));
                        if (n > 0)
                            continue; // duplicates/done: discard
                        if (n == 0)
                            reap(p);
                        break;
                    }
                }
            }
            for (std::size_t s = 0; s < shardCount; ++s) {
                if (procs[s].alive()) {
                    ++fleet.stragglersCancelled;
                    fleet.workers[s].cancelled = true;
                    killWorker(procs[s]);
                }
            }
            break;
        }
        if (haveWall && Clock::now() >= wallDeadline) {
            warn("ticssweep: wall budget exhausted with %zu/%zu "
                 "cells done",
                 filledCount, cells.size());
            for (auto &p : procs)
                if (p.alive())
                    killWorker(p);
            break;
        }
        bool anyAlive = false;
        std::vector<pollfd> fds;
        std::vector<std::size_t> fdShard;
        for (std::size_t s = 0; s < shardCount; ++s) {
            if (!procs[s].alive())
                continue;
            anyAlive = true;
            fds.push_back(pollfd{procs[s].outFd, POLLIN, 0});
            fdShard.push_back(s);
        }
        if (!anyAlive)
            break; // every shard finished or was abandoned
        ::poll(fds.data(), fds.size(), 100);

        for (std::size_t k = 0; k < fds.size(); ++k) {
            const std::size_t s = fdShard[k];
            WorkerProc &p = procs[s];
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            bool eof = false;
            while (true) {
                const ssize_t n = ::read(p.outFd, buf, sizeof(buf));
                if (n > 0) {
                    p.reader.feed(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n == 0)
                    eof = true;
                break; // EAGAIN or EOF
            }
            Frame frame;
            std::string err;
            while (p.reader.next(frame, err)) {
                p.lastSeen = Clock::now();
                const std::string &type = frame["type"];
                if (type == "result") {
                    const std::size_t i = static_cast<std::size_t>(
                        std::strtoull(frame["index"].c_str(),
                                      nullptr, 10));
                    if (i >= cells.size() ||
                        frame["canonical"] !=
                            cells[i].canonical()) {
                        warn("ticssweep: shard %zu sent a result "
                             "for an unknown cell; dropping it",
                             s);
                        continue;
                    }
                    if (filled[i]) {
                        ++fleet.duplicateResults;
                        continue;
                    }
                    sweep::SweepCellOutcome &cellOut =
                        out.sweep.cells[i];
                    if (!cellOut.result.decode(frame["result"]) ||
                        !cellOut.result.simMs.decode(
                            frame["dist"])) {
                        warn("ticssweep: shard %zu sent a "
                             "malformed result; dropping it",
                             s);
                        cellOut.result = sweep::CellResult{};
                        continue;
                    }
                    cellOut.fromCache = frame["cached"] == "1";
                    filled[i] = true;
                    ++filledCount;
                    ++fleet.workers[s].completed;
                } else if (type == "heartbeat") {
                    ++fleet.heartbeats;
                } else if (type == "done") {
                    p.doneFrame = true;
                } else if (type == "error") {
                    warn("ticssweep: shard %zu error: %s", s,
                         frame["message"].c_str());
                }
            }
            if (!err.empty() && !eof) {
                // A poisoned stream cannot recover; treat the worker
                // as crashed right away.
                warn("ticssweep: shard %zu protocol error: %s", s,
                     err.c_str());
                killWorker(p);
                attemptEnded(s, /*timedOut=*/false);
                continue;
            }
            if (eof)
                attemptEnded(s, /*timedOut=*/false);
        }

        // Heartbeat timeouts for workers that produced nothing at
        // all this interval.
        const auto now = Clock::now();
        for (std::size_t s = 0; s < shardCount; ++s) {
            WorkerProc &p = procs[s];
            if (p.alive() && now - p.lastSeen > hbTimeout)
                attemptEnded(s, /*timedOut=*/true);
        }
    }

    out.sweep.wallMs =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  wallStart)
            .count();
    out.sweep.jobs = shardCount;
    // A cell no worker finished has no result: list only the cells that
    // ran, so that neither the table, the grid section nor the
    // aggregates count a missing cell as one that ran and failed. The
    // fleet section and the [INCOMPLETE] line account for the hole.
    std::vector<sweep::SweepCellOutcome> ran;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (filled[i])
            ran.push_back(std::move(out.sweep.cells[i]));
    out.sweep.cells = std::move(ran);
    if (cfg.sweep.useCache) {
        for (const sweep::SweepCellOutcome &c : out.sweep.cells) {
            if (c.fromCache)
                ++out.sweep.cacheHits;
            else
                ++out.sweep.cacheMisses;
        }
    }
    out.sweep.aggregates = sweep::aggregateOutcomes(out.sweep.cells);

    out.complete = filledCount == cells.size();
    fleet.cellsCompleted = filledCount;
    fleet.complete = out.complete;
    fleet.wallMs = out.sweep.wallMs;
    std::set<std::string> envs;
    for (const auto &cell : cells)
        if (!cell.env.empty())
            envs.insert(cell.env);
    fleet.envs.assign(envs.begin(), envs.end());
    return out;
}

} // namespace ticsim::fleet
