/**
 * @file
 * Tests for the fleet subsystem behind `ticssweep --workers N`: the
 * length-prefixed frame protocol (round-trips, partial feeds,
 * poisoning), the formatSpec/parseGridText spec shipping contract, the
 * env axis' canonical-string stability, cross-process cache
 * publication, and — when the ticssweep binary is available — an
 * end-to-end coordinator/worker run byte-compared against the
 * in-process engine, including the deterministic crash-retry chaos
 * path, and the ticssweep CLI's in-process/fleet byte identity and
 * mode-flag checks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "support/parse.hpp"
#include "sweep/cache.hpp"
#include "sweep/grid.hpp"
#include "sweep/sweep.hpp"

namespace ticsim {
namespace {

using fleet::Frame;
using fleet::FrameReader;

// ---- protocol ----------------------------------------------------------

TEST(FleetProtocol, EncodeParseRoundTrip)
{
    Frame f;
    f["type"] = "result";
    f["plain"] = "hello world";
    f["quotes"] = "say \"hi\" \\ done";
    f["newlines"] = "line1\nline2\r\ttabbed";
    f["control"] = std::string("\x01\x1f", 2);
    f["empty"] = "";
    f["utf8"] = "\xc3\xa9\xe2\x82\xac"; // passes through as bytes

    const std::string wire = fleet::encodeFrame(f);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame got;
    std::string err;
    ASSERT_TRUE(reader.next(got, err)) << err;
    EXPECT_EQ(got, f);
    EXPECT_FALSE(reader.next(got, err));
    EXPECT_TRUE(err.empty()) << "no frame is not an error";
}

TEST(FleetProtocol, SurvivesArbitraryFeedBoundaries)
{
    Frame a{{"type", "heartbeat"}, {"shard", "3"}};
    Frame b{{"type", "done"}, {"completed", "17"},
            {"payload", "with\nnewline and \"quote\""}};
    const std::string wire =
        fleet::encodeFrame(a) + fleet::encodeFrame(b);

    // One byte at a time: a frame must never parse early or tear.
    FrameReader reader;
    std::vector<Frame> got;
    Frame f;
    std::string err;
    for (const char c : wire) {
        reader.feed(&c, 1);
        while (reader.next(f, err))
            got.push_back(f);
        ASSERT_TRUE(err.empty()) << err;
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], a);
    EXPECT_EQ(got[1], b);
}

TEST(FleetProtocol, TwoFramesInOneFeed)
{
    const std::string wire =
        fleet::encodeFrame(Frame{{"type", "heartbeat"}}) +
        fleet::encodeFrame(Frame{{"type", "done"}});
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame f;
    std::string err;
    ASSERT_TRUE(reader.next(f, err));
    EXPECT_EQ(f.at("type"), "heartbeat");
    ASSERT_TRUE(reader.next(f, err));
    EXPECT_EQ(f.at("type"), "done");
    EXPECT_FALSE(reader.next(f, err));
}

TEST(FleetProtocol, PoisonsOnCorruptInput)
{
    const auto expectPoison = [](const std::string &wire,
                                 const char *what) {
        FrameReader reader;
        reader.feed(wire.data(), wire.size());
        Frame f;
        std::string err;
        EXPECT_FALSE(reader.next(f, err)) << what;
        EXPECT_TRUE(reader.poisoned()) << what;
        EXPECT_FALSE(err.empty()) << what;
        // Poisoned means poisoned: even valid bytes fed later stay
        // rejected — a torn stream cannot silently resync.
        const std::string good =
            fleet::encodeFrame(Frame{{"type", "heartbeat"}});
        reader.feed(good.data(), good.size());
        EXPECT_FALSE(reader.next(f, err)) << what;
    };
    expectPoison("notalength\n{}\n", "non-numeric length");
    expectPoison("2\n{}X\n", "missing frame terminator");
    expectPoison("999999999999\n", "implausible frame length");
    expectPoison(std::string(40, '1'), "oversized length line");
    expectPoison("7\n[1,2,3]\n", "frame is not an object");
    expectPoison("13\n{\"a\":\"b\"} junk\n", "trailing bytes");
    expectPoison("17\n{\"k\":\"a\",\"k\":\"b\"}\n",
                 "duplicate keys");
}

TEST(FleetProtocol, ParseRejectsNonStringValues)
{
    Frame f;
    std::string err;
    EXPECT_FALSE(fleet::parseFrameJson("{\"n\":42}", f, err));
    EXPECT_FALSE(
        fleet::parseFrameJson("{\"o\":{\"x\":\"y\"}}", f, err));
    EXPECT_TRUE(fleet::parseFrameJson("{\"s\":\"42\"}", f, err))
        << err;
}

// ---- spec shipping -----------------------------------------------------

TEST(FleetSpec, FormatParseRoundTripsTheGrid)
{
    sweep::GridSpec spec;
    spec.apps = {"BC", "CF"};
    spec.runtimes = {"TICS", "plain-C", "Alpaca-like"};
    sweep::SupplyAxis pat;
    pat.kind = sweep::SupplyKind::Pattern;
    pat.periodMs = 12.7;
    pat.onFraction = 0.59999999999999998; // %.17g must survive
    sweep::SupplyAxis rf;
    rf.kind = sweep::SupplyKind::Rf;
    spec.supplies = {pat, rf};
    spec.capsUf = {0.0, 47.5};
    spec.segments = {128, 256};
    spec.envs = {"", "solar_diurnal"};
    spec.seeds = {11, 12, 13};

    const std::string text = sweep::formatSpec(spec);
    sweep::GridSpec back;
    back.apps.clear();
    back.runtimes.clear();
    back.supplies.clear();
    back.capsUf.clear();
    back.segments.clear();
    back.envs.clear();
    back.seeds.clear();
    std::string err;
    ASSERT_TRUE(sweep::parseGridText(text, "<roundtrip>", back, err))
        << err;

    const auto a = spec.cells();
    const auto b = back.cells();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].canonical(), b[i].canonical()) << i;
}

TEST(FleetSpec, EnvAxisCanonicalIsPinned)
{
    sweep::Cell cell;
    cell.app = "BC";
    cell.runtime = "TICS";
    cell.segmentBytes = 256;
    cell.capUf = 100.0;
    cell.env = "solar_diurnal";
    cell.seed = 11;
    cell.supply =
        sweep::SupplyAxis{sweep::SupplyKind::Continuous, 0.0, 1.0};
    // Pinned: the env token sits between the base axes and the seed.
    // Changing this string invalidates every env cell's JobId and
    // cache entry — it must be deliberate, not incidental.
    EXPECT_EQ(cell.canonical(),
              "app=BC|rt=TICS|supply=continuous|cap_uf=100|seg=256"
              "|env=solar_diurnal|seed=11");
    // And env-less cells keep their pre-env canonical byte-for-byte
    // (no "|env=" token at all), preserving every existing JobId.
    cell.env.clear();
    EXPECT_EQ(cell.canonical().find("env="), std::string::npos);
}

TEST(FleetSpec, EnvCellsNormalizeTheSupplyAxis)
{
    // With a trace the supply axis is meaningless (the trace IS the
    // supply), so distinct supply tokens must collapse into one cell;
    // capacitance stays significant (trace supplies are harvested).
    sweep::GridSpec spec;
    spec.apps = {"BC"};
    spec.runtimes = {"plain-C"};
    sweep::SupplyAxis pat;
    sweep::SupplyAxis rf;
    rf.kind = sweep::SupplyKind::Rf;
    spec.supplies = {pat, rf};
    spec.capsUf = {10.0, 100.0};
    spec.envs = {"rf_mobile"};
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 2u); // caps only; supplies collapsed
    for (const auto &c : cells) {
        EXPECT_EQ(c.env, "rf_mobile");
        EXPECT_EQ(c.supply.kind, sweep::SupplyKind::Continuous);
    }
}

// ---- cross-process cache publication -----------------------------------

TEST(FleetCache, ConcurrentProcessesPublishSafely)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("ticsim-fleet-cache-" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    constexpr int kProcs = 4;
    constexpr int kCells = 24;

    // Every child stores the SAME cells concurrently: O_EXCL staging
    // plus rename must let all of them win some and lose some without
    // ever publishing a torn file.
    std::vector<pid_t> pids;
    for (int p = 0; p < kProcs; ++p) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            const sweep::ResultCache cache(dir);
            for (int rep = 0; rep < 3; ++rep) {
                for (int c = 0; c < kCells; ++c) {
                    sweep::Cell cell;
                    cell.app = "BC";
                    cell.runtime = "plain-C";
                    cell.seed = static_cast<std::uint64_t>(c);
                    sweep::CellResult r;
                    r.completed = true;
                    r.cycles = 1000u + static_cast<unsigned>(c);
                    r.onTimeNs = 5u * kNsPerMs;
                    r.simMs.sample(r.simMsValue());
                    cache.store(cell, r);
                }
            }
            ::_exit(0);
        }
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    const sweep::ResultCache cache(dir);
    for (int c = 0; c < kCells; ++c) {
        sweep::Cell cell;
        cell.app = "BC";
        cell.runtime = "plain-C";
        cell.seed = static_cast<std::uint64_t>(c);
        sweep::CellResult r;
        ASSERT_TRUE(cache.lookup(cell, r)) << c;
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.cycles, 1000u + static_cast<unsigned>(c));
    }
    // No staging temp may be left behind (each is either renamed or
    // unlinked).
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
            << e.path();
    std::filesystem::remove_all(dir);
}

// ---- end-to-end coordinator/worker -------------------------------------

#ifdef TICSIM_TICSSWEEP_BIN

fleet::FleetConfig
e2eConfig()
{
    fleet::FleetConfig cfg;
    cfg.sweep.grid.apps = {"BC"};
    cfg.sweep.grid.runtimes = {"plain-C"};
    cfg.sweep.grid.seeds = {11, 12, 13, 14};
    cfg.sweep.unprotectedBudget = 200 * kNsPerMs;
    cfg.sweep.useCache = false;
    cfg.workerBin = TICSIM_TICSSWEEP_BIN;
    return cfg;
}

void
expectSameSweep(const sweep::SweepResult &a,
                const sweep::SweepResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].cell.canonical(),
                  b.cells[i].cell.canonical());
        EXPECT_EQ(a.cells[i].result.encode(),
                  b.cells[i].result.encode())
            << a.cells[i].cell.canonical();
        EXPECT_EQ(a.cells[i].result.simMs.encode(),
                  b.cells[i].result.simMs.encode());
    }
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
    for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
        EXPECT_EQ(a.aggregates[i].groupKey, b.aggregates[i].groupKey);
        EXPECT_EQ(a.aggregates[i].simMs.encode(),
                  b.aggregates[i].simMs.encode());
    }
}

TEST(FleetE2E, WorkersMatchInProcessRun)
{
    fleet::FleetConfig cfg = e2eConfig();
    const sweep::SweepResult serial = sweep::runSweep(cfg.sweep);

    cfg.workers = 3;
    const fleet::FleetResult result = fleet::runFleet(cfg);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.fleet.cellsCompleted, serial.cells.size());
    EXPECT_EQ(result.fleet.crashes, 0u);
    expectSameSweep(result.sweep, serial);
}

TEST(FleetE2E, CrashedWorkerIsRetriedWithIdenticalResults)
{
    fleet::FleetConfig cfg = e2eConfig();
    const sweep::SweepResult serial = sweep::runSweep(cfg.sweep);

    cfg.workers = 2;
    cfg.killWorkerShard = 0; // SIGKILL mid-shard, then retry
    const fleet::FleetResult result = fleet::runFleet(cfg);
    ASSERT_TRUE(result.complete);
    EXPECT_GE(result.fleet.crashes, 1u);
    EXPECT_GE(result.fleet.retries, 1u);
    EXPECT_GE(result.fleet.workersSpawned, 3u);
    EXPECT_TRUE(result.fleet.workers[0].crashed);
    expectSameSweep(result.sweep, serial);
}

TEST(FleetDeathTest, ZeroWorkersIsFatal)
{
    // An in-process grid runs through sweep::runSweep; runFleet has no
    // silent in-process mode to fall back on.
    fleet::FleetConfig cfg = e2eConfig();
    cfg.workers = 0;
    EXPECT_EXIT(fleet::runFleet(cfg), testing::ExitedWithCode(1),
                "at least one worker");
}

TEST(FleetE2E, MissingWorkerBinaryReportsIncomplete)
{
    fleet::FleetConfig cfg = e2eConfig();
    cfg.workers = 2;
    cfg.maxRetries = 1;
    cfg.workerBin = "/nonexistent/ticssweep";
    const fleet::FleetResult result = fleet::runFleet(cfg);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.fleet.cellsCompleted, 0u);
    EXPECT_GE(result.fleet.crashes, 1u);
    // No cell ran, so none is listed or aggregated as a failed one.
    EXPECT_TRUE(result.sweep.cells.empty());
    EXPECT_TRUE(result.sweep.aggregates.empty());
}

TEST(FleetE2E, CellsOfAnIncompleteRunAreTheOnesThatRan)
{
    fleet::FleetConfig cfg = e2eConfig();
    const sweep::SweepResult serial = sweep::runSweep(cfg.sweep);

    // Shard 0 dies after one result and may not be retried.
    cfg.workers = 2;
    cfg.killWorkerShard = 0;
    cfg.maxRetries = 0;
    const fleet::FleetResult result = fleet::runFleet(cfg);
    EXPECT_FALSE(result.complete);
    EXPECT_LT(result.fleet.cellsCompleted, serial.cells.size());
    ASSERT_EQ(result.sweep.cells.size(), result.fleet.cellsCompleted);
    for (const sweep::SweepCellOutcome &c : result.sweep.cells) {
        bool found = false;
        for (const sweep::SweepCellOutcome &s : serial.cells) {
            if (s.cell.jobId() != c.cell.jobId())
                continue;
            found = true;
            EXPECT_EQ(c.result.encode(), s.result.encode())
                << c.cell.canonical();
        }
        EXPECT_TRUE(found) << c.cell.canonical();
    }
}

/** Run ticssweep with @p args, output discarded; @return its exit
 *  status (-1 if it did not exit normally). */
int
runTicssweep(const std::string &args)
{
    const std::string cmd = std::string("'") + TICSIM_TICSSWEEP_BIN +
                            "' " + args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(FleetE2E, CliWorkerCountNeverChangesAByte)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("ticsim-fleet-cli-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string grid = "--apps BC --runtimes TICS,plain-C "
                             "--seeds 11,12 --no-cache --stable --json ";
    const std::string inProcess = (dir / "inprocess.json").string();
    const std::string workers = (dir / "workers2.json").string();
    const std::string chaos = (dir / "chaos.json").string();

    ASSERT_EQ(runTicssweep(grid + inProcess), 0);
    ASSERT_EQ(runTicssweep(grid + workers + " --workers 2"), 0);
    ASSERT_EQ(runTicssweep(grid + chaos +
                           " --workers 2 --kill-worker 0"
                           " --require-complete"),
              0);

    const std::string expected = slurp(inProcess);
    EXPECT_NE(expected.find("\"cells\""), std::string::npos);
    EXPECT_EQ(slurp(workers), expected);
    EXPECT_EQ(slurp(chaos), expected);
    std::filesystem::remove_all(dir);
}

TEST(FleetE2E, CliRejectsFlagsOfTheOtherMode)
{
    const std::string grid = "--apps BC --runtimes plain-C --seeds 11 "
                             "--no-cache ";
    // A wall cap, or any other fleet knob, without a fleet to apply to.
    EXPECT_EQ(runTicssweep(grid + "--max-seconds 5"), 2);
    EXPECT_EQ(runTicssweep(grid + "--require-complete --workers 0"), 2);
    // Worker processes run their cells one at a time.
    EXPECT_EQ(runTicssweep(grid + "--jobs 2 --workers 2"), 2);
    // A number flag or axis takes a whole, in-range number or nothing.
    // On this one-cell grid a wrongly accepted count still starts at
    // most one thread or worker.
    EXPECT_EQ(runTicssweep(grid + "--workers abc"), 2);
    EXPECT_EQ(runTicssweep(grid + "--workers -1"), 2);
    EXPECT_EQ(runTicssweep(grid + "--jobs 2x"), 2);
    EXPECT_EQ(runTicssweep("--apps BC --runtimes plain-C --seeds -3 "
                           "--no-cache"),
              2);
    EXPECT_EQ(runTicssweep(grid + "--max-seconds nan --workers 1"), 2);
    const std::string overBound = std::to_string(kMaxJobs + 1);
    EXPECT_EQ(runTicssweep(grid + "--jobs " + overBound), 2);
    EXPECT_EQ(runTicssweep(grid + "--workers " + overBound), 2);
    // Each flag is accepted in its own mode.
    EXPECT_EQ(runTicssweep(grid + "--max-seconds 60 --workers 1"), 0);
    EXPECT_EQ(runTicssweep(grid + "--jobs 2"), 0);
}

#endif // TICSIM_TICSSWEEP_BIN

} // namespace
} // namespace ticsim
