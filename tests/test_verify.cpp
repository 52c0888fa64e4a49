/**
 * @file
 * Tests for the static verification subsystem (ticsverify): energy
 * budget arithmetic, the three analyses on hand-built models, program
 * model recovery from calibration runs, the full-matrix verdict split,
 * the cross-validation soundness gate against the dynamic checker, and
 * the ticsverify CLI's mode flags and baseline gates.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/war_detector.hpp"
#include "apps/bc/bc_legacy.hpp"
#include "harness/experiment.hpp"
#include "runtimes/plainc.hpp"
#include "tics/runtime.hpp"
#include "verify/crossval.hpp"
#include "verify/demo_app.hpp"
#include "verify/model.hpp"
#include "verify/verifier.hpp"

using namespace ticsim;
using namespace ticsim::verify;

namespace {

const device::CostModel kCosts{};

tics::TicsConfig
testTicsConfig()
{
    tics::TicsConfig c;
    c.segmentBytes = 256;
    c.policy = tics::PolicyKind::Timer;
    c.timerPeriod = 5 * kNsPerMs;
    return c;
}

/** A minimal one-region model for the synthetic analysis tests. */
ProgramModel
syntheticModel(Cycles regionCycles)
{
    ProgramModel m;
    m.app = "synthetic";
    m.runtime = "test";
    m.calibrated = true;
    RegionNode r;
    r.index = 0;
    r.anchor = "region#0";
    r.cycles = regionCycles;
    m.regions.push_back(std::move(r));
    return m;
}

} // namespace

// ---- energy budgets --------------------------------------------------------

TEST(EnergyBudget, PatternBudgetCycleArithmetic)
{
    const auto b = patternBudget(30 * kNsPerMs, 0.6, kCosts, 300);
    EXPECT_TRUE(b.bounded);
    // 18 ms on at 1 MHz.
    EXPECT_EQ(b.windowCycles, 18000u);
    EXPECT_EQ(b.maxOutageNs, 12 * kNsPerMs);
    EXPECT_EQ(b.maxOutages, 300u);
    EXPECT_EQ(b.worstOutageAccumulationNs(), 300 * 12 * kNsPerMs);
}

TEST(EnergyBudget, CapacitorBudgetFromUsableCharge)
{
    // E = C/2 (3.0^2 - 1.8^2) = C/2 * 5.76; per-cycle 0.75 nJ @ 1 MHz.
    const auto big = capacitorBudget(10e-6, 3.0, 1.8,
                                     3600 * kNsPerSec, kCosts, 300);
    EXPECT_EQ(big.windowCycles, 38400u);
    const auto small = capacitorBudget(1e-6, 3.0, 1.8,
                                       3600 * kNsPerSec, kCosts, 300);
    EXPECT_EQ(small.windowCycles, 3840u);
}

TEST(EnergyBudget, UnboundedBudgetDisablesAllAnalyses)
{
    auto m = syntheticModel(1'000'000'000);
    m.warLatent.push_back({"glob", 0, 4, 0});
    const auto findings = analyzeAll(m, unboundedBudget(), kCosts);
    EXPECT_TRUE(findings.empty());
}

// ---- energy-progress on synthetic models -----------------------------------

TEST(EnergyProgress, RegionWithinOneChargeIsClean)
{
    const auto m = syntheticModel(10000);
    const auto b = patternBudget(30 * kNsPerMs, 0.6, kCosts, 300);
    // re-entry = boot 150 + restore 273 (+0 image, no versioning).
    EXPECT_EQ(reentryCycles(m, m.regions[0], kCosts), 423u);
    EXPECT_TRUE(analyzeEnergyProgress(m, b, kCosts).empty());
}

TEST(EnergyProgress, OversizedRegionIsStaticallyNonTerminating)
{
    const auto m = syntheticModel(20000); // 20423 > 18000
    const auto b = patternBudget(30 * kNsPerMs, 0.6, kCosts, 300);
    const auto findings = analyzeEnergyProgress(m, b, kCosts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].analysis, "energy-progress");
    EXPECT_EQ(findings[0].anchor, "region#0");
    EXPECT_NE(findings[0].detail.find("never"), std::string::npos);
}

TEST(EnergyProgress, ReentryCountsRollbackOfVersionedTraffic)
{
    auto m = syntheticModel(10000);
    m.regions[0].versionedEntries = 10;
    m.regions[0].versionedBytes = 100;
    // + 10*230 rollback + 100*1.0 per-byte + restore image of the
    // versioned set (273 + 1.53*100 = 426).
    EXPECT_EQ(reentryCycles(m, m.regions[0], kCosts),
              150u + 426u + 2300u + 100u);
}

// ---- timeliness on synthetic models ----------------------------------------

namespace {

SiteEvent
site(mem::SideEventKind kind, const char *id, std::uint64_t u0,
     Cycles at)
{
    SiteEvent s;
    s.kind = kind;
    s.id = id;
    s.u0 = u0;
    s.atCycle = at;
    return s;
}

} // namespace

TEST(Timeliness, CrossRegionUnguardedUseIsFlagged)
{
    auto m = syntheticModel(1000);
    RegionNode r2;
    r2.index = 1;
    r2.anchor = "region#1";
    m.regions.push_back(std::move(r2));
    const TimeNs life = 15 * kNsPerMs;
    m.regions[0].sites.push_back(
        site(mem::SideEventKind::TimedAssign, "x", life, 100));
    m.regions[1].sites.push_back(
        site(mem::SideEventKind::TimedUse, "x", life, 9000));
    const auto b = patternBudget(30 * kNsPerMs, 0.6, kCosts, 300);
    const auto findings = analyzeTimeliness(m, b, kCosts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].subject, "x");
    EXPECT_EQ(findings[0].regionIndex, 1u);
}

TEST(Timeliness, FreshnessCheckInSameRegionGuardsTheUse)
{
    auto m = syntheticModel(1000);
    RegionNode r2;
    r2.index = 1;
    r2.anchor = "region#1";
    m.regions.push_back(std::move(r2));
    const TimeNs life = 15 * kNsPerMs;
    m.regions[0].sites.push_back(
        site(mem::SideEventKind::TimedAssign, "x", life, 100));
    m.regions[1].sites.push_back(
        site(mem::SideEventKind::TimedCheck, "x", life, 8000));
    m.regions[1].sites.push_back(
        site(mem::SideEventKind::TimedUse, "x", life, 9000));
    const auto b = patternBudget(30 * kNsPerMs, 0.6, kCosts, 300);
    EXPECT_TRUE(analyzeTimeliness(m, b, kCosts).empty());
}

TEST(Timeliness, SameRegionAssignAndUseCannotGoStale)
{
    // Re-execution of the region re-assigns before the use, so the
    // pair is not flaggable no matter how long the outages are.
    auto m = syntheticModel(1000);
    const TimeNs life = 1 * kNsPerMs;
    m.regions[0].sites.push_back(
        site(mem::SideEventKind::TimedAssign, "x", life, 100));
    m.regions[0].sites.push_back(
        site(mem::SideEventKind::TimedUse, "x", life, 900));
    const auto b = patternBudget(30 * kNsPerMs, 0.6, kCosts, 300);
    EXPECT_TRUE(analyzeTimeliness(m, b, kCosts).empty());
}

// ---- io-idempotency on synthetic models ------------------------------------

TEST(IoIdempotency, UnguardedSendIsFlaggedGuardedDrainIsNot)
{
    auto m = syntheticModel(1000);
    auto unguarded =
        site(mem::SideEventKind::PeripheralSend, "radio", 8, 500);
    auto guarded =
        site(mem::SideEventKind::PeripheralSend, "radio2", 8, 600);
    guarded.inIoGuard = true;
    m.regions[0].sites.push_back(unguarded);
    m.regions[0].sites.push_back(guarded);
    const auto b = patternBudget(30 * kNsPerMs, 0.6, kCosts, 300);
    const auto findings = analyzeIoIdempotency(m, b);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].subject, "radio");
}

// ---- model recovery --------------------------------------------------------

TEST(ModelRecovery, BcUnderTicsYieldsSegmentedCleanModel)
{
    auto board = harness::makeBoard(harness::continuousSpec(), 11);
    auto rt = std::make_unique<tics::TicsRuntime>(testTicsConfig());
    apps::BcParams p;
    auto app = std::make_unique<apps::BcLegacyApp>(*board, *rt, p);
    ModelRecorder rec(*board);
    const auto res =
        board->run(*rt, [&] { app->main(); }, 600 * kNsPerSec);
    rec.finalize();

    EXPECT_TRUE(res.completed);
    EXPECT_TRUE(app->verify());
    const auto &m = rec.model();
    EXPECT_GT(m.regions.size(), 2u); // periodic checkpoints cut regions
    EXPECT_GT(m.totalCycles, 0u);
    // TICS versions writes through its undo log: no latent WAR ranges.
    const auto war = analysis::WarHazardDetector(board->nvram())
                         .analyze(rec.intervalView());
    EXPECT_TRUE(war.clean());
}

TEST(ModelRecovery, BcUnderPlainCExposesLatentWar)
{
    // Regression for the verifier pipeline: the interval view of a
    // recovered plain-C model must carry the NV access stream, and the
    // WAR detector must find the unversioned read-modify-write of the
    // accumulator in it.
    auto board = harness::makeBoard(harness::continuousSpec(), 11);
    auto rt = std::make_unique<runtimes::PlainCRuntime>();
    apps::BcParams p;
    auto app = std::make_unique<apps::BcLegacyApp>(*board, *rt, p);
    ModelRecorder rec(*board);
    const auto res =
        board->run(*rt, [&] { app->main(); }, 600 * kNsPerSec);
    rec.finalize();

    EXPECT_TRUE(res.completed);
    const auto view = rec.intervalView();
    ASSERT_FALSE(view.empty());
    std::size_t events = 0;
    for (const auto &iv : view)
        events += iv.events.size();
    EXPECT_GT(events, 0u);
    const auto war =
        analysis::WarHazardDetector(board->nvram()).analyze(view);
    ASSERT_FALSE(war.hazards.empty());
    EXPECT_EQ(war.hazards[0].region, "bc.totalBits");
}

TEST(ModelRecovery, SensorRelayCalibratesBothVariants)
{
    for (const bool guard : {true, false}) {
        auto board = harness::makeBoard(harness::continuousSpec(), 11);
        auto rt =
            std::make_unique<tics::TicsRuntime>(testTicsConfig());
        SensorRelayOptions opt;
        opt.checkFreshness = guard;
        opt.useVirtualRadio = guard;
        auto app =
            std::make_unique<SensorRelayApp>(*board, *rt, opt);
        ModelRecorder rec(*board);
        const auto res =
            board->run(*rt, [&] { app->main(); }, 600 * kNsPerSec);
        rec.finalize();
        EXPECT_TRUE(res.completed);
        EXPECT_TRUE(app->verify());
    }
}

// ---- full-matrix verdicts --------------------------------------------------

TEST(VerifyMatrix, DefaultConfigurationMatchesExpectedSplit)
{
    const auto verdicts = verifyMatrix();
    ASSERT_FALSE(verdicts.empty());
    for (const auto &v : verdicts)
        EXPECT_TRUE(verdictOk(v)) << v.app << " / " << v.runtime;

    const auto find = [&](const std::string &app,
                          const std::string &rt) -> const AppVerdict & {
        for (const auto &v : verdicts) {
            if (v.app == app && v.runtime == rt)
                return v;
        }
        ADD_FAILURE() << "missing pair " << app << "/" << rt;
        return verdicts.front();
    };

    // Protected checkpointing runtimes come out WAR-clean.
    EXPECT_EQ(find("BC", "TICS").count("war-possibility"), 0u);
    EXPECT_EQ(find("Cuckoo", "Alpaca-like").count("war-possibility"),
              0u);
    // Plain C is WAR-flagged everywhere, energy-flagged when its one
    // region outgrows a charge window.
    EXPECT_GT(find("BC", "plain-C").count("war-possibility"), 0u);
    EXPECT_GT(find("BC", "plain-C").count("energy-progress"), 0u);
    EXPECT_GT(find("Cuckoo", "plain-C").count("energy-progress"), 0u);
    EXPECT_GT(find("GHM", "plain-C").count("energy-progress"), 0u);
    // MementOS-like: the genesis-snapshot hardening rewrites tracked
    // globals from their initial .data image on fresh boots, closing
    // the pre-first-checkpoint window that used to be WAR-flagged.
    EXPECT_EQ(find("BC", "MementOS-like").count("war-possibility"), 0u);
    // GHM transmits directly from mid-region code.
    EXPECT_GT(find("GHM", "TICS").count("io-idempotency"), 0u);
    // The self-test twins: guarded clean, unguarded flagged both ways.
    EXPECT_EQ(find("Relay+guard", "TICS").findings.size(), 0u);
    EXPECT_GT(find("Relay-unguard", "TICS").count("timeliness"), 0u);
    EXPECT_GT(find("Relay-unguard", "TICS").count("io-idempotency"),
              0u);
}

TEST(VerifyMatrix, UndersizedCapacitorFlagsNonTermination)
{
    VerifyConfig cfg;
    cfg.capacitanceF = 1e-6; // 3840-cycle windows: nothing fits
    const auto verdicts = verifyMatrix(cfg);
    std::size_t energy = 0;
    for (const auto &v : verdicts)
        energy += v.count("energy-progress");
    EXPECT_GT(energy, 0u);
    // The verdict split itself is energy-independent and still holds.
    for (const auto &v : verdicts)
        EXPECT_TRUE(verdictOk(v)) << v.app << " / " << v.runtime;
}

// ---- cross-validation soundness --------------------------------------------

TEST(CrossValidation, EveryDynamicDetectionIsCoveredStatically)
{
    const auto report = crossValidate();
    ASSERT_FALSE(report.rows.empty());
    EXPECT_GT(report.totalDynamic, 0u);
    EXPECT_TRUE(report.fullCoverage())
        << report.totalMatched << "/" << report.totalDynamic
        << " dynamic detections matched";
    for (const auto &row : report.rows) {
        EXPECT_DOUBLE_EQ(row.coverage(), 1.0)
            << row.app << " / " << row.runtime;
    }
    // The reverse gap exists (static over-approximates) and is
    // reported, not failed.
    EXPECT_GE(report.totalStatic, report.totalConfirmed);
}

TEST(CrossValidation, CheckerConfigFollowsTheDeployment)
{
    // At defaults the verifier's deployment is the checker's own.
    const analysis::CheckConfig plain = checkConfig(VerifyConfig{});
    const analysis::CheckConfig dflt{};
    EXPECT_EQ(plain.patternPeriod, dflt.patternPeriod);
    EXPECT_EQ(plain.patternOnFraction, dflt.patternOnFraction);
    EXPECT_EQ(plain.budget, dflt.budget);
    EXPECT_EQ(plain.unprotectedBudget, dflt.unprotectedBudget);
    EXPECT_EQ(plain.seed, dflt.seed);
    EXPECT_EQ(plain.bc.iterations, dflt.bc.iterations);
    EXPECT_EQ(plain.cuckoo.workScale, dflt.cuckoo.workScale);

    VerifyConfig cfg;
    cfg.patternPeriod = 40 * kNsPerMs;
    cfg.patternOnFraction = 0.5;
    cfg.calibrationBudget = 100 * kNsPerSec;
    cfg.seed = 3;
    cfg.bc.iterations = 7;
    const analysis::CheckConfig dyn = checkConfig(cfg);
    EXPECT_EQ(dyn.patternPeriod, 40 * kNsPerMs);
    EXPECT_EQ(dyn.patternOnFraction, 0.5);
    EXPECT_EQ(dyn.budget, 100 * kNsPerSec);
    EXPECT_EQ(dyn.seed, 3u);
    EXPECT_EQ(dyn.bc.iterations, 7u);
}

// ---- the ticsverify CLI ----------------------------------------------------

#ifdef TICSIM_TICSVERIFY_BIN

namespace {

struct CliRun {
    int status; ///< exit status, -1 if it did not exit normally
    std::string output; ///< stdout and stderr
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + "ticsverify-" +
           std::to_string(::getpid()) + "-" + name;
}

CliRun
runTicsverify(const std::string &args)
{
    const std::string out = scratchPath("out.txt");
    const std::string cmd = std::string("'") + TICSIM_TICSVERIFY_BIN +
                            "' " + args + " > '" + out + "' 2>&1";
    const int status = std::system(cmd.c_str());
    CliRun r{WIFEXITED(status) ? WEXITSTATUS(status) : -1, slurp(out)};
    std::remove(out.c_str());
    return r;
}

/** A committed baseline, repo-relative. */
std::string
committed(const std::string &rel)
{
    return std::string(TICSIM_SOURCE_DIR) + "/" + rel;
}

/** Write @p text to scratch file @p name; @return its path. */
std::string
scratchFile(const std::string &name, const std::string &text)
{
    const std::string path = scratchPath(name);
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

/** @p text with @p from replaced once by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

} // namespace

TEST(VerifyCli, RejectsFlagsOfAnotherMode)
{
    // Each refusal happens while parsing, before any run starts, and
    // names the flag and the mode it belongs to.
    const struct {
        const char *args;
        const char *reason;
    } cases[] = {
        {"--dynamic --crossval",
         "--crossval applies only to the default mode and --source"},
        {"--dynamic --baseline x",
         "--baseline applies only to the default mode and --source"},
        {"--source --prob", "--prob applies only to the default mode"},
        {"--source --jobs 2", "--jobs applies only to the default mode"},
        {"--dynamic --size-capacitor BC/TICS",
         "--size-capacitor applies only to the default mode"},
        {"--budget-s 5", "--budget-s applies only to --dynamic"},
        {"--source --budget-s 5", "--budget-s applies only to --dynamic"},
        {"--source-dir .", "--source-dir applies only to --source"},
        {"--dynamic --source-dir .", "--source-dir applies only to --source"},
        {"--dynamic --source", "--dynamic and --source exclude each other"},
    };
    for (const auto &c : cases) {
        const CliRun r = runTicsverify(c.args);
        EXPECT_EQ(r.status, 2) << c.args;
        EXPECT_NE(r.output.find(c.reason), std::string::npos)
            << c.args << ": " << r.output;
    }
}

TEST(VerifyCli, ProbTolNeedsThreeFiniteNonNegativeNumbers)
{
    // NaN would pass the gate's `dev > tol` test on every row; junk, a
    // missing or extra field, and negative, infinite or hex values are
    // malformed too.
    for (const char *tol : {"nan,nan,nan", "0.35,0.6,0.8junk", "0.35,0.6",
                            "0.35,0.6,0.8,1", "-1,0.6,0.8", "inf,1,1",
                            "0x1p-2,1,1", " 1,1,1", ""}) {
        const CliRun r =
            runTicsverify(std::string("--prob-tol '") + tol + "'");
        EXPECT_EQ(r.status, 2) << tol;
        EXPECT_NE(r.output.find("bad --prob-tol value"), std::string::npos)
            << tol << ": " << r.output;
    }
}

TEST(VerifyCli, UnknownSizingPairExitsTwoBeforeAnyRun)
{
    for (const char *pair : {"Nope/X", "BC", "BC/nope"}) {
        const CliRun r =
            runTicsverify(std::string("--size-capacitor '") + pair + "'");
        EXPECT_EQ(r.status, 2) << pair;
        EXPECT_NE(r.output.find("unknown pair"), std::string::npos)
            << r.output;
        EXPECT_EQ(r.output.find("static verification per"),
                  std::string::npos)
            << "ran the matrix first: " << r.output;
    }
}

TEST(VerifyCli, ProbModelsTheCommonDeployment)
{
    // --period-ms and --on-fraction mean one thing in every mode: the
    // probabilistic rows model that reset pattern too.
    const CliRun r =
        runTicsverify("--prob --period-ms 40 --on-fraction 0.5");
    EXPECT_EQ(r.status, 0) << r.output;
    EXPECT_NE(r.output.find("| pattern:40:0.5 "), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("pattern:30:0.6"), std::string::npos)
        << r.output;
}

TEST(VerifyCli, BaselineGatesFailOnAddedAndVanishedKeys)
{
    const std::string verify =
        slurp(committed("tools/ticsverify.baseline.json"));
    const std::string lint = slurp(committed("tools/ticslint.baseline.json"));
    ASSERT_FALSE(verify.empty());
    ASSERT_FALSE(lint.empty());

    // The committed files pass.
    EXPECT_EQ(runTicsverify("--baseline '" +
                            committed("tools/ticsverify.baseline.json") +
                            "'")
                  .status,
              0);
    EXPECT_EQ(runTicsverify("--source --baseline '" +
                            committed("tools/ticslint.baseline.json") + "'")
                  .status,
              0);

    // A key no finding produces: a fixed finding, or a stale file.
    const std::string phantomVerify = scratchFile(
        "phantom-verify.json",
        replaced(verify, "\"keys\":[",
                 "\"keys\":[\"BC|TICS|war-possibility|bc.phantom\","));
    CliRun r = runTicsverify("--baseline '" + phantomVerify + "'");
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("VANISHED FINDING (in baseline, not produced): "
                            "BC|TICS|war-possibility|bc.phantom"),
              std::string::npos)
        << r.output;

    const std::string phantomLint = scratchFile(
        "phantom-lint.json",
        replaced(lint, "\"keys\":[", "\"keys\":[\"bc.phantom\","));
    r = runTicsverify("--source --baseline '" + phantomLint + "'");
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("VANISHED FINDING (in baseline, not produced): "
                            "bc.phantom"),
              std::string::npos)
        << r.output;

    // A finding the baseline lacks.
    const std::string missingLint = scratchFile(
        "missing-lint.json",
        replaced(lint, "\"examples/quickstart.cpp|war|app.rounds\",", ""));
    r = runTicsverify("--source --baseline '" + missingLint + "'");
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("NEW FINDING (not in baseline): "
                            "examples/quickstart.cpp|war|app.rounds"),
              std::string::npos)
        << r.output;

    // Each mode refuses the other's file before it runs.
    EXPECT_EQ(runTicsverify("--baseline '" + phantomLint + "'").status, 2);
    EXPECT_EQ(runTicsverify("--source --baseline '" + phantomVerify + "'")
                  .status,
              2);
    std::remove(phantomVerify.c_str());
    std::remove(phantomLint.c_str());
    std::remove(missingLint.c_str());
}

TEST(VerifyCli, ProbBaselineGateNeedsProbVerdicts)
{
    const std::string verify =
        slurp(committed("tools/ticsverify.baseline.json"));
    const auto prob = verify.find(",\"prob\":[");
    ASSERT_NE(prob, std::string::npos);
    const std::string keysOnly = scratchFile(
        "keys-only.json", verify.substr(0, prob) + "}\n");

    // Without --prob the keys alone are gated, and they match.
    EXPECT_EQ(runTicsverify("--baseline '" + keysOnly + "'").status, 0);
    // Under --prob a file with nothing to compare fails, not skips.
    const CliRun r = runTicsverify("--prob --baseline '" + keysOnly + "'");
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("carries no prob verdicts"), std::string::npos)
        << r.output;
    std::remove(keysOnly.c_str());

    EXPECT_EQ(runTicsverify("--prob --baseline '" +
                            committed("tools/ticsverify.baseline.json") +
                            "'")
                  .status,
              0);
}

TEST(VerifyCli, WriteBaselineWritesTheModesWholeFile)
{
    // Without --prob and --crossval, each mode still writes what its
    // gates compare: the committed files, byte for byte.
    const std::string verify = scratchPath("written-verify.json");
    const std::string lint = scratchPath("written-lint.json");
    ASSERT_EQ(runTicsverify("--write-baseline '" + verify + "'").status, 0);
    ASSERT_EQ(runTicsverify("--source --write-baseline '" + lint + "'")
                  .status,
              0);
    EXPECT_EQ(slurp(verify),
              slurp(committed("tools/ticsverify.baseline.json")));
    EXPECT_EQ(slurp(lint), slurp(committed("tools/ticslint.baseline.json")));
    std::remove(verify.c_str());
    std::remove(lint.c_str());
}

#endif // TICSIM_TICSVERIFY_BIN
