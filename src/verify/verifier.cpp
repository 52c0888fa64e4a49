#include "verifier.hpp"

#include <memory>
#include <utility>

#include "analysis/war_detector.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "runtimes/task_core.hpp"
#include "tics/runtime.hpp"
#include "verify/demo_app.hpp"

namespace ticsim::verify {

namespace {

/** Collapse detector hazards to deduplicated model WAR ranges. */
void
fillWarRanges(ProgramModel &model, const analysis::WarReport &war)
{
    for (const auto &h : war.hazards) {
        bool dup = false;
        for (const auto &w : model.warLatent) {
            if (w.region == h.region && w.offset == h.offset &&
                w.bytes == h.bytes) {
                dup = true;
                break;
            }
        }
        if (!dup)
            model.warLatent.push_back(
                {h.region, h.offset, h.bytes, h.interval});
    }
}

/** Count task dispatches out of the recorded side events. */
void
fillTaskDispatches(ProgramModel &model)
{
    for (const auto &r : model.regions) {
        for (const auto &s : r.sites) {
            if (s.kind != mem::SideEventKind::TaskDispatch)
                continue;
            for (auto &t : model.tasks) {
                if (t.name == s.id) {
                    ++t.dispatches;
                    break;
                }
            }
        }
    }
}

template <bool Guarded>
harness::ScenarioInstance
buildRelay(board::Board &b, const harness::ScenarioParams &p)
{
    SensorRelayOptions o;
    o.checkFreshness = Guarded;
    o.useVirtualRadio = Guarded;
    auto rt = std::make_unique<tics::TicsRuntime>(p.tics);
    auto app = std::make_unique<SensorRelayApp>(b, *rt, o);
    return harness::makeInstance(std::move(rt), std::move(app));
}

const harness::Scenario kRelay[] = {
    {"Relay+guard", "TICS", true, "tics.ckpt", buildRelay<true>},
    {"Relay-unguard", "TICS", true, "tics.ckpt", buildRelay<false>},
};

} // namespace

ProgramModel
calibrateModel(const harness::Scenario &s,
               const harness::ScenarioParams &params, std::uint64_t seed,
               TimeNs budget, bool record)
{
    auto board = harness::makeBoard(harness::continuousSpec(), seed);
    harness::ScenarioInstance inst = s.build(*board, params);

    ModelRecorder rec(*board);
    const auto res =
        board->run(*inst.runtime, std::move(inst.entry), budget);
    rec.finalize();

    // Interval view before the move below empties the recorder.
    const auto war = analysis::WarHazardDetector(board->nvram())
                         .analyze(rec.intervalView());

    ProgramModel model = std::move(rec.model());
    model.app = s.app;
    model.runtime = s.runtime;
    const bool verified = inst.verify();
    model.calibrated = res.completed && verified;
    fillWarRanges(model, war);
    if (const auto *t = dynamic_cast<tics::TicsRuntime *>(
            inst.runtime.get()))
        model.segmentBytes = t->config().segmentBytes;
    if (const auto *t = dynamic_cast<taskrt::TaskRuntime *>(
            inst.runtime.get())) {
        for (std::size_t i = 0; i < t->taskCount(); ++i)
            model.tasks.push_back(
                {t->task(static_cast<taskrt::TaskId>(i)).name, 0});
        model.channelCount = t->channelCount();
    }
    fillTaskDispatches(model);

    if (record)
        harness::recordRun(model.app + "/calibration", *inst.runtime,
                           *board, res);
    return model;
}

std::span<const harness::Scenario>
relayScenarios()
{
    return kRelay;
}

std::vector<const harness::Scenario *>
verifierScenarios()
{
    std::vector<const harness::Scenario *> out;
    for (const harness::Scenario &s : harness::scenarios()) {
        if (harness::inConsistencyMatrix(s) ||
            std::string_view(s.runtime) == "TICS" || !s.isProtected)
            out.push_back(&s);
    }
    for (const harness::Scenario &s : relayScenarios())
        out.push_back(&s);
    return out;
}

EnergyBudget
deploymentBudget(const VerifyConfig &cfg,
                 const device::CostModel &costs)
{
    if (cfg.capacitanceF > 0.0)
        return capacitorBudget(cfg.capacitanceF, cfg.capVOn,
                               cfg.capVOff, cfg.capMaxOffTime, costs,
                               cfg.rebootLimit);
    return patternBudget(cfg.patternPeriod, cfg.patternOnFraction,
                         costs, cfg.rebootLimit);
}

std::vector<AppVerdict>
verifyMatrix(const VerifyConfig &cfg)
{
    const device::CostModel costs{};
    const EnergyBudget budget = deploymentBudget(cfg, costs);

    harness::ScenarioParams params;
    params.ar = cfg.ar;
    params.bc = cfg.bc;
    params.cuckoo = cfg.cuckoo;
    params.tics = harness::matrixTics();

    std::vector<AppVerdict> out;
    for (const harness::Scenario *s : verifierScenarios()) {
        AppVerdict v;
        v.app = s->app;
        v.runtime = s->runtime;
        v.isProtected = s->isProtected;
        // MementOS-like used to carry expected WAR possibilities here:
        // with no undo log, globals written before a boot's first
        // checkpoint were unrecoverable. The genesis-snapshot
        // hardening (DESIGN.md Section 8) closed that window — fresh
        // boots rewrite tracked globals from their initial .data image
        // — so every protected runtime must now verify WAR-clean.
        v.expectWar = !s->isProtected;
        v.model = calibrateModel(*s, params, cfg.seed,
                                 cfg.calibrationBudget, /*record=*/true);
        v.findings = analyzeAll(v.model, budget, costs);
        out.push_back(std::move(v));
    }
    return out;
}

bool
verdictOk(const AppVerdict &v)
{
    if (!v.model.calibrated)
        return false;
    // Pairs without full versioning coverage (plain C, MementOS-like)
    // must come out WAR-flagged; everything else must be WAR-clean.
    // The energy verdict is size-dependent — a whole program that fits
    // one charge window (AR under plain C) legitimately passes it —
    // and guard-bypassing app findings (io/timeliness) are reported
    // but are the app's problem, not the runtime's.
    if (v.expectWar)
        return v.count("war-possibility") > 0;
    return v.count("war-possibility") == 0;
}

Table
verdictTable(const std::vector<AppVerdict> &verdicts)
{
    Table t("ticsverify: static verification per (app, runtime)");
    t.header({"App", "Runtime", "Calib", "Regions", "WorstCyc",
              "Energy", "Timely", "IO", "WAR", "Verdict"});
    for (const auto &v : verdicts) {
        t.row()
            .cell(v.app)
            .cell(v.runtime)
            .cell(v.model.calibrated ? "yes" : "NO")
            .cell(static_cast<std::uint64_t>(v.model.regions.size()))
            .cell(v.model.worstRegionCycles())
            .cell(static_cast<std::uint64_t>(v.count("energy-progress")))
            .cell(static_cast<std::uint64_t>(v.count("timeliness")))
            .cell(static_cast<std::uint64_t>(v.count("io-idempotency")))
            .cell(static_cast<std::uint64_t>(
                v.count("war-possibility")))
            .cell(!verdictOk(v)          ? "FAIL"
                  : !v.isProtected       ? "unsafe (expected)"
                  : v.expectWar          ? "flagged (known)"
                                         : "verified");
    }
    return t;
}

Table
findingTable(const std::vector<AppVerdict> &verdicts)
{
    Table t("ticsverify: per-finding detail");
    t.header({"Analysis", "App", "Runtime", "Subject", "Region",
              "Anchor", "Detail"});
    for (const auto &v : verdicts) {
        for (const auto &f : v.findings) {
            std::string detail = f.detail;
            if (detail.size() > 72)
                detail = detail.substr(0, 69) + "...";
            t.row()
                .cell(f.analysis)
                .cell(f.app)
                .cell(f.runtime)
                .cell(f.subject)
                .cell(static_cast<std::uint64_t>(f.regionIndex))
                .cell(f.anchor)
                .cell(detail);
        }
    }
    return t;
}

std::vector<Finding>
allFindings(const std::vector<AppVerdict> &verdicts)
{
    std::vector<Finding> out;
    for (const auto &v : verdicts)
        out.insert(out.end(), v.findings.begin(), v.findings.end());
    return out;
}

} // namespace ticsim::verify
