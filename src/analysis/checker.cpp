#include "checker.hpp"

#include <utility>

#include "analysis/access_trace.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"

namespace ticsim::analysis {

namespace {

/** Everything one traced-or-reference run produces. */
struct RunOutcome {
    board::RunResult res;
    bool verified = false;
    ArenaSnapshot snap;
    WarReport war;
    std::uint64_t intervals = 0;
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
};

/**
 * One fresh board + runtime + app, run to completion or budget. The
 * catalog row rebuilds identical objects for the reference and subject
 * runs, so the two arenas have the same region layout and the replay
 * diff is byte-to-byte meaningful.
 */
RunOutcome
runOnce(const CheckConfig &cfg, const harness::Scenario &s,
        const harness::ScenarioParams &params, bool continuous,
        TimeNs budget)
{
    harness::SupplySpec spec =
        continuous ? harness::continuousSpec()
                   : harness::patternSpec(cfg.patternPeriod,
                                          cfg.patternOnFraction);
    auto board = harness::makeBoard(spec, cfg.seed);
    harness::ScenarioInstance inst = s.build(*board, params);

    RunOutcome out;
    if (continuous) {
        out.res = board->run(*inst.runtime, std::move(inst.entry), budget);
    } else {
        AccessTracer tracer(*board);
        out.res = board->run(*inst.runtime, std::move(inst.entry), budget);
        tracer.finalize();
        out.war = WarHazardDetector(board->nvram())
                      .analyze(tracer.intervals());
        out.intervals = tracer.intervals().size();
        out.readBytes = tracer.readBytes();
        out.writeBytes = tracer.writeBytes();
    }
    harness::recordRun(std::string(s.app) +
                           (continuous ? "/reference" : "/pattern"),
                       *inst.runtime, *board, out.res);
    out.verified = inst.verify();
    out.snap = ReplayOracle::capture(board->nvram(),
                                     ReplayOracle::appStateFilter());
    return out;
}

ScenarioFinding
checkPair(const CheckConfig &cfg, const harness::Scenario &s,
          const harness::ScenarioParams &params)
{
    const TimeNs subjectBudget =
        s.isProtected ? cfg.budget : cfg.unprotectedBudget;
    RunOutcome ref =
        runOnce(cfg, s, params, /*continuous=*/true, cfg.budget);
    RunOutcome sub =
        runOnce(cfg, s, params, /*continuous=*/false, subjectBudget);

    ScenarioFinding f;
    f.app = s.app;
    f.runtime = s.runtime;
    f.isProtected = s.isProtected;
    f.refCompleted = ref.res.completed;
    f.subject = sub.res;
    f.verified = sub.verified;
    f.intervals = sub.intervals;
    f.nvReadBytes = sub.readBytes;
    f.nvWriteBytes = sub.writeBytes;
    f.war = std::move(sub.war);
    f.replay = ReplayOracle::diff(ref.snap, sub.snap);
    return f;
}

} // namespace

bool
scenarioOk(const ScenarioFinding &f)
{
    if (!f.refCompleted)
        return false;
    if (f.isProtected) {
        return f.subject.completed && f.verified &&
               f.war.materialized() == 0 && f.replay.clean();
    }
    // The unprotected baseline only demonstrates anything if the reset
    // pattern actually interrupted it mid-interval.
    return f.subject.reboots > 0 && f.war.materialized() > 0 &&
           f.replay.divergentBytes > 0;
}

std::vector<ScenarioFinding>
checkMatrix(const CheckConfig &cfg)
{
    harness::ScenarioParams params;
    params.bc = cfg.bc;
    params.cuckoo = cfg.cuckoo;
    params.tics = harness::matrixTics();

    std::vector<ScenarioFinding> out;
    for (const harness::Scenario &s : harness::scenarios()) {
        if (harness::inConsistencyMatrix(s))
            out.push_back(checkPair(cfg, s, params));
    }
    return out;
}

Table
findingsTable(const std::vector<ScenarioFinding> &findings)
{
    Table t("ticsverify: WAR hazards and replay divergence per scenario");
    t.header({"App", "Runtime", "Done", "Reboots", "Intervals",
              "NV rd B", "NV wr B", "WAR mat", "WAR lat", "Div B",
              "Verdict"});
    for (const auto &f : findings) {
        t.row()
            .cell(f.app)
            .cell(f.runtime)
            .cell(f.subject.completed ? "yes" : "no")
            .cell(f.subject.reboots)
            .cell(f.intervals)
            .cell(f.nvReadBytes)
            .cell(f.nvWriteBytes)
            .cell(static_cast<std::uint64_t>(f.war.materialized()))
            .cell(static_cast<std::uint64_t>(f.war.latent()))
            .cell(f.replay.divergentBytes)
            .cell(scenarioOk(f)
                      ? (f.isProtected ? "consistent" : "unsafe (expected)")
                      : "FAIL");
    }
    return t;
}

Table
hazardTable(const std::vector<ScenarioFinding> &findings)
{
    Table t("ticsverify: per-hazard detail");
    t.header({"App", "Runtime", "Region", "Offset", "Bytes", "Boot",
              "Interval", "Materialized"});
    for (const auto &f : findings) {
        for (const auto &h : f.war.hazards) {
            t.row()
                .cell(f.app)
                .cell(f.runtime)
                .cell(h.region)
                .cell(static_cast<std::uint64_t>(h.offset))
                .cell(static_cast<std::uint64_t>(h.bytes))
                .cell(h.boot)
                .cell(static_cast<std::uint64_t>(h.interval))
                .cell(h.materialized ? "yes" : "no");
        }
    }
    return t;
}

} // namespace ticsim::analysis
