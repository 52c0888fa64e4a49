/**
 * @file
 * ticsverify: the consistency-verification CLI. It checks the paper's
 * claim — legacy code stays memory-consistent and timely across power
 * failures — at three layers, one mode each:
 *
 *  - (default) verifies program models recovered from one failure-free
 *    calibration run per (app, runtime) pair: energy progress,
 *    timeliness reachability and I/O idempotency against the deployment
 *    supply, with no intermittent execution. --prob adds probabilistic
 *    completion-time and freshness estimates, --size-capacitor answers
 *    the inverse SLO query (the smallest capacitance meeting --slo
 *    within --deadline-ms), and --scenario nonterminating verifies
 *    against an undersized capacitor and requires an energy-progress
 *    finding.
 *  - --dynamic runs BC and Cuckoo under every runtime on a reset
 *    pattern, traces the NV read/write sets per consistency interval,
 *    checks the Surbatovich WAR condition, and byte-diffs each
 *    intermittent run's final state against a failure-free reference.
 *  - --source lints the app sources themselves (lexer, parser, CFGs,
 *    dataflow), so it also sees the paths no calibration run executed.
 *
 * --crossval checks that the selected layer covers every finding of the
 * layer below it: the models cover every dynamic detection (and, with
 * --prob, the simulated percentiles), the sources every model finding.
 * --baseline gates the run against a committed file in both
 * directions, so a finding that appears and one that vanishes both
 * fail; --write-baseline regenerates the mode's whole file.
 *
 * Exit status is 0 when the mode's gates hold, 1 otherwise, and 2 on a
 * usage error, including a flag of another mode.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "lint/analyzer.hpp"
#include "lint/crossval.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"
#include "verify/crossval.hpp"
#include "verify/envmodel.hpp"
#include "verify/probcrossval.hpp"
#include "verify/verifier.hpp"

#ifndef TICSIM_SOURCE_DIR
#define TICSIM_SOURCE_DIR "."
#endif

using namespace ticsim;

namespace {

constexpr const char *kVerifySchema = "ticsim.verify_baseline";
constexpr const char *kLintSchema = "ticsim.lint_baseline";

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [GATES] [--jobs N] [--capacitance-uf F]\n"
        "          [--scenario nonterminating] [--prob] [--prob-seeds N]\n"
        "          [--prob-cap-uf F] [--prob-tol P50,P95,P99]\n"
        "          [--cache-dir PATH] [--no-cache] [--slo F]\n"
        "          [--deadline-ms F] [--size-capacitor APP/RUNTIME]\n"
        "          [COMMON]\n"
        "       %s --dynamic [--budget-s N] [COMMON]\n"
        "       %s --source [--source-dir DIR] [GATES] [COMMON]\n"
        "GATES:  [--crossval] [--baseline PATH] [--write-baseline PATH]\n"
        "COMMON: [--seed N] [--period-ms N] [--on-fraction F] [--verbose]\n"
        "        [--json PATH] [--trace PATH]\n"
        "The default mode statically verifies energy progress,\n"
        "timeliness and I/O idempotency over program models recovered\n"
        "from calibration runs of the app x runtime matrix; --prob adds\n"
        "probabilistic completion-time and freshness analysis, and\n"
        "--size-capacitor answers the inverse SLO query (e.g. the\n"
        "smallest capacitor for 95%% of completions within the\n"
        "deadline). --dynamic traces intermittent runs of the\n"
        "consistency matrix for WAR hazards and replay divergence.\n"
        "--source lints the app sources. --crossval checks that the\n"
        "mode covers every finding of the layer below it; --baseline\n"
        "fails on a key the run adds or drops. A flag of one mode exits\n"
        "2 in another.\n",
        argv0, argv0, argv0);
}

/** The flags every mode reads. */
struct Common {
    verify::VerifyConfig cfg; ///< --seed, --period-ms, --on-fraction
    bool verbose = false;
    bool crossval = false;
    std::string baselinePath;
    std::string writeBaselinePath;
    std::string baseline; ///< the --baseline file, read before any run
};

/** The default mode's own flags. */
struct ModelFlags {
    bool nonterminating = false;
    bool prob = false;
    verify::ProbCrossValConfig probCfg;
    verify::SloQuery slo;
    std::string sizePair; ///< "APP/RUNTIME"

    ModelFlags() { slo.deadlineNs = 100e6; }
};

/** --prob-tol's "P50,P95,P99": three finite decimals, each >= 0; on
 *  anything else, names the flag and exits 2. */
verify::ProbGateTolerance
probTolerances(const char *value)
{
    const std::string s = value;
    double v[3] = {};
    std::size_t start = 0;
    for (double &field : v) {
        const bool last = &field == &v[2];
        const std::size_t end = last ? s.size() : s.find(',', start);
        if (end == std::string::npos ||
            !parseDouble(s.substr(start, end - start), field) ||
            field < 0.0) {
            std::fprintf(stderr,
                         "ticsverify: bad --prob-tol value '%s' (three "
                         "finite numbers >= 0: P50,P95,P99)\n",
                         value);
            std::exit(2);
        }
        start = end + 1;
    }
    return {v[0], v[1], v[2]};
}

harness::ReportFinding
reportFinding(const verify::Finding &f)
{
    harness::ReportFinding rf;
    rf.analysis = f.analysis;
    rf.app = f.app;
    rf.runtime = f.runtime;
    rf.subject = f.subject;
    rf.regionIndex = f.regionIndex;
    rf.anchor = f.anchor;
    rf.offset = f.offset;
    rf.bytes = f.bytes;
    rf.detail = f.detail;
    return rf;
}

/** Stable identity of a model finding for baseline comparison. */
std::string
findingKey(const verify::Finding &f)
{
    return f.app + "|" + f.runtime + "|" + f.analysis + "|" + f.subject;
}

/**
 * Probabilistic verdicts for baseline comparison: the static p95
 * completion time of every (app, runtime, env) row and the violation
 * probability of every timed variable. Both are pure functions of the
 * recovered model, so regressions in either direction are meaningful.
 */
std::map<std::string, double>
probVerdicts(const std::vector<verify::ProbGateRow> &rows,
             const std::vector<verify::FreshnessEstimate> &freshness)
{
    std::map<std::string, double> v;
    for (const auto &r : rows)
        v[r.app + "|" + r.runtime + "|" + r.env + "|p95_ms"] =
            r.staticP95Ms;
    for (const auto &f : freshness)
        v[f.app + "|" + f.runtime + "|" + f.env + "|fresh:" +
          f.subject] = f.pViolation;
    return v;
}

/** "=value" as the baseline's prob array spells it. */
std::string
probValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "=%.9g", v);
    return buf;
}

/**
 * The baseline's "prob" array of "key=value" strings. A malformed
 * entry exits 2.
 */
std::map<std::string, double>
baselineProb(const std::string &text, const std::string &path)
{
    std::map<std::string, double> verdicts;
    for (const std::string &entry : bench::baselineArray(text, "prob")) {
        const std::size_t eq = entry.rfind('=');
        double v = 0;
        if (eq == std::string::npos ||
            !parseDouble(entry.substr(eq + 1), v)) {
            std::fprintf(stderr,
                         "ticsverify: bad prob verdict '%s' in baseline "
                         "'%s'\n",
                         entry.c_str(), path.c_str());
            std::exit(2);
        }
        verdicts[entry.substr(0, eq)] = v;
    }
    return verdicts;
}

/** Relative deviation used by the prob baseline gate. */
bool
probDrifted(double a, double b)
{
    const double hi = std::max(std::fabs(a), std::fabs(b));
    return hi > 0.0 && std::fabs(a - b) / hi > 1e-6;
}

/**
 * The prob verdicts against the baseline's, pinned in both directions:
 * a drifted p95 or violation probability fails whether it got better or
 * worse, because either means the model changed. A baseline without
 * prob verdicts fails too. @return whether the gate holds.
 */
bool
gateProb(const std::map<std::string, double> &probMap,
         const std::string &text, const std::string &path)
{
    const auto known = baselineProb(text, path);
    if (known.empty()) {
        std::printf("ticsverify: baseline %s carries no prob verdicts\n",
                    path.c_str());
        return false;
    }
    bench::ProducedKeys produced;
    for (const auto &[k, v] : probMap)
        produced[k] = probValue(v);
    std::set<std::string> knownKeys;
    for (const auto &[k, v] : known)
        knownKeys.insert(k);
    std::size_t differ =
        bench::gateKeys(produced, knownKeys, "PROB VERDICT");
    for (const auto &[k, v] : probMap) {
        const auto it = known.find(k);
        if (it != known.end() && probDrifted(v, it->second)) {
            std::printf("PROB VERDICT DRIFTED: %s=%.9g (baseline %.9g)\n",
                        k.c_str(), v, it->second);
            ++differ;
        }
    }
    if (differ > 0) {
        std::printf("ticsverify: %zu prob verdict(s) deviate from "
                    "baseline %s\n",
                    differ, path.c_str());
        return false;
    }
    std::printf("ticsverify: all %zu prob verdicts match baseline\n",
                probMap.size());
    return true;
}

harness::ProbSection
probSection(const verify::ProbGateTolerance &tol, bool crossval,
            const std::vector<verify::ProbGateRow> &rows,
            const std::vector<verify::FreshnessEstimate> &freshness)
{
    harness::ProbSection sect;
    sect.tolP50 = tol.p50;
    sect.tolP95 = tol.p95;
    sect.tolP99 = tol.p99;
    sect.crossval = crossval;
    for (const auto &r : rows) {
        harness::ProbRowEntry e;
        e.app = r.app;
        e.runtime = r.runtime;
        e.env = r.env;
        e.capUf = r.capUf;
        e.staticP50Ms = r.staticP50Ms;
        e.staticP95Ms = r.staticP95Ms;
        e.staticP99Ms = r.staticP99Ms;
        e.staticMeanMs = r.staticMeanMs;
        e.pNonterm = r.pNonterm;
        e.meanOutages = r.meanOutages;
        e.simCells = r.simCells;
        e.simCompleted = r.simCompleted;
        e.simP50Ms = r.simP50Ms;
        e.simP95Ms = r.simP95Ms;
        e.simP99Ms = r.simP99Ms;
        e.withinTolerance = r.gatePassed;
        e.gateKind = r.gateKind;
        e.failedPercentile = r.failedPercentile;
        sect.rows.push_back(std::move(e));
    }
    for (const auto &f : freshness) {
        harness::ProbFreshnessEntry e;
        e.app = f.app;
        e.runtime = f.runtime;
        e.env = f.env;
        e.subject = f.subject;
        e.lifetimeMs = static_cast<double>(f.lifetimeNs) / 1e6;
        e.pViolation = f.pViolation;
        e.sites = f.sites;
        sect.freshness.push_back(std::move(e));
    }
    return sect;
}

/** The inverse SLO query for the sweep pair @p app / @p runtime; fills
 *  @p sect's slo answer. @return whether a capacitance meets the SLO. */
bool
sizeCapacitor(const ModelFlags &m, const std::string &app,
              const std::string &runtime, harness::ProbSection &sect)
{
    const std::string pair = app + "/" + runtime;
    const auto model = verify::recoverSweepPair(m.probCfg, app, runtime);
    const auto sizing = verify::sizeCapacitor(
        model, verify::StochasticEnvParams{}, device::CostModel{}, m.slo,
        verify::CapacitorGrid{}, m.probCfg.rebootLimit);
    for (const auto &[capF, pOnTime] : sizing.curve)
        std::printf("  %8.2f uF  P[on time] = %.4f%s\n", capF * 1e6,
                    pOnTime,
                    sizing.feasible && capF == sizing.capacitanceF
                        ? "  <- smallest meeting SLO"
                        : "");
    if (sizing.feasible)
        std::printf("ticsverify: %s meets the %.0f%% x %.0f ms SLO at "
                    "%.2f uF (P[on time] = %.4f)\n",
                    pair.c_str(), m.slo.slo * 100, m.slo.deadlineNs / 1e6,
                    sizing.capacitanceF * 1e6, sizing.pOnTime);
    else
        std::printf("ticsverify: no capacitance on the grid meets the "
                    "%.0f%% x %.0f ms SLO for %s\n",
                    m.slo.slo * 100, m.slo.deadlineNs / 1e6,
                    pair.c_str());
    sect.haveSlo = true;
    sect.slo.app = app;
    sect.slo.runtime = runtime;
    sect.slo.slo = m.slo.slo;
    sect.slo.deadlineMs = m.slo.deadlineNs / 1e6;
    sect.slo.feasible = sizing.feasible;
    sect.slo.capacitanceUf = sizing.capacitanceF * 1e6;
    sect.slo.pOnTime = sizing.pOnTime;
    return sizing.feasible;
}

/** The default mode: the recovered-model verifier. */
int
modelMain(harness::BenchSession &session, Common &c, ModelFlags &m)
{
    verify::VerifyConfig &cfg = c.cfg;
    // The demo scenario: a capacitor too small for any checkpoint
    // region, which must be flagged as statically non-terminating.
    if (m.nonterminating && cfg.capacitanceF <= 0.0)
        cfg.capacitanceF = 1e-6;
    // --prob models the same deployment and calibration seed.
    m.probCfg.patternPeriod = cfg.patternPeriod;
    m.probCfg.patternOnFraction = cfg.patternOnFraction;
    m.probCfg.modelSeed = cfg.seed;

    // --size-capacitor names a sweep pair, under the aliases ticssweep
    // accepts; a bad one is refused before anything runs.
    const std::size_t slash = m.sizePair.find('/');
    const char *sizeApp =
        slash == std::string::npos
            ? nullptr
            : harness::canonicalApp(m.sizePair.substr(0, slash));
    const char *sizeRuntime =
        slash == std::string::npos
            ? nullptr
            : harness::canonicalRuntime(m.sizePair.substr(slash + 1));
    if (!m.sizePair.empty() && (!sizeApp || !sizeRuntime)) {
        std::fprintf(stderr, "ticsverify: unknown pair '%s'\n",
                     m.sizePair.c_str());
        return 2;
    }

    session.setSeed(cfg.seed);
    const auto verdicts = verify::verifyMatrix(cfg);
    verify::verdictTable(verdicts).print(std::cout);
    if (c.verbose)
        verify::findingTable(verdicts).print(std::cout);

    const auto findings = verify::allFindings(verdicts);
    bench::ProducedKeys keys;
    for (const auto &f : findings) {
        keys.emplace(findingKey(f), "");
        session.addFinding(reportFinding(f));
    }

    int rc = 0;
    if (m.nonterminating) {
        std::size_t energy = 0;
        for (const auto &f : findings) {
            if (f.analysis == "energy-progress")
                ++energy;
        }
        if (energy == 0) {
            std::printf("UNEXPECTED: non-terminating scenario produced "
                        "no energy-progress finding\n");
            rc = 1;
        } else {
            std::printf("ticsverify: %zu region(s) statically "
                        "non-terminating under the %.1f uF supply\n",
                        energy, cfg.capacitanceF * 1e6);
        }
    } else {
        for (const auto &v : verdicts) {
            if (!verify::verdictOk(v)) {
                std::printf("UNEXPECTED: %s under %s\n", v.app.c_str(),
                            v.runtime.c_str());
                rc = 1;
            }
        }
        if (rc == 0)
            std::printf("ticsverify: matrix matches the expected "
                        "verification split\n");
    }

    // Probabilistic timing analysis: static estimates always; the
    // simulated side and the tolerance gate only under --crossval.
    std::map<std::string, double> probMap;
    if (m.prob || !m.sizePair.empty()) {
        std::vector<verify::ProbGateRow> rows;
        std::vector<verify::FreshnessEstimate> freshness;
        if (m.prob && c.crossval) {
            auto pr = verify::probCrossValidate(m.probCfg);
            rows = std::move(pr.rows);
            freshness = std::move(pr.freshness);
            for (const auto &f : pr.findings) {
                std::printf("PROB GATE FAILED: %s under %s (%s): %s\n",
                            f.app.c_str(), f.runtime.c_str(),
                            f.subject.c_str(), f.detail.c_str());
                session.addFinding(reportFinding(f));
            }
            if (!pr.pass)
                rc = 1;
            else
                std::printf("ticsverify: all %zu probabilistic rows "
                            "within tolerance\n",
                            rows.size());
        } else if (m.prob) {
            auto st = verify::probStaticAnalyze(m.probCfg);
            rows = std::move(st.rows);
            freshness = std::move(st.freshness);
        }
        if (m.prob) {
            verify::ProbCrossValReport view;
            view.rows = rows;
            verify::probCrossValTable(view).print(std::cout);
            verify::freshnessTable(freshness).print(std::cout);
            probMap = probVerdicts(rows, freshness);
        }

        harness::ProbSection sect =
            probSection(m.probCfg.tol, m.prob && c.crossval, rows,
                        freshness);
        if (!m.sizePair.empty() &&
            !sizeCapacitor(m, sizeApp, sizeRuntime, sect))
            rc = 1;
        session.setProb(std::move(sect));
    }

    if (!c.writeBaselinePath.empty()) {
        // The file pins the prob verdicts too; without --prob they are
        // derived for it alone.
        if (!m.prob) {
            const auto st = verify::probStaticAnalyze(m.probCfg);
            probMap = probVerdicts(st.rows, st.freshness);
        }
        std::vector<std::string> prob;
        for (const auto &[k, v] : probMap)
            prob.push_back(k + probValue(v));
        bench::writeBaseline(c.writeBaselinePath, kVerifySchema, 2,
                             {{"keys", bench::keysOf(keys)},
                              {"prob", prob}});
    }

    if (!c.baselinePath.empty()) {
        const std::size_t differ = bench::gateKeys(
            keys, bench::baselineArray(c.baseline, "keys"), "FINDING");
        if (differ > 0) {
            std::printf("ticsverify: %zu finding key(s) differ from "
                        "baseline %s\n",
                        differ, c.baselinePath.c_str());
            rc = 1;
        } else {
            std::printf("ticsverify: all %zu findings covered by "
                        "baseline\n",
                        findings.size());
        }
        if (m.prob && !gateProb(probMap, c.baseline, c.baselinePath))
            rc = 1;
    }

    if (c.crossval) {
        const auto report = verify::crossValidate(cfg);
        verify::crossValTable(report).print(std::cout);
        std::printf("ticsverify: coverage %zu/%zu dynamic detections, "
                    "%zu/%zu static findings confirmed\n",
                    report.totalMatched, report.totalDynamic,
                    report.totalConfirmed, report.totalStatic);
        if (!report.fullCoverage()) {
            std::printf("UNEXPECTED: dynamic detections escaped the "
                        "static analyses\n");
            rc = 1;
        }
    }
    return rc;
}

/** --dynamic: the WAR/replay checker over the consistency matrix. */
int
dynamicMain(harness::BenchSession &session, const Common &c)
{
    const analysis::CheckConfig cfg = verify::checkConfig(c.cfg);
    session.setSeed(cfg.seed);
    const auto findings = analysis::checkMatrix(cfg);
    analysis::findingsTable(findings).print(std::cout);
    if (c.verbose)
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
        std::printf("ticsverify: matrix matches the expected "
                    "consistency split\n");
    return rc;
}

std::string
fileKey(const lint::StaticFinding &f)
{
    return f.file + "|" + f.rule + "|" + f.subject;
}

std::string
location(const lint::StaticFinding &f)
{
    return " (" + f.file + ":" + std::to_string(f.line) + ")";
}

harness::LintSection
lintSection(const std::vector<lint::FileReport> &reports,
            std::size_t functions, bool crossval,
            const lint::LintCrossVal &cv)
{
    harness::LintSection sect;
    sect.filesAnalyzed = reports.size();
    sect.functionsAnalyzed = functions;
    for (const auto &rep : reports) {
        for (const auto &f : rep.findings) {
            harness::LintFindingEntry e;
            e.rule = f.rule;
            e.subject = f.subject;
            e.file = f.file;
            e.line = static_cast<std::uint64_t>(f.line);
            e.function = f.function;
            e.detail = f.detail;
            sect.findings.push_back(std::move(e));
        }
    }
    sect.crossval = crossval;
    sect.fullCoverage = cv.fullCoverage;
    if (!crossval)
        return sect;
    for (const auto &row : cv.rows) {
        harness::LintCrossValEntry e;
        e.app = row.app;
        e.runtime = row.runtime;
        e.file = row.file;
        e.dynamicFindings = row.dynamicCount;
        e.matchedFindings = row.matchedCount;
        e.staticFindings = row.staticCount;
        e.confirmedStatic = row.confirmedCount;
        e.coverage = row.coverage();
        e.fpRate = row.fpRate();
        sect.rows.push_back(std::move(e));
    }
    return sect;
}

/** --source: the lint over the dogfood sources (examples/, src/apps/,
 *  the SensorRelay demo) under file-mode traits. */
int
sourceMain(harness::BenchSession &session, const Common &c,
           const std::string &sourceDir)
{
    const auto files = lint::defaultSourceSet(sourceDir);
    if (files.empty()) {
        std::fprintf(stderr,
                     "ticsverify: no sources under '%s' (use "
                     "--source-dir)\n",
                     sourceDir.c_str());
        return 2;
    }

    std::vector<lint::FileReport> reports;
    std::size_t totalFindings = 0;
    std::size_t totalFunctions = 0;
    for (const std::string &rel : files) {
        lint::FileReport rep = lint::analyzeFile(
            sourceDir + "/" + rel, rel, lint::fileModeTraits());
        totalFindings += rep.findings.size();
        totalFunctions += rep.functions;
        reports.push_back(std::move(rep));
    }

    Table fileTable("ticsverify: per-file findings (" +
                    std::to_string(files.size()) + " files, " +
                    std::to_string(totalFunctions) + " functions)");
    fileTable.header(
        {"File", "Funcs", "WAR", "Timely", "IO", "Segment"});
    for (const auto &rep : reports) {
        const auto count = [&](const char *rule) {
            return static_cast<std::uint64_t>(std::count_if(
                rep.findings.begin(), rep.findings.end(),
                [&](const lint::StaticFinding &f) { return f.rule == rule; }));
        };
        fileTable.row()
            .cell(rep.file)
            .cell(static_cast<std::uint64_t>(rep.functions))
            .cell(count(lint::kRuleWar))
            .cell(count(lint::kRuleTimeliness))
            .cell(count(lint::kRuleIo))
            .cell(count(lint::kRuleSegmentation));
    }
    fileTable.print(std::cout);

    if (c.verbose) {
        Table ft("ticsverify: per-finding detail");
        ft.header({"Rule", "Subject", "File", "Line", "Entry"});
        for (const auto &rep : reports) {
            for (const auto &f : rep.findings) {
                ft.row()
                    .cell(f.rule)
                    .cell(f.subject)
                    .cell(f.file)
                    .cell(static_cast<std::uint64_t>(f.line))
                    .cell(f.function);
            }
        }
        ft.print(std::cout);
        for (const auto &rep : reports)
            for (const auto &f : rep.findings)
                std::printf("  %s:%d: [%s] %s\n", f.file.c_str(),
                            f.line, f.rule.c_str(), f.detail.c_str());
    }
    std::printf("ticsverify: %zu finding(s) across %zu file(s)\n",
                totalFindings, files.size());

    // Source vs recovered model. The baseline pins the crossval's false
    // positives too, so --write-baseline runs it without --crossval.
    lint::LintCrossVal cv;
    if (c.crossval || !c.writeBaselinePath.empty()) {
        if (c.crossval)
            std::printf("\nticsverify: recovering the dynamic model "
                        "matrix (verify::verifyMatrix)...\n");
        cv = lint::crossValidate(verify::verifyMatrix(c.cfg), sourceDir);
    }
    if (c.crossval) {
        lint::crossValTable(cv).print(std::cout);
        for (const auto &row : cv.rows) {
            for (const auto &miss : row.unmatched)
                std::printf("UNCOVERED dynamic finding: %s|%s|%s\n",
                            row.app.c_str(), row.runtime.c_str(),
                            miss.c_str());
            if (c.verbose) {
                for (const auto &fp : row.extras)
                    std::printf("  false positive %s|%s: [%s] %s "
                                "(%s:%d)\n",
                                row.app.c_str(), row.runtime.c_str(),
                                fp.rule.c_str(), fp.subject.c_str(),
                                fp.file.c_str(), fp.line);
            }
        }
        std::printf("ticsverify: crossval %s — every dynamic finding %s "
                    "covered by a source-level finding\n",
                    cv.fullCoverage ? "OK" : "FAILED",
                    cv.fullCoverage ? "is" : "is NOT");
    }
    session.setLint(lintSection(reports, totalFunctions, c.crossval, cv));

    bench::ProducedKeys keys;
    for (const auto &rep : reports)
        for (const auto &f : rep.findings)
            keys.emplace(fileKey(f), location(f));
    bench::ProducedKeys cvKeys;
    for (const auto &row : cv.rows)
        for (const auto &fp : row.extras)
            cvKeys.emplace(row.app + "|" + row.runtime + "|" + fp.rule +
                               "|" + fp.subject,
                           location(fp));

    if (!c.writeBaselinePath.empty())
        bench::writeBaseline(c.writeBaselinePath, kLintSchema, 1,
                             {{"keys", bench::keysOf(keys)},
                              {"crossval_keys", bench::keysOf(cvKeys)}});

    int rc = 0;
    if (!c.baselinePath.empty()) {
        std::size_t differ = bench::gateKeys(
            keys, bench::baselineArray(c.baseline, "keys"), "FINDING");
        if (c.crossval)
            differ += bench::gateKeys(
                cvKeys, bench::baselineArray(c.baseline, "crossval_keys"),
                "FALSE POSITIVE");
        if (differ > 0) {
            std::printf("ticsverify: %zu key(s) differ from baseline "
                        "%s\n",
                        differ, c.baselinePath.c_str());
            rc = 1;
        } else {
            std::printf("ticsverify: baseline OK (%s)\n",
                        c.baselinePath.c_str());
        }
    }
    if (c.crossval && !cv.fullCoverage)
        rc = 1;
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strips --json/--trace before the argument loop.
    harness::BenchSession session("ticsverify", argc, argv);
    Common c;
    bool dynamic = false;
    bool source = false;
    std::string sourceDir = TICSIM_SOURCE_DIR;
    ModelFlags m;
    // The last flag given of each kind is named if it is refused.
    const char *gateFlag = nullptr;    // not under --dynamic
    const char *dynamicFlag = nullptr; // --dynamic only
    const char *sourceFlag = nullptr;  // --source only
    const char *modelFlag = nullptr;   // the default mode only

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
            return flagU64("ticsverify", arg, next(), max);
        };
        const auto real = [&] {
            return flagDouble("ticsverify", arg, next());
        };
        if (std::strcmp(arg, "--dynamic") == 0) {
            dynamic = true;
        } else if (std::strcmp(arg, "--source") == 0) {
            source = true;
        } else if (std::strcmp(arg, "--seed") == 0) {
            c.cfg.seed = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--period-ms") == 0) {
            c.cfg.patternPeriod =
                count(kMaxTimeNs / kNsPerMs) * kNsPerMs;
        } else if (std::strcmp(arg, "--on-fraction") == 0) {
            c.cfg.patternOnFraction = real();
        } else if (std::strcmp(arg, "--verbose") == 0) {
            c.verbose = true;
        } else if (std::strcmp(arg, "--crossval") == 0) {
            gateFlag = arg;
            c.crossval = true;
        } else if (std::strcmp(arg, "--baseline") == 0) {
            gateFlag = arg;
            c.baselinePath = next();
        } else if (std::strcmp(arg, "--write-baseline") == 0) {
            gateFlag = arg;
            c.writeBaselinePath = next();
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            dynamicFlag = arg;
            c.cfg.calibrationBudget =
                count(kMaxTimeNs / kNsPerSec) * kNsPerSec;
        } else if (std::strcmp(arg, "--source-dir") == 0) {
            sourceFlag = arg;
            sourceDir = next();
        } else {
            modelFlag = arg;
            if (std::strcmp(arg, "--capacitance-uf") == 0) {
                c.cfg.capacitanceF = real() * 1e-6;
            } else if (std::strcmp(arg, "--scenario") == 0) {
                if (std::strcmp(next(), "nonterminating") != 0) {
                    usage(argv[0]);
                    return 2;
                }
                m.nonterminating = true;
            } else if (std::strcmp(arg, "--prob") == 0) {
                m.prob = true;
            } else if (std::strcmp(arg, "--prob-seeds") == 0) {
                const std::uint64_t n = count(1u << 20);
                m.probCfg.seeds.clear();
                for (std::uint64_t s = 0; s < n; ++s)
                    m.probCfg.seeds.push_back(11 + s);
            } else if (std::strcmp(arg, "--prob-cap-uf") == 0) {
                m.probCfg.stochasticCapUf = real();
            } else if (std::strcmp(arg, "--prob-tol") == 0) {
                m.probCfg.tol = probTolerances(next());
            } else if (std::strcmp(arg, "--cache-dir") == 0) {
                m.probCfg.cacheDir = next();
            } else if (std::strcmp(arg, "--no-cache") == 0) {
                m.probCfg.useCache = false;
            } else if (std::strcmp(arg, "--slo") == 0) {
                m.slo.slo = real();
            } else if (std::strcmp(arg, "--deadline-ms") == 0) {
                m.slo.deadlineNs = real() * 1e6;
            } else if (std::strcmp(arg, "--size-capacitor") == 0) {
                m.sizePair = next();
            } else if (std::strcmp(arg, "--jobs") == 0) {
                c.cfg.jobs = static_cast<unsigned>(count(kMaxJobs));
                m.probCfg.jobs = c.cfg.jobs;
            } else {
                usage(argv[0]);
                return 2;
            }
        }
    }

    // A flag of another mode would be silently ignored; refuse it.
    if (dynamic && source) {
        std::fprintf(stderr, "ticsverify: --dynamic and --source exclude "
                             "each other\n");
        return 2;
    }
    const char *mode =
        dynamic ? "--dynamic" : source ? "--source" : "the default mode";
    const auto refuse = [&](const char *flag, const char *owner) {
        std::fprintf(stderr, "ticsverify: %s applies only to %s, not to %s\n",
                     flag, owner, mode);
        return 2;
    };
    if (gateFlag && dynamic)
        return refuse(gateFlag, "the default mode and --source");
    if (dynamicFlag && !dynamic)
        return refuse(dynamicFlag, "--dynamic");
    if (sourceFlag && !source)
        return refuse(sourceFlag, "--source");
    if (modelFlag && (dynamic || source))
        return refuse(modelFlag, "the default mode");

    if (dynamic)
        return dynamicMain(session, c);
    if (!c.baselinePath.empty())
        c.baseline = bench::readBaseline(
            c.baselinePath, source ? kLintSchema : kVerifySchema);
    if (source)
        return sourceMain(session, c, sourceDir);
    return modelMain(session, c, m);
}
