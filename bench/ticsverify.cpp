/**
 * @file
 * ticsverify: the static verification CLI. Recovers a program model
 * per (app, runtime) pair from one failure-free calibration run and
 * statically checks energy progress, timeliness reachability, and I/O
 * idempotency against the deployment supply — no intermittent
 * execution required.
 *
 * Modes:
 *   (default)              verify the app matrix, gate on the expected
 *                          verdict split
 *   --scenario nonterminating
 *                          verify against an undersized capacitor and
 *                          require at least one energy-progress finding
 *   --crossval             additionally run the dynamic checker and
 *                          require 100% coverage of its detections
 *   --prob                 derive probabilistic completion-time and
 *                          freshness-violation estimates per pair;
 *                          with --crossval, gate them against
 *                          sweep-simulated percentiles
 *   --size-capacitor APP/RUNTIME
 *                          inverse query: smallest capacitance whose
 *                          completion-time distribution meets
 *                          --slo within --deadline-ms
 *   --baseline PATH        fail when findings appear that the committed
 *                          baseline does not list, or (with --prob)
 *                          when a probabilistic verdict drifts
 *   --write-baseline PATH  regenerate the baseline from this run
 *
 * Exit status is 0 when the active gates hold, 1 otherwise — so CI can
 * gate on it like ticscheck.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "baseline.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "support/json.hpp"
#include "support/parse.hpp"
#include "verify/crossval.hpp"
#include "verify/envmodel.hpp"
#include "verify/probcrossval.hpp"
#include "verify/verifier.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--period-ms N] [--on-fraction F] [--seed N]\n"
        "          [--capacitance-uf F] [--scenario nonterminating]\n"
        "          [--crossval] [--jobs N] [--verbose]\n"
        "          [--prob] [--prob-seeds N] [--prob-cap-uf F]\n"
        "          [--prob-tol P50,P95,P99] [--cache-dir PATH]\n"
        "          [--no-cache] [--slo F] [--deadline-ms F]\n"
        "          [--size-capacitor APP/RUNTIME]\n"
        "          [--baseline PATH] [--write-baseline PATH]\n"
        "          [--json PATH] [--trace PATH]\n"
        "Statically verifies energy progress, timeliness, and I/O\n"
        "idempotency over program models recovered from calibration\n"
        "runs of the app x runtime matrix. --prob adds probabilistic\n"
        "completion-time and freshness analysis; --size-capacitor\n"
        "answers the inverse SLO query (e.g. the smallest capacitor\n"
        "for 95%% of completions within the deadline).\n",
        argv0);
}

/** Stable identity of a finding for baseline comparison. */
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

/**
 * The baseline's "prob" array of "key=value" strings (written by
 * --write-baseline under --prob; absent from version-1 baselines). A
 * malformed entry exits 2.
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

void
writeBaseline(const std::string &path,
              const std::vector<verify::Finding> &findings,
              const std::map<std::string, double> &prob)
{
    std::set<std::string> keys;
    for (const auto &f : findings)
        keys.insert(findingKey(f));

    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "ticsverify: cannot write baseline '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    JsonWriter w(os);
    w.beginObject();
    w.member("schema", "ticsim.verify_baseline");
    // Version 2 baselines additionally pin the probabilistic verdicts;
    // regenerating without --prob keeps emitting version 1.
    w.member("version", prob.empty() ? 1 : 2);
    w.key("keys").beginArray();
    for (const auto &k : keys)
        w.value(k);
    w.endArray();
    if (!prob.empty()) {
        w.key("prob").beginArray();
        for (const auto &[k, val] : prob) {
            char buf[320];
            std::snprintf(buf, sizeof(buf), "%s=%.9g", k.c_str(), val);
            w.value(std::string(buf));
        }
        w.endArray();
    }
    w.endObject();
    os << '\n';
    std::printf("ticsverify: wrote baseline (%zu findings, %zu prob "
                "verdicts) to %s\n",
                keys.size(), prob.size(), path.c_str());
}

/** Relative deviation used by the prob baseline gate. */
bool
probDrifted(double a, double b)
{
    const double hi = std::max(std::fabs(a), std::fabs(b));
    return hi > 0.0 && std::fabs(a - b) / hi > 1e-6;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strips --json/--trace before our own argument loop.
    harness::BenchSession session("ticsverify", argc, argv);
    verify::VerifyConfig cfg;
    bool verbose = false;
    bool crossval = false;
    bool nonterminating = false;
    bool prob = false;
    std::string baselinePath;
    std::string writeBaselinePath;
    verify::ProbCrossValConfig probCfg;
    verify::SloQuery slo;
    slo.deadlineNs = 100e6; // 100 ms default deadline
    std::string sizePair;   // "APP/RUNTIME"

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
        if (std::strcmp(arg, "--period-ms") == 0) {
            cfg.patternPeriod = count(kMaxTimeNs / kNsPerMs) * kNsPerMs;
        } else if (std::strcmp(arg, "--on-fraction") == 0) {
            cfg.patternOnFraction = real();
        } else if (std::strcmp(arg, "--seed") == 0) {
            cfg.seed = count(UINT64_MAX);
        } else if (std::strcmp(arg, "--capacitance-uf") == 0) {
            cfg.capacitanceF = real() * 1e-6;
        } else if (std::strcmp(arg, "--scenario") == 0) {
            const char *s = next();
            if (std::strcmp(s, "nonterminating") != 0) {
                usage(argv[0]);
                return 2;
            }
            nonterminating = true;
        } else if (std::strcmp(arg, "--crossval") == 0) {
            crossval = true;
        } else if (std::strcmp(arg, "--prob") == 0) {
            prob = true;
        } else if (std::strcmp(arg, "--prob-seeds") == 0) {
            const std::uint64_t n = count(1u << 20);
            probCfg.seeds.clear();
            for (std::uint64_t s = 0; s < n; ++s)
                probCfg.seeds.push_back(11 + s);
        } else if (std::strcmp(arg, "--prob-cap-uf") == 0) {
            probCfg.stochasticCapUf = real();
        } else if (std::strcmp(arg, "--prob-tol") == 0) {
            double p50 = 0, p95 = 0, p99 = 0;
            if (std::sscanf(next(), "%lf,%lf,%lf", &p50, &p95, &p99) !=
                3) {
                usage(argv[0]);
                return 2;
            }
            probCfg.tol = {p50, p95, p99};
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            probCfg.cacheDir = next();
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            probCfg.useCache = false;
        } else if (std::strcmp(arg, "--slo") == 0) {
            slo.slo = real();
        } else if (std::strcmp(arg, "--deadline-ms") == 0) {
            slo.deadlineNs = real() * 1e6;
        } else if (std::strcmp(arg, "--size-capacitor") == 0) {
            sizePair = next();
        } else if (std::strcmp(arg, "--jobs") == 0) {
            cfg.jobs = static_cast<unsigned>(count(kMaxJobs));
            probCfg.jobs = cfg.jobs;
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(arg, "--baseline") == 0) {
            baselinePath = next();
        } else if (std::strcmp(arg, "--write-baseline") == 0) {
            writeBaselinePath = next();
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    // The demo scenario: a capacitor too small for any checkpoint
    // region, which must be flagged as statically non-terminating.
    if (nonterminating && cfg.capacitanceF <= 0.0)
        cfg.capacitanceF = 1e-6;

    session.setSeed(cfg.seed);
    const auto verdicts = verify::verifyMatrix(cfg);
    verify::verdictTable(verdicts).print(std::cout);
    if (verbose)
        verify::findingTable(verdicts).print(std::cout);

    const auto findings = verify::allFindings(verdicts);
    for (const auto &f : findings) {
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
        session.addFinding(std::move(rf));
    }

    int rc = 0;

    if (nonterminating) {
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
    if (prob || !sizePair.empty()) {
        harness::ProbSection sect;
        sect.tolP50 = probCfg.tol.p50;
        sect.tolP95 = probCfg.tol.p95;
        sect.tolP99 = probCfg.tol.p99;
        sect.crossval = prob && crossval;

        std::vector<verify::ProbGateRow> rows;
        std::vector<verify::FreshnessEstimate> freshness;
        if (prob && crossval) {
            auto pr = verify::probCrossValidate(probCfg);
            rows = std::move(pr.rows);
            freshness = std::move(pr.freshness);
            for (const auto &f : pr.findings) {
                std::printf("PROB GATE FAILED: %s under %s (%s): %s\n",
                            f.app.c_str(), f.runtime.c_str(),
                            f.subject.c_str(), f.detail.c_str());
                harness::ReportFinding rf;
                rf.analysis = f.analysis;
                rf.app = f.app;
                rf.runtime = f.runtime;
                rf.subject = f.subject;
                rf.anchor = f.anchor;
                rf.detail = f.detail;
                session.addFinding(std::move(rf));
            }
            if (!pr.pass)
                rc = 1;
            else
                std::printf("ticsverify: all %zu probabilistic rows "
                            "within tolerance\n",
                            rows.size());
        } else if (prob) {
            auto st = verify::probStaticAnalyze(probCfg);
            rows = std::move(st.rows);
            freshness = std::move(st.freshness);
        }
        if (prob) {
            verify::ProbCrossValReport view;
            view.rows = rows;
            verify::probCrossValTable(view).print(std::cout);
            verify::freshnessTable(freshness).print(std::cout);
            probMap = probVerdicts(rows, freshness);
        }

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

        // Inverse SLO query: smallest capacitance meeting the target.
        if (!sizePair.empty()) {
            const std::size_t slash = sizePair.find('/');
            if (slash == std::string::npos) {
                usage(argv[0]);
                return 2;
            }
            // The sweep's pairs, under the aliases ticssweep accepts.
            const char *appName =
                harness::canonicalApp(sizePair.substr(0, slash));
            const char *runtimeName =
                harness::canonicalRuntime(sizePair.substr(slash + 1));
            if (!appName || !runtimeName) {
                std::fprintf(stderr,
                             "ticsverify: unknown pair '%s'\n",
                             sizePair.c_str());
                return 2;
            }
            const std::string app = appName;
            const std::string runtime = runtimeName;
            sizePair = app + "/" + runtime;
            const auto model =
                verify::recoverSweepPair(probCfg, app, runtime);
            const auto sizing = verify::sizeCapacitor(
                model, verify::StochasticEnvParams{},
                device::CostModel{}, slo, verify::CapacitorGrid{},
                probCfg.rebootLimit);
            for (const auto &[capF, pOnTime] : sizing.curve)
                std::printf("  %8.2f uF  P[on time] = %.4f%s\n",
                            capF * 1e6, pOnTime,
                            sizing.feasible &&
                                    capF == sizing.capacitanceF
                                ? "  <- smallest meeting SLO"
                                : "");
            if (sizing.feasible) {
                std::printf(
                    "ticsverify: %s meets the %.0f%% x %.0f ms SLO "
                    "at %.2f uF (P[on time] = %.4f)\n",
                    sizePair.c_str(), slo.slo * 100,
                    slo.deadlineNs / 1e6, sizing.capacitanceF * 1e6,
                    sizing.pOnTime);
            } else {
                std::printf("ticsverify: no capacitance on the grid "
                            "meets the %.0f%% x %.0f ms SLO for %s\n",
                            slo.slo * 100, slo.deadlineNs / 1e6,
                            sizePair.c_str());
                rc = 1;
            }
            sect.haveSlo = true;
            sect.slo.app = app;
            sect.slo.runtime = runtime;
            sect.slo.slo = slo.slo;
            sect.slo.deadlineMs = slo.deadlineNs / 1e6;
            sect.slo.feasible = sizing.feasible;
            sect.slo.capacitanceUf = sizing.capacitanceF * 1e6;
            sect.slo.pOnTime = sizing.pOnTime;
        }
        session.setProb(std::move(sect));
    }

    if (!writeBaselinePath.empty())
        writeBaseline(writeBaselinePath, findings, probMap);

    if (!baselinePath.empty()) {
        const std::string text =
            bench::readBaseline("ticsverify", baselinePath);
        const auto known = bench::baselineArray(text, "keys");
        std::size_t fresh = 0;
        for (const auto &f : findings) {
            if (!known.count(findingKey(f))) {
                std::printf("NEW FINDING (not in baseline): %s\n",
                            findingKey(f).c_str());
                ++fresh;
            }
        }
        if (fresh > 0) {
            std::printf("ticsverify: %zu finding(s) not in baseline "
                        "%s\n",
                        fresh, baselinePath.c_str());
            rc = 1;
        } else {
            std::printf("ticsverify: all %zu findings covered by "
                        "baseline\n",
                        findings.size());
        }

        // The probabilistic verdicts are pinned in both directions:
        // a drifted p95 or violation probability fails whether it got
        // better or worse, because either means the model changed.
        if (!probMap.empty()) {
            const auto knownProb = baselineProb(text, baselinePath);
            if (knownProb.empty()) {
                std::printf("ticsverify: baseline carries no prob "
                            "verdicts (version 1); skipping the prob "
                            "baseline gate\n");
            } else {
                std::size_t drifted = 0;
                for (const auto &[k, v] : probMap) {
                    const auto it = knownProb.find(k);
                    if (it == knownProb.end()) {
                        std::printf("NEW PROB VERDICT (not in "
                                    "baseline): %s=%.9g\n",
                                    k.c_str(), v);
                        ++drifted;
                    } else if (probDrifted(v, it->second)) {
                        std::printf("PROB VERDICT DRIFTED: %s=%.9g "
                                    "(baseline %.9g)\n",
                                    k.c_str(), v, it->second);
                        ++drifted;
                    }
                }
                for (const auto &[k, v] : knownProb) {
                    if (!probMap.count(k)) {
                        std::printf("PROB VERDICT VANISHED: %s=%.9g\n",
                                    k.c_str(), v);
                        ++drifted;
                    }
                }
                if (drifted > 0) {
                    std::printf("ticsverify: %zu prob verdict(s) "
                                "deviate from baseline %s\n",
                                drifted, baselinePath.c_str());
                    rc = 1;
                } else {
                    std::printf("ticsverify: all %zu prob verdicts "
                                "match baseline\n",
                                probMap.size());
                }
            }
        }
    }

    if (crossval) {
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
