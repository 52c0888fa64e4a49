#include "probcrossval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "harness/scenario.hpp"
#include "sweep/sweep.hpp"
#include "verify/envmodel.hpp"
#include "verify/verifier.hpp"

namespace ticsim::verify {

namespace {

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

/**
 * The sweep's app and runtime configurations (default app sizes, the
 * sweep's TICS setup at 256 B segments), so a recovered model describes
 * exactly the programs the simulated cells run. This intentionally
 * differs from verifyMatrix, which matches the dynamic checker's
 * matrix instead.
 */
harness::ScenarioParams
sweepParams()
{
    harness::ScenarioParams p;
    p.tics = harness::sweepTics(256);
    return p;
}

const char *const kApps[] = {"AR", "BC", "CF"};
const char *const kRuntimes[] = {"TICS", "MementOS-like",
                                 "Chinchilla-like", "Alpaca-like",
                                 "plain-C"};

double
relDev(double a, double b)
{
    const double hi = std::max(std::fabs(a), std::fabs(b));
    return hi <= 0.0 ? 0.0 : std::fabs(a - b) / hi;
}

/** P[Bin(n, p) >= k], summed directly (n stays small). */
double
binomTailGE(int n, int k, double p)
{
    if (k <= 0)
        return 1.0;
    if (k > n || p <= 0.0)
        return 0.0;
    if (p >= 1.0)
        return 1.0;
    double sum = 0.0;
    for (int j = k; j <= n; ++j) {
        const double logC = std::lgamma(n + 1.0) -
                            std::lgamma(j + 1.0) -
                            std::lgamma(n - j + 1.0);
        sum += std::exp(logC + j * std::log(p) +
                        (n - j) * std::log1p(-p));
    }
    return std::min(1.0, sum);
}

/**
 * Quantile position of the k-th order statistic of n uniforms:
 * U = F(X_(k)) ~ Beta(k, n+1-k) with CDF P[U <= q] = P[Bin(n,q) >= k].
 * Returns the q where that CDF equals @p target (bisection; the tail
 * is monotone increasing in q).
 */
double
orderStatQuantile(int n, int k, double target)
{
    double lo = 0.0, hi = 1.0;
    for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        (binomTailGE(n, k, mid) < target ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

/** The pattern + stochastic environment pair every analysis uses. */
struct Envs {
    sweep::SupplyAxis patternAxis;
    EnvModel pat;
    EnvModel sto;
};

Envs
makeEnvs(const ProbCrossValConfig &cfg, const device::CostModel &costs)
{
    Envs e;
    // The stochastic rows pin the capacitance to cfg.stochasticCapUf —
    // the supply default (10 uF) buffers the whole workload and no
    // cell ever reboots, which validates nothing.
    e.patternAxis.kind = sweep::SupplyKind::Pattern;
    e.patternAxis.periodMs = static_cast<double>(cfg.patternPeriod) /
                             static_cast<double>(kNsPerMs);
    e.patternAxis.onFraction = cfg.patternOnFraction;

    e.pat = patternEnv(cfg.patternPeriod, cfg.patternOnFraction, costs,
                       cfg.rebootLimit);
    e.pat.name = e.patternAxis.token();

    StochasticEnvParams sp;
    sp.capacitanceF = cfg.stochasticCapUf * 1e-6;
    e.sto = stochasticEnv(sp, costs, cfg.rebootLimit);
    return e;
}

} // namespace

ProgramModel
recoverSweepPair(const ProbCrossValConfig &cfg, const std::string &app,
                const std::string &runtime)
{
    ProgramModel model =
        calibrateModel(harness::scenario(app, runtime), sweepParams(),
                       cfg.modelSeed, cfg.calibrationBudget,
                       /*record=*/false);
    // Rows and freshness estimates carry the sweep's spelling ("CF").
    model.app = app;
    return model;
}

ProbStaticResult
probStaticAnalyze(const ProbCrossValConfig &cfg)
{
    ProbStaticResult out;
    const device::CostModel costs{};
    const Envs envs = makeEnvs(cfg, costs);

    for (const auto *app : kApps) {
        for (const auto *runtime : kRuntimes) {
            const ProgramModel model =
                recoverSweepPair(cfg, app, runtime);
            for (const EnvModel *env : {&envs.pat, &envs.sto}) {
                const TimingEstimate est =
                    completionTime(model, *env, costs);

                ProbGateRow row;
                row.app = app;
                row.runtime = runtime;
                row.env = env->name;
                row.capUf =
                    env == &envs.sto ? cfg.stochasticCapUf : 0.0;
                row.staticP50Ms = est.completionNs.p50() / 1e6;
                row.staticP95Ms = est.completionNs.p95() / 1e6;
                row.staticP99Ms = est.completionNs.p99() / 1e6;
                row.staticMeanMs = est.completionNs.mean() / 1e6;
                row.pNonterm = est.pNonterm;
                row.meanOutages = est.meanOutages;
                // Bracket each simulated nearest-rank percentile: an
                // n-seed pXX is the order statistic of rank
                // ceil(q*n), whose quantile position scatters widely
                // for small n, so the gate brackets the static
                // distribution between that statistic's 5% and 95%
                // quantile positions instead of pinning one point.
                const int n = static_cast<int>(cfg.seeds.size());
                const auto band = [&](double q, double &loMs,
                                      double &hiMs) {
                    const int k = std::max(
                        1, static_cast<int>(std::ceil(q * n)));
                    loMs = est.completionNs.percentile(
                               orderStatQuantile(n, k, 0.05)) /
                           1e6;
                    hiMs = est.completionNs.percentile(
                               orderStatQuantile(n, k, 0.95)) /
                           1e6;
                };
                if (n > 0) {
                    band(0.50, row.staticLoP50Ms, row.staticHiP50Ms);
                    band(0.95, row.staticLoP95Ms, row.staticHiP95Ms);
                    band(0.99, row.staticLoP99Ms, row.staticHiP99Ms);
                }
                row.gateKind = "static";
                row.gatePassed = true;
                out.rows.push_back(std::move(row));

                auto fresh = freshnessViolations(model, *env, costs);
                out.freshness.insert(out.freshness.end(),
                                     fresh.begin(), fresh.end());
            }
        }
    }

    // Freshness ground truth: the verifier's SensorRelay twins under
    // the sweep's TICS configuration. The guarded twin re-samples
    // expired readings (no unguarded timed use, so no estimate at
    // all); the unguarded twin consumes them cold, so its timed
    // variable must earn a nonzero violation probability under any
    // environment that can interleave an outage between sample and
    // use.
    for (const harness::Scenario &relay : relayScenarios()) {
        const ProgramModel model =
            calibrateModel(relay, sweepParams(), cfg.modelSeed,
                           cfg.calibrationBudget, /*record=*/false);
        for (const EnvModel *env : {&envs.pat, &envs.sto}) {
            auto fresh = freshnessViolations(model, *env, costs);
            out.freshness.insert(out.freshness.end(), fresh.begin(),
                                 fresh.end());
        }
    }
    return out;
}

void
gateProbRow(ProbGateRow &row, const ProbGateTolerance &tol)
{
    row.failedPercentile.clear();
    row.worstRel = 0.0;

    if (row.pNonterm > 0.5) {
        // Verdict agreement: a statically nonterminating pair must
        // never complete in simulation either.
        row.gateKind = "nonterm";
        row.gatePassed = row.simCompleted == 0;
        if (!row.gatePassed)
            row.failedPercentile = "completion";
        return;
    }

    row.gateKind = "percentiles";
    if (row.simCompleted != row.simCells) {
        // Static says "terminates" but some simulated cells did not.
        row.gatePassed = false;
        row.failedPercentile = "completion";
        return;
    }

    struct Gate {
        const char *name;
        double lo, hi, sim, tol;
    } gates[] = {
        {"p50",
         row.staticLoP50Ms > 0.0 ? row.staticLoP50Ms : row.staticP50Ms,
         row.staticHiP50Ms > 0.0 ? row.staticHiP50Ms : row.staticP50Ms,
         row.simP50Ms, tol.p50},
        {"p95",
         row.staticLoP95Ms > 0.0 ? row.staticLoP95Ms : row.staticP95Ms,
         row.staticHiP95Ms > 0.0 ? row.staticHiP95Ms : row.staticP95Ms,
         row.simP95Ms, tol.p95},
        {"p99",
         row.staticLoP99Ms > 0.0 ? row.staticLoP99Ms : row.staticP99Ms,
         row.staticHiP99Ms > 0.0 ? row.staticHiP99Ms : row.staticP99Ms,
         row.simP99Ms, tol.p99},
    };
    row.gatePassed = true;
    for (const auto &g : gates) {
        // Deviation is the relative distance outside the
        // order-statistic band; inside the band it is zero.
        double dev = 0.0;
        if (g.sim < g.lo)
            dev = relDev(g.lo, g.sim);
        else if (g.sim > g.hi)
            dev = relDev(g.hi, g.sim);
        row.worstRel = std::max(row.worstRel, dev);
        if (dev > g.tol && row.gatePassed) {
            row.gatePassed = false;
            row.failedPercentile = g.name;
        }
    }
}

Finding
probGateFinding(const ProbGateRow &row)
{
    Finding f;
    f.analysis = "prob-crossval";
    f.app = row.app;
    f.runtime = row.runtime;
    f.subject = row.env;
    f.anchor = row.failedPercentile.empty() ? "gate"
                                            : row.failedPercentile;
    f.detail =
        row.gateKind == "nonterm"
            ? fmt("static model predicts nontermination (p=%.3f) but "
                  "%llu of %llu simulated cells completed under %s",
                  row.pNonterm,
                  static_cast<unsigned long long>(row.simCompleted),
                  static_cast<unsigned long long>(row.simCells),
                  row.env.c_str())
            : fmt("completion-time %s gate failed under %s: static "
                  "%.2f/%.2f/%.2f ms vs simulated %.2f/%.2f/%.2f ms "
                  "at p50/p95/p99 (worst rel. dev. %.2f)",
                  row.failedPercentile.c_str(), row.env.c_str(),
                  row.staticP50Ms, row.staticP95Ms, row.staticP99Ms,
                  row.simP50Ms, row.simP95Ms, row.simP99Ms,
                  row.worstRel);
    return f;
}

ProbCrossValReport
probCrossValidate(const ProbCrossValConfig &cfg)
{
    ProbCrossValReport report;
    const device::CostModel costs{};
    const Envs envs = makeEnvs(cfg, costs);

    // Static side first (also recovers the models).
    ProbStaticResult st = probStaticAnalyze(cfg);
    report.freshness = std::move(st.freshness);

    // Simulated side: one sweep covering both supplies and every
    // seed; per-cell elapsed times aggregate into cross-seed
    // distributions keyed like the static rows.
    sweep::SweepConfig sc;
    sc.grid.apps = {kApps[0], kApps[1], kApps[2]};
    sc.grid.runtimes.assign(std::begin(kRuntimes),
                            std::end(kRuntimes));
    sweep::SupplyAxis stochasticAxis;
    stochasticAxis.kind = sweep::SupplyKind::Stochastic;
    sc.grid.supplies = {envs.patternAxis, stochasticAxis};
    sc.grid.capsUf = {cfg.stochasticCapUf};
    sc.grid.segments = {256};
    sc.grid.seeds = cfg.seeds;
    sc.jobs = cfg.jobs;
    sc.useCache = cfg.useCache;
    sc.cacheDir = cfg.cacheDir;
    const sweep::SweepResult sim = sweep::runSweep(sc);

    struct SimGroup {
        Distribution elapsedMs;
        std::uint64_t cells = 0;
        std::uint64_t completed = 0;
    };
    std::map<std::string, SimGroup> groups; // app|runtime|env
    for (const auto &c : sim.cells) {
        auto &g = groups[c.cell.app + "|" + c.cell.runtime + "|" +
                         c.cell.supply.token()];
        ++g.cells;
        if (c.result.completed) {
            ++g.completed;
            g.elapsedMs.sample(
                static_cast<double>(c.result.elapsedNs) / 1e6);
        }
    }

    // Attach each row's simulated distribution and gate it.
    for (ProbGateRow &row : st.rows) {
        const auto it =
            groups.find(row.app + "|" + row.runtime + "|" + row.env);
        if (it != groups.end()) {
            row.simCells = it->second.cells;
            row.simCompleted = it->second.completed;
            row.simP50Ms = it->second.elapsedMs.p50();
            row.simP95Ms = it->second.elapsedMs.p95();
            row.simP99Ms = it->second.elapsedMs.p99();
        }
        gateProbRow(row, cfg.tol);
        if (!row.gatePassed) {
            report.pass = false;
            report.findings.push_back(probGateFinding(row));
        }
        report.rows.push_back(std::move(row));
    }
    return report;
}

Table
probCrossValTable(const ProbCrossValReport &r)
{
    Table t("ticsverify --prob: completion time (static vs simulated; "
            "sim columns zero without --crossval)");
    t.header({"App", "Runtime", "Env", "StaP50", "StaP95", "StaP99",
              "SimP50", "SimP95", "SimP99", "Nonterm", "Gate"});
    for (const auto &row : r.rows) {
        t.row()
            .cell(row.app)
            .cell(row.runtime)
            .cell(row.env)
            .cell(fmt("%.2f", row.staticP50Ms))
            .cell(fmt("%.2f", row.staticP95Ms))
            .cell(fmt("%.2f", row.staticP99Ms))
            .cell(fmt("%.2f", row.simP50Ms))
            .cell(fmt("%.2f", row.simP95Ms))
            .cell(fmt("%.2f", row.simP99Ms))
            .cell(fmt("%.2f", row.pNonterm))
            .cell(row.gatePassed
                      ? (row.gateKind == "nonterm" ? "ok (nonterm)"
                                                   : "ok")
                      : "FAIL " + row.failedPercentile);
    }
    return t;
}

Table
freshnessTable(const std::vector<FreshnessEstimate> &rows)
{
    Table t("ticsverify --prob: freshness-violation probability");
    t.header({"App", "Runtime", "Env", "Subject", "Lifetime",
              "P[viol]", "Sites"});
    for (const auto &f : rows) {
        t.row()
            .cell(f.app)
            .cell(f.runtime)
            .cell(f.env)
            .cell(f.subject)
            .cell(fmt("%.1f ms", f.lifetimeNs / 1e6))
            .cell(fmt("%.4f", f.pViolation))
            .cell(static_cast<std::uint64_t>(f.sites));
    }
    return t;
}

} // namespace ticsim::verify
