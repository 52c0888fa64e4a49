#include "crossval.hpp"

#include <cstdio>
#include <functional>
#include <map>
#include <utility>

#include "analysis/access_trace.hpp"
#include "analysis/war_detector.hpp"
#include "harness/experiment.hpp"
#include "sweep/job_pool.hpp"

namespace ticsim::verify {

namespace {

/** Dynamic evidence of one (app, runtime) pattern-supply probe. */
struct DynamicEvidence {
    std::string app;
    std::string runtime;
    analysis::WarReport war;
    std::uint64_t expirationsObserved = 0;
    std::size_t duplicateSends = 0;
    bool completed = false;
};

/** Count payloads the radio log carries more than once. */
std::size_t
countDuplicateSends(board::Board &b)
{
    // String keys, not byte vectors: GCC 12 at -O3 reports a false
    // -Wstringop-overread inside vector's operator<=>.
    std::map<std::string, std::size_t> seen;
    for (const auto &p : b.radio().packets())
        ++seen[std::string(p.payload.begin(), p.payload.end())];
    std::size_t dups = 0;
    for (const auto &[payload, n] : seen) {
        if (n > 1)
            dups += n - 1;
    }
    return dups;
}

/**
 * One intermittent probe run of @p s under the deployment reset
 * pattern, traced with the dynamic checker's own pipeline.
 */
DynamicEvidence
probe(const VerifyConfig &cfg, const harness::Scenario &s,
      const harness::ScenarioParams &params)
{
    const TimeNs budget =
        s.isProtected ? cfg.calibrationBudget : 3 * kNsPerSec;
    const auto spec = harness::patternSpec(cfg.patternPeriod,
                                           cfg.patternOnFraction);
    auto board = harness::makeBoard(spec, cfg.seed);
    harness::ScenarioInstance inst = s.build(*board, params);

    analysis::AccessTracer tracer(*board);
    const auto res =
        board->run(*inst.runtime, std::move(inst.entry), budget);
    tracer.finalize();

    DynamicEvidence ev;
    ev.app = s.app;
    ev.runtime = s.runtime;
    ev.war = analysis::WarHazardDetector(board->nvram())
                 .analyze(tracer.intervals());
    ev.expirationsObserved =
        board->monitor()
            .counts(board::ViolationKind::Expiration)
            .observed;
    ev.duplicateSends = countDuplicateSends(*board);
    ev.completed = res.completed;
    return ev;
}

/** [offset, offset+bytes) overlap on the same NV region. */
bool
rangesOverlap(const Finding &f, const std::string &region,
              std::uint32_t offset, std::uint32_t bytes)
{
    return f.subject == region && offset < f.offset + f.bytes &&
           f.offset < offset + bytes;
}

struct PairKey {
    std::string app;
    std::string runtime;
    bool operator<(const PairKey &o) const
    {
        return app != o.app ? app < o.app : runtime < o.runtime;
    }
};

} // namespace

CrossValReport
crossValidate(const VerifyConfig &cfg)
{
    // The evidence gatherers — the static verifier matrix, the dynamic
    // checker matrix and the probe runs — are independent (every
    // run builds a fresh Board and all runtime hooks are thread_local),
    // so they execute as coarse jobs on the sweep pool. Each writes
    // into its own pre-allocated slot; the matching below walks the
    // slots in a fixed order, so the report does not depend on the job
    // count or completion order.
    analysis::CheckConfig dyn;
    dyn.patternPeriod = cfg.patternPeriod;
    dyn.patternOnFraction = cfg.patternOnFraction;
    dyn.seed = cfg.seed;
    dyn.bc = cfg.bc;
    dyn.cuckoo = cfg.cuckoo;

    // Probes cover the verifier's rows that the checker's matrix
    // leaves out (AR, GHM, Study, SensorRelay).
    harness::ScenarioParams params;
    params.ar = cfg.ar;
    params.tics = harness::matrixTics();
    std::vector<const harness::Scenario *> probed;
    for (const harness::Scenario *s : verifierScenarios())
        if (!harness::inConsistencyMatrix(*s))
            probed.push_back(s);

    std::vector<AppVerdict> verdicts;
    std::vector<analysis::ScenarioFinding> scenarios;
    std::vector<DynamicEvidence> probes(probed.size());

    std::vector<std::function<void()>> gather;
    gather.push_back([&] { verdicts = verifyMatrix(cfg); });
    gather.push_back([&] { scenarios = analysis::checkMatrix(dyn); });
    for (std::size_t i = 0; i < probed.size(); ++i)
        gather.push_back(
            [&, i] { probes[i] = probe(cfg, *probed[i], params); });

    const sweep::JobPool pool(cfg.jobs);
    pool.run(gather.size(),
             [&](std::size_t i) { gather[i](); });

    std::map<PairKey, const AppVerdict *> staticByPair;
    for (const auto &v : verdicts)
        staticByPair[{v.app, v.runtime}] = &v;

    // --- matching --------------------------------------------------------
    std::map<PairKey, CrossValRow> rows;
    const auto rowFor = [&](const std::string &app,
                            const std::string &runtime)
        -> CrossValRow & {
        auto &r = rows[{app, runtime}];
        r.app = app;
        r.runtime = runtime;
        return r;
    };
    // Static findings that gathered dynamic proof, by address.
    std::map<const Finding *, bool> confirmedMap;
    for (const auto &[key, v] : staticByPair) {
        for (const auto &f : v->findings)
            confirmedMap[&f] = false;
    }

    const auto matchWar = [&](const std::string &app,
                              const std::string &runtime,
                              const analysis::WarReport &war) {
        auto &row = rowFor(app, runtime);
        const auto *v = staticByPair.count({app, runtime})
                            ? staticByPair[{app, runtime}]
                            : nullptr;
        for (const auto &h : war.hazards) {
            ++row.dynamicDetections;
            if (!v)
                continue;
            const Finding *regionMatch = nullptr;
            const Finding *exactMatch = nullptr;
            for (const auto &f : v->findings) {
                if (f.analysis != "war-possibility")
                    continue;
                if (f.subject == h.region) {
                    regionMatch = &f;
                    if (rangesOverlap(f, h.region, h.offset, h.bytes))
                        exactMatch = &f;
                }
            }
            if (exactMatch) {
                ++row.matchedExact;
                ++row.matched;
                confirmedMap[exactMatch] = true;
            } else if (regionMatch) {
                ++row.matched;
                confirmedMap[regionMatch] = true;
            }
        }
    };

    const auto matchKind = [&](const std::string &app,
                               const std::string &runtime,
                               const char *analysisKind,
                               std::size_t detections) {
        if (detections == 0)
            return;
        auto &row = rowFor(app, runtime);
        row.dynamicDetections += detections;
        const auto *v = staticByPair.count({app, runtime})
                            ? staticByPair[{app, runtime}]
                            : nullptr;
        if (!v)
            return;
        for (const auto &f : v->findings) {
            if (f.analysis == analysisKind) {
                row.matched += detections;
                row.matchedExact += detections;
                confirmedMap[&f] = true;
                return;
            }
        }
    };

    for (const auto &s : scenarios) {
        matchWar(s.app, s.runtime, s.war);
        // A plain-C subject that demonstrably cannot finish under the
        // pattern is the dynamic face of the energy-progress finding.
        if (!s.isProtected && !s.subject.completed)
            matchKind(s.app, s.runtime, "energy-progress", 1);
    }
    for (const auto &p : probes) {
        matchWar(p.app, p.runtime, p.war);
        matchKind(p.app, p.runtime, "timeliness",
                  p.expirationsObserved > 0 ? 1 : 0);
        matchKind(p.app, p.runtime, "io-idempotency",
                  p.duplicateSends > 0 ? 1 : 0);
        if (p.runtime == "plain-C" && !p.completed)
            matchKind(p.app, p.runtime, "energy-progress", 1);
    }

    // --- reduce ----------------------------------------------------------
    CrossValReport report;
    for (const auto &[key, v] : staticByPair) {
        auto &row = rowFor(key.app, key.runtime);
        row.staticFindings = v->findings.size();
        for (const auto &f : v->findings) {
            if (confirmedMap[&f])
                ++row.confirmed;
        }
    }
    for (auto &[key, row] : rows) {
        report.totalDynamic += row.dynamicDetections;
        report.totalMatched += row.matched;
        report.totalStatic += row.staticFindings;
        report.totalConfirmed += row.confirmed;
        report.rows.push_back(row);
    }
    return report;
}

Table
crossValTable(const CrossValReport &report)
{
    Table t("ticsverify: cross-validation vs dynamic ticscheck");
    t.header({"App", "Runtime", "Dynamic", "Matched", "Exact",
              "Static", "Confirmed", "Coverage", "FP rate"});
    char cov[32];
    char fp[32];
    for (const auto &r : report.rows) {
        std::snprintf(cov, sizeof(cov), "%.0f%%", r.coverage() * 100.0);
        std::snprintf(fp, sizeof(fp), "%.0f%%",
                      r.falsePositiveRate() * 100.0);
        t.row()
            .cell(r.app)
            .cell(r.runtime)
            .cell(static_cast<std::uint64_t>(r.dynamicDetections))
            .cell(static_cast<std::uint64_t>(r.matched))
            .cell(static_cast<std::uint64_t>(r.matchedExact))
            .cell(static_cast<std::uint64_t>(r.staticFindings))
            .cell(static_cast<std::uint64_t>(r.confirmed))
            .cell(cov)
            .cell(fp);
    }
    return t;
}

} // namespace ticsim::verify
