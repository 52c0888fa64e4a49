#include "sweep.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "perf/host_profiler.hpp"
#include "support/logging.hpp"
#include "sweep/job_pool.hpp"

namespace ticsim::sweep {

namespace {

harness::SupplySpec
supplySpecFor(const Cell &cell)
{
    harness::SupplySpec spec;
    if (!cell.env.empty()) {
        spec.setup = harness::PowerSetup::TraceEnv;
        spec.traceEnv = cell.env;
        spec.seed = cell.seed;
        if (cell.capUf > 0.0)
            spec.capacitanceF = cell.capUf * 1e-6;
        return spec;
    }
    switch (cell.supply.kind) {
      case SupplyKind::Continuous:
        spec = harness::continuousSpec();
        break;
      case SupplyKind::Pattern:
        spec = harness::patternSpec(
            static_cast<TimeNs>(cell.supply.periodMs *
                                static_cast<double>(kNsPerMs)),
            cell.supply.onFraction);
        break;
      case SupplyKind::Rf:
        spec.setup = harness::PowerSetup::RfHarvested;
        break;
      case SupplyKind::Stochastic:
        spec.setup = harness::PowerSetup::Stochastic;
        break;
    }
    spec.seed = cell.seed;
    if (cell.capUf > 0.0)
        spec.capacitanceF = cell.capUf * 1e-6;
    return spec;
}

} // namespace

CellResult
runCell(const Cell &cell, const SweepConfig &cfg)
{
    const harness::Scenario &s = harness::scenario(cell.app, cell.runtime);
    // Plain C under an interrupting supply restarts from scratch every
    // reboot; time-box it like the checker does. Environment traces
    // are always interrupting (that is their point).
    const bool interrupting =
        !cell.env.empty() ||
        cell.supply.kind != SupplyKind::Continuous;
    const TimeNs budget = (!s.isProtected && interrupting)
                              ? cfg.unprotectedBudget
                              : cfg.budget;

    // One fresh board + runtime + app, exactly like the checker's
    // reference runs: nothing persists between cells, so a cell's
    // result depends only on its configuration.
    harness::ScenarioParams params;
    params.tics =
        harness::sweepTics(cell.segmentBytes ? cell.segmentBytes : 256);
    auto board = harness::makeBoard(supplySpecFor(cell), cell.seed);
    harness::ScenarioInstance inst = s.build(*board, params);

    board::RunResult res;
    {
        perf::HostScope scope(perf::HostZone::SimCore);
        res = board->run(*inst.runtime, std::move(inst.entry), budget);
    }

    CellResult out;
    out.completed = res.completed;
    out.starved = res.starved;
    out.verified = inst.verify();
    out.reboots = res.reboots;
    out.cycles = res.cycles;
    out.elapsedNs = res.elapsed;
    out.onTimeNs = res.onTime;
    out.simMs.sample(out.simMsValue());
    return out;
}

SweepResult
runSweep(const SweepConfig &cfg)
{
    SweepResult result;
    const std::vector<Cell> cells = cfg.grid.cells();
    result.cells.resize(cells.size());

    const ResultCache cache(cfg.useCache ? cfg.cacheDir
                                         : std::string());
    const JobPool pool(cfg.jobs);
    result.jobs = pool.jobs();

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};

    const auto wallStart = std::chrono::steady_clock::now();
    pool.run(cells.size(), [&](std::size_t i) {
        const Cell &cell = cells[i];
        SweepCellOutcome &out = result.cells[i];
        out.cell = cell;
        {
            perf::HostScope scope(perf::HostZone::CacheIo);
            if (cache.lookup(cell, out.result)) {
                out.fromCache = true;
                hits.fetch_add(1, std::memory_order_relaxed);
                return;
            }
        }
        // Tag this worker's log lines with the cell's JobId for the
        // duration of the run.
        const std::string tag = cell.jobIdHex();
        ScopedLogJobTag logTag(tag.c_str());
        out.result = runCell(cell, cfg);
        out.fromCache = false;
        if (cache.enabled()) {
            perf::HostScope scope(perf::HostZone::CacheIo);
            cache.store(cell, out.result);
            misses.fetch_add(1, std::memory_order_relaxed);
        }
    });
    const auto wallEnd = std::chrono::steady_clock::now();
    result.wallMs =
        std::chrono::duration<double, std::milli>(wallEnd - wallStart)
            .count();
    result.cacheHits = hits.load();
    result.cacheMisses = misses.load();

    result.aggregates = aggregateOutcomes(result.cells);
    return result;
}

std::vector<SweepAggregate>
aggregateOutcomes(const std::vector<SweepCellOutcome> &cells)
{
    // Aggregate across seeds: groups keyed by the configuration minus
    // the seed, merged in the cells' canonical JobId order (std::map
    // makes the group order itself deterministic too).
    perf::HostScope aggScope(perf::HostZone::Aggregate);
    std::map<std::string, SweepAggregate> groups;
    for (const SweepCellOutcome &out : cells) {
        const std::string key = out.cell.groupKey();
        auto [it, inserted] =
            groups.try_emplace(key, SweepAggregate{});
        SweepAggregate &agg = it->second;
        if (inserted) {
            agg.groupKey = key;
            agg.representative = out.cell;
        }
        ++agg.cellsMerged;
        if (out.result.completed)
            ++agg.completedCells;
        agg.simMs.merge(out.result.simMs);
    }
    std::vector<SweepAggregate> aggregates;
    aggregates.reserve(groups.size());
    for (auto &kv : groups)
        aggregates.push_back(std::move(kv.second));
    return aggregates;
}

harness::GridSection
toGridSection(const SweepResult &r, bool stable)
{
    harness::GridSection g;
    g.cacheHits = stable ? 0 : r.cacheHits;
    g.cacheMisses = stable ? 0 : r.cacheMisses;
    g.jobs = stable ? 0 : r.jobs;
    g.wallMs = stable ? 0.0 : r.wallMs;
    for (const auto &out : r.cells) {
        harness::GridCellEntry e;
        e.jobId = out.cell.jobIdHex();
        e.app = out.cell.app;
        e.runtime = out.cell.runtime;
        e.supply = out.cell.supply.token();
        e.capUf = out.cell.capUf;
        e.segmentBytes = out.cell.segmentBytes;
        e.env = out.cell.env;
        e.seed = out.cell.seed;
        e.completed = out.result.completed;
        e.starved = out.result.starved;
        e.verified = out.result.verified;
        e.reboots = out.result.reboots;
        e.cycles = out.result.cycles;
        e.elapsedNs = out.result.elapsedNs;
        e.onTimeNs = out.result.onTimeNs;
        e.simMs = out.result.simMsValue();
        e.cached = stable ? false : out.fromCache;
        g.cells.push_back(std::move(e));
    }
    for (const auto &agg : r.aggregates) {
        harness::GridAggregateEntry e;
        e.app = agg.representative.app;
        e.runtime = agg.representative.runtime;
        e.supply = agg.representative.supply.token();
        e.capUf = agg.representative.capUf;
        e.segmentBytes = agg.representative.segmentBytes;
        e.env = agg.representative.env;
        e.cells = agg.cellsMerged;
        e.completed = agg.completedCells;
        e.mean = agg.simMs.mean();
        e.stddev = agg.simMs.stddev();
        e.min = agg.simMs.min();
        e.max = agg.simMs.max();
        e.p50 = agg.simMs.p50();
        e.p95 = agg.simMs.p95();
        e.p99 = agg.simMs.p99();
        g.aggregates.push_back(std::move(e));
    }
    return g;
}

Table
sweepTable(const SweepResult &r)
{
    Table t("ticssweep: per-cell results");
    t.header({"JobId", "App", "Runtime", "Supply", "Cap uF", "Seg",
              "Seed", "Done", "Verified", "Reboots", "Sim ms",
              "Cached"});
    for (const auto &out : r.cells) {
        const Cell &c = out.cell;
        t.row()
            .cell(c.jobIdHex())
            .cell(c.app)
            .cell(c.runtime)
            .cell(c.env.empty() ? c.supply.token() : "env:" + c.env)
            .cell(c.capUf)
            .cell(static_cast<std::uint64_t>(c.segmentBytes))
            .cell(c.seed)
            .cell(out.result.completed ? "yes" : "no")
            .cell(out.result.verified ? "yes" : "no")
            .cell(out.result.reboots)
            .cell(out.result.simMsValue())
            .cell(out.fromCache ? "hit" : "run");
    }
    return t;
}

Table
aggregateTable(const SweepResult &r)
{
    Table t("ticssweep: cross-seed aggregates (powered sim ms)");
    t.header({"App", "Runtime", "Supply", "Cap uF", "Seg", "Cells",
              "Done", "Mean", "Stddev", "p50", "p95", "p99"});
    for (const auto &agg : r.aggregates) {
        const Cell &c = agg.representative;
        t.row()
            .cell(c.app)
            .cell(c.runtime)
            .cell(c.env.empty() ? c.supply.token() : "env:" + c.env)
            .cell(c.capUf)
            .cell(static_cast<std::uint64_t>(c.segmentBytes))
            .cell(agg.cellsMerged)
            .cell(agg.completedCells)
            .cell(agg.simMs.mean())
            .cell(agg.simMs.stddev())
            .cell(agg.simMs.p50())
            .cell(agg.simMs.p95())
            .cell(agg.simMs.p99());
    }
    return t;
}

} // namespace ticsim::sweep
