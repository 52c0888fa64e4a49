/**
 * @file
 * The four benchmark workloads, their golden-output check and the
 * traced per-layer run.
 *
 * Seeds. A run's --seed selects one of kWindows disjoint windows of
 * the grid seed axis (window = seed mod kWindows); nothing else about
 * the inputs depends on it. Every window has recorded goldens, so any
 * seed is checkable. Default seed 1 and held-out seed 2 fall in
 * different windows. The env= cells are the exception: whether a cell
 * starts in a dark stretch of its trace (and then costs ~100x more
 * host time to integrate through it) is decided by its seed, so a
 * window of a few dozen seeds would change the workload's cost by tens
 * of percent. They run one fixed seed set in every window.
 *
 * Timing. A pass is a fixed list of calls into a public entry point:
 * sweep::runSweep over one slice of the seed axis, or
 * fault::exploreMatrix over one pair. A run repeats passes until
 * --seconds have elapsed (at least kMinPasses). Every call and every
 * set-up is preceded by a reference kernel that tracks the shared
 * host's speed, and is charged its time at the reference speed (see
 * CallTimes::passRefS()). The result cache is always off.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "fault/campaign.hpp"
#include "fault/explore.hpp"
#include "harness/report.hpp"
#include "hostbench.hpp"
#include "perf/counters.hpp"
#include "perf/host_profiler.hpp"
#include "support/logging.hpp"
#include "sweep/grid.hpp"
#include "sweep/job_pool.hpp"
#include "sweep/sweep.hpp"

using namespace ticsim;

namespace hostbench {

namespace {

constexpr std::uint64_t kSeedBase = 11;
constexpr std::uint64_t kWindows = 4;
constexpr int kMinPasses = 3;
constexpr int kSetupReps = 9;
constexpr std::size_t kReservedPasses = 256;

const std::vector<std::string> kApps{"AR", "BC", "CF"};
const std::vector<std::string> kRuntimes{
    "TICS", "MementOS-like", "Chinchilla-like", "Alpaca-like", "plain-C"};
const std::vector<std::string> kEnvs{"solar_diurnal", "rf_mobile",
                                     "thermal_gradient"};

/** One GridSpec's worth of axes. */
struct GridPart {
    std::vector<std::string> supplies; ///< supply tokens
    std::vector<std::string> envs;     ///< env traces ("" = none)
    std::uint64_t seeds;               ///< seed-axis length
    bool windowed = true; ///< false: seeds kSeedBase.. in every window
};

struct Workload {
    std::string name;
    bool explore = false;
    std::vector<GridPart> parts; ///< grid workloads
    /** Seeds per runSweep call. One keeps a call at ~5-30 ms; the
     *  parallel workload takes four so every call feeds all workers. */
    std::uint64_t seedsPerCall = 1;
    bool parallel = false; ///< timed at N jobs, also at 1
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w{
        {"grid_powered",
         false,
         {{{"continuous", "pattern:30:0.6"}, {""}, 200}},
         1,
         false},
        {"grid_harvested",
         false,
         {{{"rf", "stochastic"}, {""}, 60},
          {{"continuous"}, kEnvs, 16, false}},
         1,
         false},
        {"grid_parallel",
         false,
         {{{"continuous", "pattern:30:0.6", "rf", "stochastic"}, {""}, 60},
          {{"continuous"}, kEnvs, 16, false}},
         4,
         true},
        {"explore_depth2", true, {}, 1, false},
    };
    return w;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    fatal("hostbench: unknown workload '%s'", name.c_str());
}

std::uint64_t
windowOf(std::uint64_t seed)
{
    return seed % kWindows;
}

/** The workload's grid for @p window, cut into runSweep calls of
 *  w.seedsPerCall seeds each. */
std::vector<sweep::GridSpec>
gridSlices(const Workload &w, std::uint64_t window)
{
    std::vector<sweep::GridSpec> slices;
    for (const GridPart &p : w.parts) {
        sweep::GridSpec g;
        g.apps = kApps;
        g.runtimes = kRuntimes;
        g.supplies.clear();
        for (const std::string &tok : p.supplies) {
            sweep::SupplyAxis ax;
            if (!sweep::parseSupplyToken(tok, ax))
                fatal("hostbench: bad supply token '%s'", tok.c_str());
            g.supplies.push_back(ax);
        }
        g.envs = p.envs;
        const std::uint64_t first =
            kSeedBase + (p.windowed ? window * p.seeds : 0);
        for (std::uint64_t i = 0; i < p.seeds; i += w.seedsPerCall) {
            g.seeds.clear();
            for (std::uint64_t s = i; s < std::min(i + w.seedsPerCall, p.seeds);
                 ++s)
                g.seeds.push_back(first + s);
            slices.push_back(g);
        }
    }
    return slices;
}

unsigned
parallelJobs()
{
    return std::min(sweep::JobPool::defaultJobs(), 4u);
}

fault::ExploreConfig
exploreConfig(std::uint64_t window)
{
    fault::ExploreConfig cfg;
    cfg.base.seed = kSeedBase + window;
    // The workload sizes ticsmc explores with: the campaign-sized apps
    // put tens of thousands of decision points in every recording.
    cfg.base.bc.iterations = 2;
    cfg.base.cuckoo.workScale = 1.0;
    cfg.base.cuckoo.keys = 8;
    cfg.maxFaults = 2;
    cfg.jobs = 1;
    return cfg;
}

/**
 * campaignPairs() minus Cuckoo under Chinchilla-like and plain C. Each
 * of those two takes ~1.6 s of a ~4 s pass (70% of the states, and
 * from-boot confirmation replays), and calls that long are both too few
 * per run for a steady fastest repetition and too long for the
 * reference kernel to track the host's speed across them. The eight
 * left still cover snapshot/restore, the write journal, rollback,
 * confirmed violations (BC/plain-C) and sink/gate dispatch.
 */
std::vector<fault::PairSpec>
explorePairs(const fault::ExploreConfig &cfg)
{
    std::vector<fault::PairSpec> pairs = fault::campaignPairs(cfg.base);
    std::erase_if(pairs, [](const fault::PairSpec &p) {
        return p.app == "Cuckoo" &&
               (p.runtime == "Chinchilla-like" || p.runtime == "plain-C");
    });
    return pairs;
}

// ---- outcomes and goldens ------------------------------------------------

/** One modeled outcome: a cell's JobId or a pair's "app/runtime", and
 *  its stable value. */
struct Outcome {
    std::string key;
    std::string value;
};

/** Digest of one cell's stable grid entry (toGridSection(r, true)). */
std::string
cellDigest(const harness::GridCellEntry &e)
{
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "%s|%s|%s|%s|%.17g|%" PRIu64 "|%s|%" PRIu64
                  "|%d%d%d|%" PRIu64 "|%" PRIu64 "|%" PRIu64 "|%" PRIu64
                  "|%.17g",
                  e.jobId.c_str(), e.app.c_str(), e.runtime.c_str(),
                  e.supply.c_str(), e.capUf,
                  static_cast<std::uint64_t>(e.segmentBytes), e.env.c_str(),
                  static_cast<std::uint64_t>(e.seed), e.completed ? 1 : 0,
                  e.starved ? 1 : 0, e.verified ? 1 : 0,
                  static_cast<std::uint64_t>(e.reboots),
                  static_cast<std::uint64_t>(e.cycles),
                  static_cast<std::uint64_t>(e.elapsedNs),
                  static_cast<std::uint64_t>(e.onTimeNs), e.simMs);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, sweep::fnv1a64(buf));
    return hex;
}

/** One explored pair's census. */
std::string
pairCensus(const fault::PairExploreResult &p)
{
    std::string plans;
    for (const fault::ExploredViolation &v : p.violations)
        plans += v.plan + (v.confirmed ? "+" : "-") + ";";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "decisions=%" PRIu64 " branches=%" PRIu64
                  " states=%" PRIu64 " cutoffs=%" PRIu64
                  " exhausted=%d confirmed=%" PRIu64 " plans=%016" PRIx64,
                  static_cast<std::uint64_t>(p.decisionPoints),
                  static_cast<std::uint64_t>(p.branchesTaken),
                  static_cast<std::uint64_t>(p.statesExplored),
                  static_cast<std::uint64_t>(p.frontierCutoffs),
                  p.exhausted ? 1 : 0,
                  static_cast<std::uint64_t>(p.confirmedViolations),
                  sweep::fnv1a64(plans));
    return buf;
}

std::string
goldenPath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".txt";
}

/** One window's goldens: key -> slot, and each slot's key and value. */
struct Goldens {
    std::unordered_map<std::string, std::size_t> slot;
    std::vector<std::string> keys;
    std::vector<std::string> values;
};

/**
 * Golden file: '#' comments, then "<window> <key> <value>" lines.
 * Returns the entries of @p window (empty if absent).
 */
Goldens
loadGoldens(const std::string &path, std::uint64_t window)
{
    std::ifstream in(path);
    if (!in)
        fatal("hostbench: cannot read goldens '%s'", path.c_str());
    Goldens g;
    std::string line;
    const std::string prefix = std::to_string(window) + " ";
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        const std::size_t sp = line.find(' ', prefix.size());
        if (sp == std::string::npos)
            fatal("hostbench: malformed golden line '%s'", line.c_str());
        std::string key = line.substr(prefix.size(), sp - prefix.size());
        if (!g.slot.emplace(key, g.keys.size()).second)
            fatal("hostbench: duplicate golden key '%s'", key.c_str());
        g.keys.push_back(std::move(key));
        g.values.push_back(line.substr(sp + 1));
    }
    return g;
}

/**
 * Compares every outcome of a pass with the goldens. A pass must
 * produce each golden key exactly once with the golden value; a wrong,
 * unknown, repeated or missing outcome is one failure.
 *
 * Nothing here allocates between calls: how fast the simulator runs
 * depends on the heap layout its Boards land in (by up to ~25% on
 * grid_powered), and a lookup structure growing through the pass was
 * enough to shift it by window.
 */
class Checker
{
  public:
    explicit Checker(const Goldens &g) : goldens_(g), seen_(g.keys.size(), 0)
    {
    }

    void add(const std::vector<Outcome> &outs)
    {
        for (const Outcome &o : outs) {
            ++attempted;
            const auto it = goldens_.slot.find(o.key);
            if (it == goldens_.slot.end()) {
                fail(o.key + ": unknown");
            } else if (goldens_.values[it->second] != o.value) {
                fail(o.key + ": got '" + o.value + "', want '" +
                     goldens_.values[it->second] + "'");
            } else if (seen_[it->second]++ != 0) {
                fail(o.key + ": repeated");
            }
        }
    }

    /** Close one pass: every golden key must have been seen. */
    void endPass()
    {
        for (std::size_t i = 0; i < seen_.size(); ++i) {
            if (seen_[i] == 0) {
                ++attempted;
                fail(goldens_.keys[i] + ": missing");
            }
        }
        std::fill(seen_.begin(), seen_.end(), 0);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    void fail(const std::string &what)
    {
        if (++failed <= 5)
            std::fprintf(stderr, "hostbench: golden mismatch at %s\n",
                         what.c_str());
    }

    const Goldens &goldens_;
    std::vector<std::uint32_t> seen_;
};

// ---- calls and passes ------------------------------------------------------

/** The outcome and host time of one call. */
struct CallResult {
    double wallS = 0.0;
    std::vector<Outcome> outcomes;
    std::uint64_t items = 0; ///< cells or explored states
    std::uint64_t simCycles = 0;
    std::uint64_t simNs = 0;
};

void
collectGrid(const sweep::SweepResult &r, CallResult &c)
{
    const harness::GridSection g = sweep::toGridSection(r, true);
    for (const harness::GridCellEntry &e : g.cells) {
        c.outcomes.push_back({e.jobId, cellDigest(e)});
        c.simCycles += e.cycles;
        c.simNs += e.elapsedNs;
    }
    c.items += g.cells.size();
}

void
collectExplore(const fault::ExploreReport &rep, CallResult &c)
{
    for (const fault::PairExploreResult &p : rep.pairs) {
        c.outcomes.push_back({p.app + "/" + p.runtime, pairCensus(p)});
        c.items += p.statesExplored;
    }
}

/** Everything a run needs before its timed region. */
struct Prepared {
    std::vector<sweep::GridSpec> slices; ///< grid workloads
    fault::ExploreConfig ecfg;           ///< explore workload
    std::vector<fault::PairSpec> pairs;  ///< explore workload
    Goldens goldens;

    std::size_t calls() const
    {
        return slices.empty() ? pairs.size() : slices.size();
    }
};

CallResult
runCall(const Prepared &p, std::size_t i, unsigned jobs)
{
    CallResult c;
    if (p.slices.empty()) {
        const auto t0 = Clock::now();
        const fault::ExploreReport rep =
            fault::exploreMatrix(p.ecfg, {p.pairs[i]});
        c.wallS = secondsSince(t0);
        collectExplore(rep, c);
        return c;
    }
    sweep::SweepConfig cfg;
    cfg.grid = p.slices[i];
    cfg.jobs = jobs;
    cfg.useCache = false;
    const auto t0 = Clock::now();
    const sweep::SweepResult r = sweep::runSweep(cfg);
    c.wallS = secondsSince(t0);
    collectGrid(r, c);
    return c;
}

/**
 * A fixed piece of host work that owes nothing to the simulator:
 * dependent pseudo-random updates of a 64 KiB table. Timed before
 * every call, it tracks how fast the shared host is running at that
 * moment; other tenants slow it by 15-35% from one minute to the next.
 * Only a second, warm run is timed, so the reading does not depend on
 * what the previous call left in the caches. (A version that also
 * streamed over 2 MiB read ~40% faster after grid_powered calls than
 * after any other, and skewed that workload.)
 */
class ReferenceKernel
{
  public:
    ReferenceKernel() : table_(1u << 14) {}

    /** Host seconds of one warm run of the kernel. */
    double time()
    {
        run();
        const auto t0 = Clock::now();
        run();
        return secondsSince(t0);
    }

  private:
    void run()
    {
        std::uint32_t x = ++round_;
        std::uint32_t acc = 0;
        for (int i = 0; i < 150'000; ++i) {
            x = x * 1664525u + 1013904223u;
            std::uint32_t &slot = table_[(x >> 10) & (table_.size() - 1)];
            acc += slot ^ (x >> 3);
            slot = (acc & 1) ? slot + x : slot ^ acc;
        }
        table_[acc & (table_.size() - 1)] ^= acc;
    }

    std::vector<std::uint32_t> table_;
    std::uint32_t round_ = 0;
};

/** What the reference kernel takes on this benchmark's reference host
 *  (4-vCPU Xeon, 2.1 GHz) when nothing else runs. */
constexpr double kRefNominalS = 0.35e-3;

/** Calls on either side whose reference times set a call's local host
 *  speed. */
constexpr std::size_t kRefWindow = 5;

/** Per-call host times, and the reference time taken just before each
 *  call, over the passes of one run. */
struct CallTimes {
    std::vector<std::vector<double>> callS; ///< [call][pass]
    std::vector<std::vector<double>> refS;  ///< [call][pass]

    explicit CallTimes(std::size_t calls) : callS(calls), refS(calls)
    {
        // Grown up front, like Checker's state: see there.
        for (std::size_t i = 0; i < calls; ++i) {
            callS[i].reserve(kReservedPasses);
            refS[i].reserve(kReservedPasses);
        }
    }

    void add(std::size_t i, double call, double ref)
    {
        callS[i].push_back(call);
        refS[i].push_back(ref);
    }

    /** Host seconds of each pass, as measured. */
    std::vector<double> passS() const
    {
        std::vector<double> out(callS.front().size(), 0.0);
        for (const std::vector<double> &v : callS)
            for (std::size_t p = 0; p < v.size(); ++p)
                out[p] += v[p];
        return out;
    }

    /**
     * Host seconds of a pass at the reference host speed. Each call's
     * time is rescaled by kRefNominalS over the median reference time
     * of the calls within kRefWindow of it in the same pass, and
     * charged the median of its rescaled repetitions. The rescaling
     * removes the host's minute-scale drift, which no statistic of raw
     * times within one run can; the median drops bursts that hit a
     * minority of repetitions, and, unlike a minimum, does not chase
     * the noise of single reference samples.
     */
    double passRefS() const
    {
        const std::size_t calls = callS.size();
        double sum = 0.0;
        for (std::size_t i = 0; i < calls; ++i) {
            const std::size_t lo = i > kRefWindow ? i - kRefWindow : 0;
            const std::size_t hi = std::min(calls, i + kRefWindow + 1);
            std::vector<double> rescaled;
            for (std::size_t p = 0; p < callS[i].size(); ++p) {
                std::vector<double> near;
                for (std::size_t j = lo; j < hi; ++j)
                    near.push_back(refS[j][p]);
                rescaled.push_back(callS[i][p] * kRefNominalS / median(near));
            }
            sum += median(rescaled);
        }
        return sum;
    }

    /** Host speed against the reference: kRefNominalS over the median
     *  reference time (1 = reference speed, lower = slower). */
    double hostSpeed() const
    {
        std::vector<double> all;
        for (const std::vector<double> &v : refS)
            all.insert(all.end(), v.begin(), v.end());
        return kRefNominalS / median(all);
    }
};

/** Totals of one pass; the same on every pass (the model is
 *  deterministic and the goldens check it). */
struct PassTotals {
    std::uint64_t items = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t simNs = 0;

    void add(const CallResult &c)
    {
        items += c.items;
        simCycles += c.simCycles;
        simNs += c.simNs;
    }
};

// ---- traced passes ---------------------------------------------------------

/** Zone + counter snapshot for before/after deltas. */
struct LayerSnap {
    perf::HostProfiler prof;
    perf::HotCounters ctr;

    static LayerSnap take()
    {
        return {perf::mergedProfiler(), perf::mergedCounters()};
    }
};

double
zoneMs(const LayerSnap &a, const LayerSnap &b, perf::HostZone z)
{
    return (b.prof.zoneNs(z) - a.prof.zoneNs(z)) / 1e6;
}

/** Per-layer values of one traced pass. */
struct TracedPass {
    CallResult pass; ///< all outcomes; wallS excludes the report write
    Metrics m;
};

/** Counters shared by every traced pass. */
void
putCounters(const perf::HotCounters &d, Metrics &m)
{
    putCount(m, "tics.ckpt_commits", d.ckptCommits);
    putCount(m, "tics.ckpt_bytes_moved", d.ckptBytesMoved, "bytes");
    putCount(m, "tics.ckpt_restores", d.ckptRestores);
    putCount(m, "tics.undo_records_sealed", d.undoRecordsSealed);
    putCount(m, "tics.undo_records_rolled_back", d.undoRecordsRolledBack);
    putCount(m, "mem.nv_loads", d.nvLoads);
    putCount(m, "mem.nv_stores", d.nvStores);
    putCount(m, "mem.sink_dispatches", d.sinkDispatches);
    putCount(m, "mem.gate_dispatches", d.gateDispatches);
    putCount(m, "mem.hook_dispatches", d.hookDispatches);
    putCount(m, "mem.sink_fast_null", d.sinkFastNull);
    putCount(m, "mem.gate_fast_null", d.gateFastNull);
    putCount(m, "mem.hook_fast_null", d.hookFastNull);
    putCount(m, "telemetry.event_pushes", d.eventPushes);
    putCount(m, "telemetry.event_drops", d.eventDrops);
}

/**
 * The same runSweep calls as an untraced pass, but each one executed
 * the way runSweep executes it -- sweep::runCell on a JobPool, then
 * sweep::aggregateOutcomes -- so every cell and the aggregation can be
 * timed. Same cells, same results (the golden check runs on them). The
 * report of the whole pass is written once at the end, timed apart.
 */
TracedPass
tracedGridPass(const std::vector<sweep::GridSpec> &slices, unsigned jobs,
               const std::string &reportPath)
{
    TracedPass t;
    const sweep::SweepConfig cfg; // budgets only; no cache involved
    sweep::SweepResult all;
    std::vector<double> cellNs;
    double execS = 0.0;
    double aggS = 0.0;

    const LayerSnap s0 = LayerSnap::take();
    for (const sweep::GridSpec &slice : slices) {
        const std::vector<sweep::Cell> cells = slice.cells();
        sweep::SweepResult r;
        r.cells.resize(cells.size());
        std::vector<double> ns(cells.size(), 0.0);
        const auto t0 = Clock::now();
        const sweep::JobPool pool(jobs);
        pool.run(cells.size(), [&](std::size_t i) {
            const auto c0 = Clock::now();
            r.cells[i].cell = cells[i];
            r.cells[i].result = sweep::runCell(cells[i], cfg);
            ns[i] = secondsSince(c0) * 1e9;
        });
        execS += secondsSince(t0);
        const auto a0 = Clock::now();
        r.aggregates = sweep::aggregateOutcomes(r.cells);
        aggS += secondsSince(a0);
        all.cells.insert(all.cells.end(), r.cells.begin(), r.cells.end());
        cellNs.insert(cellNs.end(), ns.begin(), ns.end());
    }
    const LayerSnap s1 = LayerSnap::take();
    t.pass.wallS = execS + aggS;

    const auto w0 = Clock::now();
    {
        all.aggregates = sweep::aggregateOutcomes(all.cells);
        const harness::GridSection g = sweep::toGridSection(all, true);
        harness::ReportOptions ro;
        ro.jsonPath = reportPath;
        harness::BenchSession session("ticshostbench", ro);
        session.setGrid(g);
        session.finish();
    }
    const double reportS = secondsSince(w0);
    collectGrid(all, t.pass);

    double cellSum = 0.0;
    std::map<std::string, std::vector<double>> byRuntime;
    std::vector<double> cellMs;
    std::uint64_t reboots = 0;
    for (std::size_t i = 0; i < all.cells.size(); ++i) {
        cellSum += cellNs[i];
        cellMs.push_back(cellNs[i] / 1e6);
        byRuntime[all.cells[i].cell.runtime].push_back(cellNs[i] / 1e3);
        reboots += all.cells[i].result.reboots;
    }
    const double simCoreMs = zoneMs(s0, s1, perf::HostZone::SimCore);
    const double ckptMs = zoneMs(s0, s1, perf::HostZone::Checkpoint);
    const double restoreMs = zoneMs(s0, s1, perf::HostZone::Restore);
    const double namedMs = simCoreMs + ckptMs + restoreMs +
                           zoneMs(s0, s1, perf::HostZone::Analysis) +
                           zoneMs(s0, s1, perf::HostZone::CacheIo);
    const double cellTotalMs = cellSum / 1e6;

    Metrics &m = t.m;
    putValue(m, "board.sim_core_ms", simCoreMs, "ms");
    putValue(m, "board.host_ns_per_sim_cycle",
             (simCoreMs + ckptMs + restoreMs) * 1e6 /
                 static_cast<double>(std::max<std::uint64_t>(
                     t.pass.simCycles, 1)),
             "ns");
    putValue(m, "board.cell_other_frac",
             cellTotalMs > 0.0 ? (cellTotalMs - namedMs) / cellTotalMs : 0.0,
             "frac");
    putCount(m, "board.reboots", reboots);
    putCount(m, "board.sim_cycles", t.pass.simCycles, "cycles");
    for (auto &[rt, v] : byRuntime)
        putValue(m, "runtimes.cell_us." + rt, median(v), "us");
    putValue(m, "sweep.cell_ms_p50", percentile(cellMs, 0.50), "ms");
    putValue(m, "sweep.cell_ms_p99", percentile(cellMs, 0.99), "ms");
    putCount(m, "sweep.cell_samples", cellMs.size());
    putValue(m, "sweep.pool_busy_frac",
             cellSum / 1e9 / (execS * static_cast<double>(jobs)), "frac");
    putValue(m, "sweep.aggregate_ms", aggS * 1e3, "ms");
    putValue(m, "harness.report_ms", reportS * 1e3, "ms");
    const perf::HotCounters d = s1.ctr.delta(s0.ctr);
    putCount(m, "sweep.jobs_executed", d.jobsExecuted);
    putCount(m, "sweep.job_steals", d.jobSteals);
    putValue(m, "tics.checkpoint_ms", ckptMs, "ms");
    putValue(m, "tics.restore_ms", restoreMs, "ms");
    putCounters(d, m);
    return t;
}

TracedPass
tracedExplorePass(const fault::ExploreConfig &cfg,
                  const std::vector<fault::PairSpec> &pairs,
                  const std::string &reportPath)
{
    TracedPass t;
    fault::ExploreReport rep;
    const LayerSnap s0 = LayerSnap::take();
    for (const fault::PairSpec &pair : pairs) {
        const auto t0 = Clock::now();
        fault::ExploreReport one = fault::exploreMatrix(cfg, {pair});
        t.pass.wallS += secondsSince(t0);
        rep.pairs.push_back(std::move(one.pairs.front()));
    }
    const LayerSnap s1 = LayerSnap::take();

    const auto w0 = Clock::now();
    {
        harness::McSection mc;
        mc.maxFaults = cfg.maxFaults;
        mc.jobs = std::max(1u, cfg.jobs);
        mc.allExhausted = rep.allExhausted();
        for (const fault::PairExploreResult &p : rep.pairs) {
            harness::McPairEntry e;
            e.app = p.app;
            e.runtime = p.runtime;
            e.isProtected = p.isProtected;
            e.refCompleted = p.refCompleted;
            e.recordingConsistent = p.recordingConsistent;
            e.decisionPoints = p.decisionPoints;
            e.branchesTaken = p.branchesTaken;
            e.statesExplored = p.statesExplored;
            e.frontierCutoffs = p.frontierCutoffs;
            e.exhausted = p.exhausted;
            e.confirmedViolations = p.confirmedViolations;
            mc.pairs.push_back(std::move(e));
        }
        harness::ReportOptions ro;
        ro.jsonPath = reportPath;
        harness::BenchSession session("ticshostbench", ro);
        session.setMc(std::move(mc));
        session.finish();
    }
    const double reportS = secondsSince(w0);
    collectExplore(rep, t.pass);

    std::uint64_t decisions = 0;
    std::uint64_t branches = 0;
    for (const fault::PairExploreResult &p : rep.pairs) {
        decisions += p.decisionPoints;
        branches += p.branchesTaken;
    }
    Metrics &m = t.m;
    putCount(m, "fault.decision_points", decisions);
    putCount(m, "fault.branches", branches);
    putCount(m, "fault.states", t.pass.items);
    putValue(m, "fault.us_per_state",
             t.pass.wallS * 1e6 /
                 static_cast<double>(std::max<std::uint64_t>(t.pass.items, 1)),
             "us");
    putValue(m, "analysis.oracle_ms",
             zoneMs(s0, s1, perf::HostZone::Analysis), "ms");
    putValue(m, "tics.checkpoint_ms",
             zoneMs(s0, s1, perf::HostZone::Checkpoint), "ms");
    putValue(m, "tics.restore_ms", zoneMs(s0, s1, perf::HostZone::Restore),
             "ms");
    putValue(m, "harness.report_ms", reportS * 1e3, "ms");
    putCounters(s1.ctr.delta(s0.ctr), m);
    return t;
}

/**
 * Medians over passes for timed metrics; counts from the first pass
 * (they repeat exactly, bar job steals).
 */
Metrics
combinePasses(const std::vector<TracedPass> &passes)
{
    Metrics out;
    for (const auto &[name, first] : passes.front().m) {
        if (first.count) {
            out[name] = first;
            continue;
        }
        std::vector<double> v;
        for (const TracedPass &p : passes)
            v.push_back(p.m.at(name).value);
        out[name] = Metric{median(v), first.unit, false};
    }
    return out;
}

/** Fixed probe grid: every app x runtime under the reset pattern, with
 *  enough cells (1200) that sweep.cell_ms_p99 has 12 samples above it. */
std::vector<sweep::GridSpec>
probeSlices()
{
    const Workload w{
        "probe", false, {{{"pattern:30:0.6"}, {""}, 80, false}}, 1, false};
    return gridSlices(w, 0);
}

/** Fixed probe exploration: BC/TICS at depth 2. */
std::vector<fault::PairSpec>
probePairs(const fault::ExploreConfig &cfg)
{
    std::vector<fault::PairSpec> pairs = fault::campaignPairs(cfg.base);
    std::erase_if(pairs, [](const fault::PairSpec &p) {
        return !(p.app == "BC" && p.runtime == "TICS");
    });
    return pairs;
}

/** Copy into @p into every entry of @p from that it lacks. */
void
fillMissing(Metrics &into, const Metrics &from)
{
    for (const auto &[name, v] : from)
        into.emplace(name, v);
}

// ---- setup -----------------------------------------------------------------

/**
 * Enumerate the inputs, load the goldens, and warm every layer the
 * timed region touches (trace files, allocator, first-use registries)
 * with one small run per grid part or a depth-1 exploration of every
 * pair.
 */
Prepared
prepare(const Workload &w, const Options &opt)
{
    Prepared p;
    const std::uint64_t window = windowOf(opt.seed);
    p.goldens = loadGoldens(goldenPath(opt.goldenDir, w.name), window);
    if (w.explore) {
        p.ecfg = exploreConfig(window);
        p.pairs = explorePairs(p.ecfg);
        fault::ExploreConfig warm = p.ecfg;
        warm.maxFaults = 1;
        fault::exploreMatrix(warm, p.pairs);
        return p;
    }
    p.slices = gridSlices(w, window);
    for (const GridPart &part : w.parts) {
        sweep::SweepConfig cfg;
        cfg.grid.apps = {"BC"};
        cfg.grid.runtimes = {"TICS"};
        cfg.grid.supplies.clear();
        for (const std::string &tok : part.supplies) {
            cfg.grid.supplies.emplace_back();
            sweep::parseSupplyToken(tok, cfg.grid.supplies.back());
        }
        cfg.grid.envs = part.envs;
        cfg.jobs = 1;
        cfg.useCache = false;
        sweep::runSweep(cfg);
    }
    return p;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Untraced run: the end-to-end metrics. */
void
measure(const Workload &w, const Prepared &prep, const Options &opt,
        ReferenceKernel &ref, Checker &check, RunOutput &out)
{
    const unsigned jobs = w.parallel ? parallelJobs() : 1;
    const std::size_t calls = prep.calls();
    CallTimes timesN(calls);
    CallTimes times1(calls);
    PassTotals totals;
    int passes = 0;
    const auto start = Clock::now();
    while (passes < kMinPasses || secondsSince(start) < opt.seconds) {
        for (std::size_t i = 0; i < calls; ++i) {
            const double refS = ref.time();
            const CallResult c = runCall(prep, i, jobs);
            timesN.add(i, c.wallS, refS);
            check.add(c.outcomes);
            if (passes == 0)
                totals.add(c);
        }
        check.endPass();
        if (w.parallel) {
            for (std::size_t i = 0; i < calls; ++i) {
                const double refS = ref.time();
                const CallResult c = runCall(prep, i, 1);
                times1.add(i, c.wallS, refS);
                check.add(c.outcomes);
            }
            check.endPass();
        }
        ++passes;
    }

    const auto perS = [&](double s) {
        return static_cast<double>(totals.items) / s;
    };
    const double hostS = timesN.passRefS();
    const double rate = perS(hostS);
    putValue(out.endToEnd, "throughput_per_s", rate, "1/s");
    Metrics &rep = out.report;
    if (w.explore) {
        putValue(rep, "states_per_s", rate, "1/s");
    } else {
        putValue(rep, "cells_per_s", rate, "1/s");
        putValue(rep, "sim_s_per_host_s",
                 static_cast<double>(totals.simNs) / 1e9 / hostS, "s/s");
        putValue(rep, "sim_mcycles_per_host_s",
                 static_cast<double>(totals.simCycles) / 1e6 / hostS,
                 "Mcycles/s");
    }
    if (w.parallel) {
        const double rate1 = perS(times1.passRefS());
        putValue(rep, "cells_per_s_jobs1", rate1, "1/s");
        putValue(rep, "parallel_efficiency", rate / (jobs * rate1), "frac");
        putCount(rep, "jobs", jobs, "threads");
    }
    putValue(rep, "raw_throughput_per_s", perS(median(timesN.passS())),
             "1/s");
    putValue(rep, "host_speed", timesN.hostSpeed(), "frac");
    putCount(rep, "passes", static_cast<std::uint64_t>(passes));
    putCount(rep, "calls_per_pass", calls);
    putCount(rep, "items_per_pass", totals.items);
}

/** Traced run: the per-layer metrics. */
void
trace(const Workload &w, const Prepared &prep, const Options &opt,
      Checker &check, RunOutput &out)
{
    const unsigned jobs = w.parallel ? parallelJobs() : 1;
    const std::string reportPath = opt.workDir + "/hostbench-report.json";
    const perf::ScopedProfilerEnable profilerOff(false);
    std::vector<double> plainS;
    std::vector<TracedPass> traced;
    const auto start = Clock::now();
    while (traced.size() < 2 || secondsSince(start) < opt.seconds) {
        double s = 0.0;
        for (std::size_t i = 0; i < prep.calls(); ++i) {
            const CallResult c = runCall(prep, i, jobs);
            s += c.wallS;
            check.add(c.outcomes);
        }
        check.endPass();
        plainS.push_back(s);

        const perf::ScopedProfilerEnable on;
        TracedPass t = w.explore ? tracedExplorePass(prep.ecfg, prep.pairs,
                                                     reportPath)
                                 : tracedGridPass(prep.slices, jobs,
                                                  reportPath);
        check.add(t.pass.outcomes);
        check.endPass();
        traced.push_back(std::move(t));
    }
    out.perLayer = combinePasses(traced);
    std::vector<double> tracedS;
    for (const TracedPass &t : traced)
        tracedS.push_back(t.pass.wallS);
    putValue(out.perLayer, "trace.overhead_frac",
             median(tracedS) / median(plainS) - 1.0, "frac");

    // Layers this workload does not exercise come from fixed probes,
    // so every metric is measured on every workload.
    {
        const perf::ScopedProfilerEnable on;
        if (w.explore) {
            fillMissing(out.perLayer,
                        tracedGridPass(probeSlices(), 1,
                                       reportPath + ".probe")
                            .m);
        } else {
            const fault::ExploreConfig ecfg = exploreConfig(0);
            fillMissing(out.perLayer,
                        tracedExplorePass(ecfg, probePairs(ecfg),
                                          reportPath + ".probe")
                            .m);
        }
    }
    runLayerProbes(out.perLayer);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Workload &w : workloads())
            n.push_back(w.name);
        return n;
    }();
    return names;
}

RunOutput
runWorkload(const Options &opt)
{
    const Workload &w = findWorkload(opt.workload);
    RunOutput out;

    // Set-up is rescaled to the reference host speed like the calls
    // (see CallTimes::passRefS()).
    ReferenceKernel ref;
    std::vector<double> setupS;
    Prepared prep;
    for (int r = 0; r < kSetupReps; ++r) {
        const double refS = ref.time();
        const auto t0 = Clock::now();
        prep = prepare(w, opt);
        setupS.push_back(secondsSince(t0) * kRefNominalS / refS);
    }
    if (prep.goldens.keys.empty())
        fatal("hostbench: no goldens for window %llu of '%s'",
              static_cast<unsigned long long>(windowOf(opt.seed)),
              w.name.c_str());

    Checker check(prep.goldens);
    if (opt.trace)
        trace(w, prep, opt, check, out);
    else
        measure(w, prep, opt, ref, check, out);

    putValue(out.report, "setup_s", median(setupS), "s");
    putValue(out.report, "peak_rss_mb", peakRssMb(), "MB");
    putValue(out.report, "failed_frac",
             static_cast<double>(check.failed) /
                 static_cast<double>(std::max<std::uint64_t>(
                     check.attempted, 1)),
             "frac");
    if (!opt.trace) {
        out.endToEnd["setup_s"] = out.report.at("setup_s");
        out.endToEnd["peak_rss_mb"] = out.report.at("peak_rss_mb");
    }
    out.attempted = check.attempted;
    out.failed = check.failed;
    out.correct = check.attempted > 0 && check.failed == 0;
    return out;
}

void
recordGoldens(const std::string &goldenDir)
{
    for (const Workload &w : workloads()) {
        const std::string path = goldenPath(goldenDir, w.name);
        std::ofstream os(path);
        if (!os)
            fatal("hostbench: cannot write '%s'", path.c_str());
        os << "# hostbench goldens for " << w.name
           << (w.explore ? ": \"<window> <app>/<runtime> <census>\" lines.\n"
                         : ": \"<window> <JobId> <FNV-1a 64 of the cell's "
                           "stable grid entry>\" lines.\n");
        for (std::uint64_t win = 0; win < kWindows; ++win) {
            Prepared p;
            if (w.explore) {
                p.ecfg = exploreConfig(win);
                p.pairs = explorePairs(p.ecfg);
            } else {
                p.slices = gridSlices(w, win);
            }
            std::size_t items = 0;
            for (std::size_t i = 0; i < p.calls(); ++i) {
                for (const Outcome &o :
                     runCall(p, i, parallelJobs()).outcomes) {
                    os << win << " " << o.key << " " << o.value << "\n";
                    ++items;
                }
            }
            std::fprintf(stderr, "hostbench: %s window %llu: %zu items\n",
                         w.name.c_str(), static_cast<unsigned long long>(win),
                         items);
        }
    }
}

} // namespace hostbench
