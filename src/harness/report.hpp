/**
 * @file
 * Machine-readable run reports for the benchmark binaries.
 *
 * Every bench accepts two common flags on top of whatever it already
 * parses:
 *
 *     --json <path>    write a ticsim.run_report JSON document
 *     --trace <path>   write a Chrome trace_event timeline (Perfetto)
 *
 * A BenchSession collects one record per board run — the RunResult,
 * the phase-attributed cycle breakdown, the runtime's and supply's
 * StatGroups, and (when tracing) the event-ring snapshot — and
 * serializes everything on finish(). The human-readable tables on
 * stdout are untouched; reports go to the named files only, so a
 * bench's printed output is byte-identical with and without the flags.
 *
 * The JSON document layout is pinned by tools/run_report.schema.json;
 * bump kReportVersion when changing it.
 */

#ifndef TICSIM_HARNESS_REPORT_HPP
#define TICSIM_HARNESS_REPORT_HPP

#include <string>
#include <thread>
#include <vector>

#include "board/board.hpp"
#include "board/runtime.hpp"
#include "telemetry/trace_export.hpp"

namespace ticsim::harness {

/** Schema version of the JSON run report. */
constexpr int kReportVersion = 1;

/** Version emitted when the report carries a `findings` section. */
constexpr int kReportVersionFindings = 2;

/** Version emitted when the report carries a `grid` section. */
constexpr int kReportVersionGrid = 3;

/** Version emitted when the report carries a `prob` section. */
constexpr int kReportVersionProb = 4;

/** Version emitted when the report carries a `perf` section. */
constexpr int kReportVersionPerf = 5;

/** Version emitted when the report carries a `lint` section. */
constexpr int kReportVersionLint = 6;

/** Version emitted when the report carries an `mc` section. */
constexpr int kReportVersionMc = 7;

/** Version emitted when the report carries a `fleet` section. */
constexpr int kReportVersionFleet = 8;

/**
 * One analysis finding in the report's optional `findings` section
 * (written by static-analysis benches like ticsverify; plain benches
 * never emit the section, so their documents stay at version 1 and
 * are byte-identical to before the section existed).
 */
struct ReportFinding {
    std::string analysis; ///< e.g. war-possibility, energy-progress
    std::string app;
    std::string runtime;
    std::string subject;  ///< NV region / timed variable / peripheral
    std::uint64_t regionIndex = 0;
    std::string anchor;   ///< checkpoint-region anchor
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::string detail;
};

/**
 * One sweep cell in the report's optional `grid` section. Plain data,
 * deliberately decoupled from the sweep subsystem's types so the
 * harness stays below it in the library layering.
 */
struct GridCellEntry {
    std::string jobId; ///< 16-hex content hash of the configuration
    std::string app;
    std::string runtime;
    std::string supply;
    double capUf = 0.0;
    std::uint64_t segmentBytes = 0;
    std::string env; ///< environment-trace name; "" = plain supply
    std::uint64_t seed = 0;
    bool completed = false;
    bool starved = false;
    bool verified = false;
    std::uint64_t reboots = 0;
    std::uint64_t cycles = 0;
    std::uint64_t elapsedNs = 0;
    std::uint64_t onTimeNs = 0;
    double simMs = 0.0;
    bool cached = false;
};

/** One cross-seed aggregate row in the `grid` section. */
struct GridAggregateEntry {
    std::string app;
    std::string runtime;
    std::string supply;
    double capUf = 0.0;
    std::uint64_t segmentBytes = 0;
    std::string env; ///< environment-trace name; "" = plain supply
    std::uint64_t cells = 0;
    std::uint64_t completed = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * The `grid` section (written by ticssweep; bumps the report to
 * version 3). Cells must already be in canonical JobId order — the
 * writer serializes them verbatim, which is what makes serial and
 * parallel sweeps emit byte-identical documents. `jobs` and `wallMs`
 * are the only fields that legitimately vary between otherwise
 * identical runs; --stable mode zeroes them before recording.
 */
struct GridSection {
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t jobs = 0;
    double wallMs = 0.0;
    std::vector<GridCellEntry> cells;
    std::vector<GridAggregateEntry> aggregates;
};

/**
 * One (app, runtime, environment) row of the probabilistic timing
 * section: statically derived completion-time percentiles beside the
 * simulated cross-seed ones when cross-validation ran (sim_cells == 0
 * means static-only).
 */
struct ProbRowEntry {
    std::string app;
    std::string runtime;
    std::string env;     ///< supply-axis token
    double capUf = 0.0;
    double staticP50Ms = 0.0;
    double staticP95Ms = 0.0;
    double staticP99Ms = 0.0;
    double staticMeanMs = 0.0;
    double pNonterm = 0.0;
    double meanOutages = 0.0;
    std::uint64_t simCells = 0;
    std::uint64_t simCompleted = 0;
    double simP50Ms = 0.0;
    double simP95Ms = 0.0;
    double simP99Ms = 0.0;
    bool withinTolerance = true;
    std::string gateKind;         ///< "percentiles" | "nonterm" | "static"
    std::string failedPercentile; ///< empty when within tolerance
};

/** One timed variable's freshness-violation probability. */
struct ProbFreshnessEntry {
    std::string app;
    std::string runtime;
    std::string env;
    std::string subject;
    double lifetimeMs = 0.0;
    double pViolation = 0.0;
    std::uint64_t sites = 0;
};

/** The inverse capacitor-sizing query's outcome, when one ran. */
struct ProbSloEntry {
    std::string app;
    std::string runtime;
    double slo = 0.0;
    double deadlineMs = 0.0;
    bool feasible = false;
    double capacitanceUf = 0.0;
    double pOnTime = 0.0;
};

/**
 * The `prob` section (written by ticsverify --prob; bumps the report
 * to version 4): probabilistic completion-time and freshness analysis
 * results, the declared cross-validation tolerances, and optionally
 * the capacitor-sizing SLO query.
 */
struct ProbSection {
    double tolP50 = 0.0;
    double tolP95 = 0.0;
    double tolP99 = 0.0;
    bool crossval = false; ///< rows carry a simulated side
    std::vector<ProbRowEntry> rows;
    std::vector<ProbFreshnessEntry> freshness;
    bool haveSlo = false;
    ProbSloEntry slo;
};

/** One named hot-path counter value in the `perf` section. */
struct PerfCounterEntry {
    std::string name; ///< perf::counterFields() snake_case name
    std::uint64_t value = 0;
};

/** One per-subsystem microbenchmark result. */
struct PerfMicrobenchEntry {
    std::string name; ///< e.g. nv_store, undo_append_clear
    std::uint64_t iters = 0;
    double nsPerOp = 0.0;
    double opsPerSec = 0.0;
};

/** One host wall-time zone of the macro run's partition. */
struct PerfZoneEntry {
    std::string name; ///< perf::hostZoneName(), plus "other"
    double ms = 0.0;
    std::uint64_t scopes = 0; ///< 0 for the computed "other" remainder
};

/**
 * The `perf` section (written by ticsperf; bumps the report to
 * version 5): build provenance, the macro run's hot-path counter
 * deltas, per-subsystem microbenchmarks, macro throughput, and the
 * host wall-time partition. Only ticsperf calls setPerf(), so every
 * other bench's document stays at version <= 4 byte-for-byte.
 */
struct PerfSection {
    std::uint64_t benchVersion = 0; ///< trajectory point (BENCH_<n>)
    std::string buildType;          ///< CMAKE_BUILD_TYPE at compile time
    bool optimized = false;         ///< compiled with optimization on
    bool quick = false;             ///< --quick (reduced iterations)

    std::vector<PerfCounterEntry> counters; ///< macro-phase deltas
    std::vector<PerfMicrobenchEntry> microbench;

    std::uint64_t macroCells = 0;
    double macroHostMs = 0.0;
    double cellsPerSec = 0.0;
    std::uint64_t macroSimCycles = 0;
    std::uint64_t macroSimNs = 0;
    double simCyclesPerHostSec = 0.0;
    double simSecondsPerHostSec = 0.0;

    double hostTotalMs = 0.0; ///< zones (incl. "other") sum to this
    std::vector<PerfZoneEntry> zones;

    std::uint64_t clockReads = 0;  ///< profiler clock queries, whole run
    double scopeNsPerEnterExit = 0.0; ///< measured HostScope overhead
};

/** One source-level finding in the `lint` section. */
struct LintFindingEntry {
    std::string rule; ///< war | timeliness | io | segmentation
    std::string subject;
    std::string file; ///< repo-relative source path
    std::uint64_t line = 0;
    std::string function; ///< analysis entry point (qualified)
    std::string detail;
};

/** One (app, runtime) row of the lint cross-validation. */
struct LintCrossValEntry {
    std::string app;
    std::string runtime;
    std::string file;
    std::uint64_t dynamicFindings = 0;
    std::uint64_t matchedFindings = 0;
    std::uint64_t staticFindings = 0;
    std::uint64_t confirmedStatic = 0;
    double coverage = 1.0; ///< matched / dynamic (1.0 when no dynamic)
    double fpRate = 0.0;   ///< (static - confirmed) / static
};

/**
 * The `lint` section (written by ticsverify --source; bumps the
 * report to version 6): source-level findings from the whole-file
 * dogfood pass and, when --crossval ran, the per-pair source-vs-model
 * coverage rows. Only the --source mode calls setLint(), so every other
 * document stays at version <= 5 byte-for-byte.
 */
struct LintSection {
    std::uint64_t filesAnalyzed = 0;
    std::uint64_t functionsAnalyzed = 0;
    std::vector<LintFindingEntry> findings;
    bool crossval = false;
    bool fullCoverage = true; ///< meaningful when crossval is true
    std::vector<LintCrossValEntry> rows;
};

/** One (app, runtime) row of the `mc` section. */
struct McPairEntry {
    std::string app;
    std::string runtime;
    bool isProtected = true;
    bool refCompleted = false;
    bool recordingConsistent = true;
    std::uint64_t decisionPoints = 0;
    std::uint64_t branchesTaken = 0;
    std::uint64_t statesExplored = 0;
    std::uint64_t frontierCutoffs = 0;
    bool exhausted = false; ///< proof-of-exhaustion flag for this pair
    std::uint64_t confirmedViolations = 0;
};

/** One violating schedule the explorer found. */
struct McViolationEntry {
    std::string app;
    std::string runtime;
    std::string kind;
    std::string plan;    ///< minimal confirmed schedule
    std::string foundAs; ///< schedule the walk first hit it with
    std::uint64_t divergentBytes = 0;
    bool confirmed = false; ///< replayed from boot and still violates
};

/**
 * The `mc` section (written by ticsfault --explore; bumps the report to
 * version 7): the exhaustive failure-space census — per-pair
 * decision/branch/leaf counts, frontier cut-offs, the
 * proof-of-exhaustion flags, and every violation with its minimal
 * schedule. Only `ticsfault --explore` calls setMc(), so every other
 * document stays at version <= 6 byte-for-byte.
 */
struct McSection {
    std::uint64_t maxFaults = 1;
    std::uint64_t maxDecisions = 0; ///< frontier cap (0 = unbounded)
    std::uint64_t jobs = 1;
    bool allExhausted = false;
    std::vector<McPairEntry> pairs;
    std::vector<McViolationEntry> violations;
};

/** One worker shard's account in the `fleet` section. */
struct FleetWorkerEntry {
    std::uint64_t shard = 0;    ///< shard index (stable across retries)
    std::uint64_t spawns = 0;   ///< processes launched for this shard
    std::uint64_t assigned = 0; ///< cells assigned over all attempts
    std::uint64_t completed = 0;
    bool crashed = false;       ///< at least one attempt died
    bool timedOut = false;      ///< at least one attempt missed heartbeats
    bool cancelled = false;     ///< straggler killed after coverage
};

/**
 * The `fleet` section (written by `ticssweep --workers N`; bumps the
 * report to version 8): the multi-process orchestration account —
 * worker/retry/failure bookkeeping beside (never inside) the
 * deterministic grid section. Only a non-`--stable` fleet run calls
 * setFleet(), so every other document, in-process ticssweep's
 * included, stays at version <= 7 byte-for-byte.
 */
struct FleetSection {
    std::uint64_t workersRequested = 0;
    std::uint64_t workersSpawned = 0; ///< incl. retry respawns
    std::uint64_t retries = 0;
    std::uint64_t crashes = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t stragglersCancelled = 0;
    std::uint64_t duplicateResults = 0; ///< late frames ignored
    std::uint64_t heartbeats = 0;
    std::uint64_t cellsTotal = 0;
    std::uint64_t cellsCompleted = 0;
    bool complete = false; ///< every cell produced a result
    bool requireComplete = false;
    double wallMs = 0.0;
    std::vector<std::string> envs; ///< distinct trace names in the grid
    std::vector<FleetWorkerEntry> workers; ///< by shard index
};

struct ReportOptions {
    std::string jsonPath;  ///< empty = no JSON report
    std::string tracePath; ///< empty = no timeline trace

    bool enabled() const { return !jsonPath.empty() || !tracePath.empty(); }
};

/**
 * Strip the common report flags (--json <path>, --json=<path>,
 * --trace <path>, --trace=<path>) out of argv, compacting it in
 * place and updating @p argc, so benches with their own argument
 * parsing never see them. Unknown arguments are left alone.
 */
ReportOptions parseReportArgs(int &argc, char **argv);

/**
 * One bench binary's report collector. Construct it first thing in
 * main(); record every board run; reports are written on finish() (or
 * from the destructor). The constructor registers the session as the
 * process-wide current one so deeply nested run helpers can report
 * through recordRun() without plumbing a pointer.
 */
class BenchSession
{
  public:
    BenchSession(std::string bench, ReportOptions opts);
    /** Convenience: parse + strip the report flags from argv. */
    BenchSession(std::string bench, int &argc, char **argv);
    ~BenchSession();

    BenchSession(const BenchSession &) = delete;
    BenchSession &operator=(const BenchSession &) = delete;

    const ReportOptions &options() const { return opts_; }

    /**
     * Record the bench's master seed. Reported as an optional `seed`
     * member so a run report is reproducible from the document alone.
     */
    void setSeed(std::uint64_t seed);

    /** Snapshot one finished board run under @p label. */
    void record(const std::string &label, board::Runtime &rt,
                board::Board &b, const board::RunResult &res);

    /** Attach an analysis finding; bumps the report to version 2. */
    void addFinding(ReportFinding finding);

    /** Attach the sweep grid; bumps the report to version 3. */
    void setGrid(GridSection grid);

    /** Attach the probabilistic timing section; bumps to version 4. */
    void setProb(ProbSection prob);

    /** Attach the perf section; bumps the report to version 5. */
    void setPerf(PerfSection perf);

    /** Attach the lint section; bumps the report to version 6. */
    void setLint(LintSection lint);

    /** Attach the mc section; bumps the report to version 7. */
    void setMc(McSection mc);

    /** Attach the fleet section; bumps the report to version 8. */
    void setFleet(FleetSection fleet);

    /** Write the JSON report and trace now (idempotent). */
    void finish();

    /** The live session, or nullptr outside main()'s scope. */
    static BenchSession *current();

  private:
    struct RunRecord {
        std::string label;
        std::string runtime;
        board::RunResult result;
        Cycles phases[telemetry::kPhaseCount] = {};
        std::vector<StatGroup> stats;
        std::uint64_t eventsRecorded = 0;
        std::uint64_t eventsDropped = 0;
        std::vector<telemetry::Event> events; ///< tracing only
    };

    void writeJson() const;
    void writeTrace() const;

    std::string bench_;
    ReportOptions opts_;
    std::uint64_t seed_ = 0;
    bool haveSeed_ = false;
    std::vector<RunRecord> runs_;
    std::vector<ReportFinding> findings_;
    GridSection grid_;
    bool haveGrid_ = false;
    ProbSection prob_;
    bool haveProb_ = false;
    PerfSection perf_;
    bool havePerf_ = false;
    LintSection lint_;
    bool haveLint_ = false;
    McSection mc_;
    bool haveMc_ = false;
    FleetSection fleet_;
    bool haveFleet_ = false;
    bool finished_ = false;
    /** The thread that constructed the session (see record()). */
    std::thread::id owner_;
};

/**
 * Record a run against the current session; no-op when reporting is
 * disabled or no session exists. This is what the bench run helpers
 * call right after Board::run().
 */
void recordRun(const std::string &label, board::Runtime &rt,
               board::Board &b, const board::RunResult &res);

} // namespace ticsim::harness

#endif // TICSIM_HARNESS_REPORT_HPP
