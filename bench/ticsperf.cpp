/**
 * @file
 * ticsperf: host-side self-observability bench (DESIGN.md Section 11).
 *
 * Two halves:
 *
 *  - Per-subsystem microbenchmarks over the hot paths the counters
 *    instrument: raw nv<T> stores, gated stores, sink-observed stores,
 *    undo-log append/clear batches, checkpoint commit+recover,
 *    fresh and resumed fiber context-switch round trips, PhaseScope
 *    and HostScope enter/exit, event-ring pushes, a result-cache
 *    round-trip and the explorer's fork (a light board snapshot plus
 *    restore).
 *
 *  - A macro throughput run: every (app, runtime) pair of the fault
 *    campaign's 10-pair matrix, one cell each, under the default
 *    pattern supply, reporting cells/sec and simulated device time per
 *    host second, plus the hot-path counter deltas and the HostScope
 *    wall-time partition for exactly that phase.
 *
 * With --json the document is a run_report v5 (`perf` section); the
 * committed BENCH_<n>.json trajectory points are produced by this
 * binary and compared with tools/perf_diff.py. BENCH numbers are only
 * meaningful from an optimized build, so an unoptimized ticsperf
 * refuses to run unless --allow-unoptimized is given.
 *
 * Flags: --quick (CI-sized microbench iteration counts; the macro run
 * is identical so counter deltas stay comparable), --jobs N (macro
 * sweep parallelism; default 1 keeps scheduling — and thus the
 * counter deltas — deterministic), --allow-unoptimized.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "board/board.hpp"
#include "board/runtime.hpp"
#include "context/exec_context.hpp"
#include "energy/supply.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "mem/journal.hpp"
#include "mem/nv.hpp"
#include "mem/nvram.hpp"
#include "mem/trace.hpp"
#include "perf/counters.hpp"
#include "perf/host_profiler.hpp"
#include "support/logging.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"
#include "sweep/cache.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/events.hpp"
#include "telemetry/phase.hpp"
#include "tics/checkpoint_area.hpp"
#include "tics/undo_log.hpp"
#include "timekeeper/timekeeper.hpp"

using namespace ticsim;

namespace {

/** Trajectory point this binary produces (BENCH_<n>.json). */
constexpr std::uint64_t kBenchVersion = 8;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef TICSIM_BUILD_TYPE
#define TICSIM_BUILD_TYPE "unknown"
#endif

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

harness::PerfMicrobenchEntry
finishMicro(const char *name, std::uint64_t iters, double startMs)
{
    const double elapsedMs = nowMs() - startMs;
    harness::PerfMicrobenchEntry e;
    e.name = name;
    e.iters = iters;
    e.nsPerOp = iters ? elapsedMs * 1e6 / static_cast<double>(iters)
                      : 0.0;
    e.opsPerSec = e.nsPerOp > 0.0 ? 1e9 / e.nsPerOp : 0.0;
    return e;
}

/** Sink that only tallies deliveries (the conservation counterpart of
 *  perf counters' sinkDispatches). */
class CountingSink final : public mem::AccessSink
{
  public:
    void memRead(const void *, std::uint32_t) override { ++reads; }
    void memWrite(const void *, std::uint32_t) override { ++writes; }
    void memVersioned(const void *, std::uint32_t) override
    {
        ++versioned;
    }
    void powerOn() override {}
    void commit() override {}

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t versioned = 0;
};

/** Pass-through gate: models the dispatch cost, not a tear. */
class PassGate final : public mem::AccessSink
{
  public:
    void store(mem::StoreSite, void *dst, const void *src,
               std::uint32_t bytes) override
    {
        std::memcpy(dst, src, bytes);
    }
};

/**
 * A BC/TICS board run to completion with a write journal installed,
 * landing every gated store journaled, as the explorer's recording
 * does, and taking one light snapshot at the @p k-th store (none for
 * k = 0).
 */
class ForkBench final : public mem::AccessSink
{
  public:
    explicit ForkBench(std::uint64_t k)
        : board_(board::BoardConfig{},
                 std::make_unique<energy::ContinuousSupply>(),
                 std::make_unique<timekeeper::PerfectTimekeeper>()),
          k_(k)
    {
        harness::ScenarioParams params;
        params.tics = harness::matrixTics();
        env_ = harness::scenario("BC", "TICS").build(board_, params);
        mem::ScopedSink s(this);
        if (!board_.run(*env_.runtime, env_.entry, 10 * kNsPerSec).completed)
            fatal("ticsperf: the fork bench's BC/TICS run did not complete");
    }

    void
    store(mem::StoreSite, void *dst, const void *src,
          std::uint32_t bytes) override
    {
        if (++stores_ == k_)
            board_.snapshot(snap_);
        mem::journalNote(dst, bytes);
        std::memcpy(dst, src, bytes);
    }

    /** One fork: roll back to the snapshot and capture it again. */
    void
    fork()
    {
        board_.restore(snap_);
        board_.snapshot(snap_);
    }

    std::uint64_t stores() const { return stores_; }

  private:
    mem::WriteJournal journal_;
    mem::ScopedWriteJournal sj_{&journal_};
    board::Board board_;
    harness::ScenarioInstance env_;
    board::Snapshot snap_;
    std::uint64_t k_;
    std::uint64_t stores_ = 0;
};

std::vector<harness::PerfMicrobenchEntry>
runMicrobenches(bool quick)
{
    std::vector<harness::PerfMicrobenchEntry> out;
    const std::uint64_t big = quick ? 100'000 : 1'000'000;

    {
        mem::NvRam ram;
        mem::nv<std::uint64_t> x(ram, "perf.x");
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < big; ++i)
            x = i;
        out.push_back(finishMicro("nv_store", big, t0));
    }
    {
        mem::NvRam ram;
        mem::nv<std::uint64_t> x(ram, "perf.x");
        PassGate gate;
        mem::ScopedSink g(&gate);
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < big; ++i)
            x = i;
        out.push_back(finishMicro("nv_store_gated", big, t0));
    }
    {
        mem::NvRam ram;
        mem::nv<std::uint64_t> x(ram, "perf.x");
        CountingSink sink;
        mem::ScopedSink s(&sink);
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < big; ++i)
            x = i;
        out.push_back(finishMicro("nv_store_sink", big, t0));
        if (sink.writes != big)
            fatal("ticsperf: sink conservation broken (%llu != %llu)",
                  static_cast<unsigned long long>(sink.writes),
                  static_cast<unsigned long long>(big));
    }
    {
        mem::NvRam ram;
        tics::UndoLog log(ram, "perf.undo", 8192, 512);
        std::uint8_t src[16] = {};
        const std::uint64_t appends = quick ? 50'000 : 500'000;
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < appends; ++i) {
            std::memcpy(src, &i, sizeof(i));
            log.append(src, sizeof(src));
            if (log.entryCount() == 64)
                log.clear();
        }
        out.push_back(finishMicro("undo_append_clear", appends, t0));
    }
    {
        mem::NvRam ram;
        tics::CheckpointArea area(ram, "perf.ckpt", 4096);
        const std::uint64_t commits = quick ? 2'000 : 20'000;
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < commits; ++i) {
            tics::CheckpointArea::Slot &slot = area.writeSlot();
            slot.imgLow = 0;
            slot.imgSize = 256;
            std::memcpy(slot.image, &i, sizeof(i));
            area.commit();
            if (area.valid() == nullptr)
                fatal("ticsperf: committed checkpoint not recoverable");
        }
        out.push_back(finishMicro("ckpt_commit_recover", commits, t0));
    }
    const std::uint64_t switches = quick ? 20'000 : 200'000;
    {
        // A boot that completes: prepare() builds the start slot, run()
        // switches in, and the entry returns through the trampoline.
        std::vector<std::uint8_t> stack(64 * 1024);
        context::ExecContext ctx(stack.data(), stack.size());
        std::uint64_t ran = 0;
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < switches; ++i) {
            ctx.prepare([&ran] { ++ran; });
            ctx.run();
        }
        out.push_back(finishMicro("ctx_fresh_roundtrip", switches, t0));
        if (ran != switches)
            fatal("ticsperf: fresh context ran %llu of %llu times",
                  static_cast<unsigned long long>(ran),
                  static_cast<unsigned long long>(switches));
    }
    {
        // A checkpoint resume without the image copy: run() re-enters
        // a captured save(), which dies at once through exitWith().
        // Nothing writes above the capture frame, so the stack needs
        // no restore between rounds.
        std::vector<std::uint8_t> stack(64 * 1024);
        context::ExecContext ctx(stack.data(), stack.size());
        context::RegSlot slot;
        ctx.prepare([&ctx, &slot] {
            ctx.armResumedCheck();
            context::save(slot);
            ctx.wasResumed();
            ctx.exitWith(context::ExitReason::PowerFail);
        });
        ctx.run();
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < switches; ++i) {
            ctx.prepareResume(slot);
            if (ctx.run() != context::ExitReason::PowerFail)
                fatal("ticsperf: resumed context did not die");
        }
        out.push_back(finishMicro("ctx_resume_roundtrip", switches, t0));
    }
    {
        telemetry::PhaseProfiler prof;
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < big; ++i) {
            telemetry::PhaseScope scope(prof,
                                        telemetry::Phase::Checkpoint);
            prof.attribute(1);
        }
        out.push_back(finishMicro("phase_scope", big, t0));
    }
    {
        // Profiler enabled: this is the *enabled* HostScope cost the
        // report cites as scope_ns; the disabled cost is pinned to
        // zero clock reads by test_perf.
        perf::ScopedProfilerEnable enable;
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < big; ++i)
            perf::HostScope scope(perf::HostZone::Analysis);
        out.push_back(finishMicro("host_scope", big, t0));
    }
    {
        telemetry::EventRing ring(1024);
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < big; ++i)
            ring.emit(telemetry::EventKind::PhaseSlice,
                      static_cast<TimeNs>(i), i, 0);
        out.push_back(finishMicro("event_ring_push", big, t0));
    }
    {
        const std::string dir = ".ticsperf-cache.tmp";
        std::filesystem::remove_all(dir);
        const sweep::ResultCache cache(dir);
        sweep::Cell cell;
        sweep::CellResult r;
        r.completed = true;
        r.onTimeNs = 1234567;
        r.simMs.sample(r.simMsValue());
        const std::uint64_t rounds = quick ? 200 : 2'000;
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < rounds; ++i) {
            cache.store(cell, r);
            sweep::CellResult back;
            if (!cache.lookup(cell, back))
                fatal("ticsperf: cache round-trip missed");
        }
        out.push_back(
            finishMicro("result_cache_roundtrip", rounds, t0));
        std::filesystem::remove_all(dir);
    }
    {
        // The explorer's fork, mid-run: after the first round the
        // journal has nothing to undo, so this times the host-state
        // copies of one snapshot and one restore.
        const std::uint64_t mid = ForkBench(0).stores() / 2;
        ForkBench bench(mid);
        if (mid == 0 || bench.stores() < mid)
            fatal("ticsperf: the fork bench captured no snapshot");
        const std::uint64_t forks = quick ? 20'000 : 200'000;
        const double t0 = nowMs();
        for (std::uint64_t i = 0; i < forks; ++i)
            bench.fork();
        out.push_back(finishMicro("fork_snapshot_restore", forks, t0));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchSession session("ticsperf", argc, argv);

    bool quick = false;
    bool allowUnoptimized = false;
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--quick") {
            quick = true;
        } else if (a == "--allow-unoptimized") {
            allowUnoptimized = true;
        } else if (a == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(
                flagU64("ticsperf", "--jobs", argv[++i], kMaxJobs));
        } else if (a.rfind("--jobs=", 0) == 0) {
            jobs = static_cast<unsigned>(
                flagU64("ticsperf", "--jobs", a.c_str() + 7, kMaxJobs));
        } else {
            fatal("ticsperf: unknown argument '%s' "
                  "(flags: --quick --jobs N --allow-unoptimized "
                  "--json <path>)",
                  a.c_str());
        }
    }

    if (!kOptimized && !allowUnoptimized) {
        fatal("ticsperf: this binary was built without optimization "
              "(build type '%s'); BENCH numbers from it would be "
              "garbage. Build with --preset release, or pass "
              "--allow-unoptimized to run anyway.",
              TICSIM_BUILD_TYPE);
    }
    if (!kOptimized) {
        warn("ticsperf: running UNOPTIMIZED ('%s'); do not commit "
             "these numbers",
             TICSIM_BUILD_TYPE);
    }

    perf::ScopedProfilerEnable profilerOn;

    // ---- microbenches --------------------------------------------------
    const std::vector<harness::PerfMicrobenchEntry> micro =
        runMicrobenches(quick);

    // ---- macro: the fault campaign's 10 (app, runtime) pairs -----------
    sweep::SweepConfig cfg;
    cfg.grid.apps = {"BC", "CF"};
    cfg.grid.runtimes = {"TICS", "MementOS-like", "Chinchilla-like",
                         "Alpaca-like", "plain-C"};
    cfg.grid.seeds = {11};
    cfg.jobs = jobs;
    cfg.useCache = false; // measure real runs, never cache replay

    const perf::HotCounters countersBefore = perf::mergedCounters();
    const perf::HostProfiler profBefore = perf::mergedProfiler();
    const double macroStart = nowMs();
    const sweep::SweepResult macro = sweep::runSweep(cfg);
    const double macroMs = nowMs() - macroStart;
    const perf::HotCounters counters =
        perf::mergedCounters().delta(countersBefore);
    const perf::HostProfiler profAfter = perf::mergedProfiler();

    std::uint64_t simCycles = 0;
    std::uint64_t simNs = 0;
    for (const sweep::SweepCellOutcome &out : macro.cells) {
        simCycles += out.result.cycles;
        simNs += out.result.elapsedNs;
    }
    const double hostSec = macroMs / 1e3;

    // ---- assemble the perf section -------------------------------------
    harness::PerfSection perf;
    perf.benchVersion = kBenchVersion;
    perf.buildType = TICSIM_BUILD_TYPE;
    perf.optimized = kOptimized;
    perf.quick = quick;

    int nFields = 0;
    const ticsim::perf::CounterField *fields =
        ticsim::perf::counterFields(nFields);
    for (int i = 0; i < nFields; ++i)
        perf.counters.push_back(
            {fields[i].name, counters.*(fields[i].field)});

    perf.microbench = micro;

    perf.macroCells = macro.cells.size();
    perf.macroHostMs = macroMs;
    perf.cellsPerSec =
        hostSec > 0.0
            ? static_cast<double>(perf.macroCells) / hostSec
            : 0.0;
    perf.macroSimCycles = simCycles;
    perf.macroSimNs = simNs;
    perf.simCyclesPerHostSec =
        hostSec > 0.0 ? static_cast<double>(simCycles) / hostSec : 0.0;
    perf.simSecondsPerHostSec =
        hostSec > 0.0 ? static_cast<double>(simNs) / 1e9 / hostSec
                      : 0.0;

    perf.hostTotalMs = macroMs;
    double namedMs = 0.0;
    for (int z = 0; z < ticsim::perf::kHostZoneCount; ++z) {
        const auto zone = static_cast<ticsim::perf::HostZone>(z);
        harness::PerfZoneEntry e;
        e.name = ticsim::perf::hostZoneName(zone);
        e.ms = (profAfter.zoneNs(zone) - profBefore.zoneNs(zone)) / 1e6;
        e.scopes = profAfter.scopeCount(zone) -
                   profBefore.scopeCount(zone);
        namedMs += e.ms;
        perf.zones.push_back(std::move(e));
    }
    // The remainder (scheduling, board construction, everything not
    // inside a HostScope) closes the partition so the validator's
    // "zones sum to total" invariant holds exactly.
    harness::PerfZoneEntry other;
    other.name = "other";
    other.ms = macroMs > namedMs ? macroMs - namedMs : 0.0;
    perf.zones.push_back(std::move(other));

    perf.clockReads = ticsim::perf::clockReads();
    for (const harness::PerfMicrobenchEntry &m : micro) {
        if (m.name == "host_scope")
            perf.scopeNsPerEnterExit = m.nsPerOp;
    }

    session.setSeed(11);
    session.setPerf(perf);

    // ---- human-readable output -----------------------------------------
    Table mt("ticsperf: per-subsystem microbenchmarks" +
             std::string(quick ? " (--quick)" : ""));
    mt.header({"Bench", "Iters", "ns/op", "Mops/s"});
    for (const harness::PerfMicrobenchEntry &m : micro) {
        mt.row()
            .cell(m.name)
            .cell(m.iters)
            .cell(m.nsPerOp)
            .cell(m.opsPerSec / 1e6);
    }
    mt.print(std::cout);

    Table zt("ticsperf: macro host-time partition");
    zt.header({"Zone", "ms", "Scopes"});
    for (const harness::PerfZoneEntry &z : perf.zones)
        zt.row().cell(z.name).cell(z.ms).cell(z.scopes);
    zt.print(std::cout);

    std::cout << "macro: " << perf.macroCells << " cells in " << macroMs
              << " ms (" << perf.cellsPerSec << " cells/s, "
              << perf.simCyclesPerHostSec / 1e6
              << " M simulated cycles/host-s, "
              << perf.simSecondsPerHostSec
              << " simulated device-seconds/host-s)\n";
    std::cout << "build: " << TICSIM_BUILD_TYPE
              << (kOptimized ? " (optimized)" : " (UNOPTIMIZED)")
              << ", bench version " << kBenchVersion << "\n";
    return 0;
}
