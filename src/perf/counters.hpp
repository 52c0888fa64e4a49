/**
 * @file
 * Host-side hot-path counters (DESIGN.md Section 11).
 *
 * The simulator attributes every *simulated* MCU cycle (PhaseProfiler)
 * but was blind to its own *host* cost. These counters instrument the
 * paths the ROADMAP names as hot — nv<T>/NvRam loads and stores, the
 * NV port's dispatch points (slot installed vs fast-path null),
 * undo-log records, checkpoint image traffic, EventRing pushes and
 * JobPool scheduling — so `bench/ticsperf` can report where host work
 * actually goes and `tools/perf_diff.py` can flag when a change moves
 * NV traffic or dispatch mix.
 *
 * Design constraints, in priority order:
 *
 *  1. Observation-only. Counters live entirely on the host side
 *     (plain per-thread uint64 adds); they charge no modeled cycles,
 *     touch no NV state and take no locks, so enabling them — they are
 *     always compiled in — cannot change any simulated result. The
 *     serial-vs-parallel and jobs-1-vs-N byte-diff gates run with
 *     counters live.
 *
 *  2. Per-thread, mergeable. Every simulated Board runs on exactly one
 *     host thread (see mem/trace.hpp), so each thread owns a private
 *     HotCounters block reached through one thread_local pointer; no
 *     atomics on the hot path. Threads register with a process-wide
 *     registry on first use and fold their block into a retired
 *     aggregate when they exit, so mergedCounters() equals the serial
 *     total regardless of how a sweep was scheduled.
 *
 *  3. Cheap. An increment is a thread_local load, an add and a store;
 *     the fast path has no branches beyond the lazy-init check.
 *
 * Snapshot consistency: mergedCounters() reads live threads' blocks
 * without synchronization. Call it when concurrent Boards are
 * quiesced (e.g. after JobPool::run returned) for exact totals;
 * mid-run snapshots are tearing-free per counter on every practical
 * target but may mix counters from different instants.
 */

#ifndef TICSIM_PERF_COUNTERS_HPP
#define TICSIM_PERF_COUNTERS_HPP

#include <cstdint>

namespace ticsim::perf {

/** One thread's hot-path counter block (plain data, mergeable). */
struct HotCounters {
    // ---- instrumented NV data path (nv<T>/nvArray/pointer stores) ----
    std::uint64_t nvLoads = 0;       ///< instrumented NV reads
    std::uint64_t nvLoadBytes = 0;
    std::uint64_t nvStores = 0;      ///< instrumented NV writes
    std::uint64_t nvStoreBytes = 0;
    std::uint64_t nvVersioned = 0;   ///< versioning notifications
    std::uint64_t nvVersionedBytes = 0;

    // ---- NV port dispatch splits: slot installed vs fast-path null ----
    // The gate and hook names predate the port: gate* counts gated
    // stores landed by an installed sink's store() (any sink), and
    // hook* counts application stores with and without a write
    // barrier; reads pass no barrier.
    std::uint64_t sinkDispatches = 0; ///< AccessSink calls delivered
    std::uint64_t sinkFastNull = 0;   ///< trace calls with no sink
    std::uint64_t gateDispatches = 0; ///< gated stores via sink store()
    std::uint64_t gateFastNull = 0;   ///< gated stores, direct memcpy
    std::uint64_t hookDispatches = 0; ///< app stores, barrier installed
    std::uint64_t hookFastNull = 0;   ///< app stores, no barrier

    // ---- undo log ----
    std::uint64_t undoRecordsSealed = 0;
    std::uint64_t undoBytesSealed = 0;
    std::uint64_t undoRecordsRolledBack = 0;
    std::uint64_t undoRecordsCorrupt = 0;

    // ---- checkpoint area ----
    std::uint64_t ckptCommits = 0;
    std::uint64_t ckptBytesMoved = 0;   ///< captured images + headers
    std::uint64_t ckptRestores = 0;
    std::uint64_t ckptRestoreBytes = 0;

    // ---- telemetry event ring ----
    std::uint64_t eventPushes = 0;
    std::uint64_t eventDrops = 0;

    // ---- sweep job pool ----
    std::uint64_t jobsExecuted = 0;
    std::uint64_t jobSteals = 0;

    /** Fold @p o into this block (cross-thread merge). */
    void add(const HotCounters &o);

    /** Pointwise difference (for before/after deltas); saturates at 0
     *  so a caller diffing against a stale snapshot never wraps. */
    HotCounters delta(const HotCounters &before) const;

    void reset() { *this = HotCounters{}; }
};

/** Stable snake_case name + member pointer, for serialization, diffs
 *  and exhaustive tests. Order is the report's emission order. */
struct CounterField {
    const char *name;
    std::uint64_t HotCounters::*field;
};

/** Every HotCounters field exactly once. */
const CounterField *counterFields(int &countOut);

namespace detail {
/** The calling thread's block, or nullptr before first use. */
extern constinit thread_local HotCounters *g_hot;
/** Slow path: allocate + register this thread's perf state. */
HotCounters &registerThreadCounters();
} // namespace detail

/** The calling thread's counter block (lazily registered). */
inline HotCounters &
hot()
{
    HotCounters *p = detail::g_hot;
    return p ? *p : detail::registerThreadCounters();
}

/**
 * Process-wide merged totals: retired threads' aggregate plus every
 * live thread's current block. See the snapshot-consistency note in
 * the file comment.
 */
HotCounters mergedCounters();

} // namespace ticsim::perf

#endif // TICSIM_PERF_COUNTERS_HPP
