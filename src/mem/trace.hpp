/**
 * @file
 * The NV port: the one per-thread interception point for instrumented
 * non-volatile accesses, and the memory-consistency trace channel.
 *
 * On the real platform, TICS turns every store to .data/.bss and every
 * pointer store into one call into its memory manager. Here every
 * instrumented NV access reaches one thread-local mem::Port with three
 * slots:
 *
 *  - barrier: the running runtime's write barrier (mem::MemHooks,
 *    nv.hpp), which versions a location before an application store
 *    overwrites it. The Board installs it only while application code
 *    runs.
 *  - sink: an AccessSink. It observes the access stream (the analysis
 *    subsystem's tracer, the static verifier's recorder), and its
 *    store() decides how a gated store lands: the plain copy by
 *    default, a NORM-style torn write under the fault injector, a
 *    journaled copy under the explorer.
 *  - journal: the explorer's WriteJournal (journal.hpp).
 *
 * An application store (nv<T>, nvArray, Runtime::storeBytes, all through
 * mem::appStore) runs the barrier first, while the old bytes are still
 * in place, then the sink's memWrite, then the sink's store() or the
 * plain copy. Undo-pool and checkpoint-header stores reach only
 * store(). The versioning machinery (undo logs, snapshot checkpoints,
 * privatized channels) reports when the original bytes of a location
 * have been made recoverable, and the Board reports the interval
 * boundaries (power-on and commit) between which the Surbatovich
 * consistency condition is evaluated.
 *
 * With nothing installed (the default, and all normal benchmark / test
 * runs) each slot costs one null test; the port changes no modeled
 * costs and no runtime behaviour.
 */

#ifndef TICSIM_MEM_TRACE_HPP
#define TICSIM_MEM_TRACE_HPP

#include <cstdint>
#include <cstring>

#include "perf/counters.hpp"

namespace ticsim::mem {

class MemHooks;
class WriteJournal;

/** Which protocol step a gated store belongs to; fault plans target
 *  tears by site so a schedule can name "the 3rd undo-pool write". */
enum class StoreSite : std::uint8_t {
    AppGlobal,  ///< nv<T>/nvArray/storeBytes application data
    UndoPool,   ///< undo-log record (entry fields or saved bytes)
    CkptHeader, ///< checkpoint slot header (the commit point)
};

/** Number of StoreSite enumerators (for occurrence-count arrays). */
constexpr int kStoreSiteCount = 3;

/** Short stable name for plan serialization and reports. */
const char *storeSiteName(StoreSite s);

/**
 * Non-memory observation points the static verifier cares about:
 * timestamp traffic, peripheral effects, and scheduling anchors.
 * These ride on the same sink as the NV access stream so one observer
 * sees both in program order.
 */
enum class SideEventKind : std::uint8_t {
    TimeRead,        ///< persistent-clock read (Board::deviceNow)
    TimedAssign,     ///< timed assignment committed; id = variable
    TimedUse,        ///< timed datum consumed; id = variable
    TimedCheck,      ///< freshness check evaluated; id = variable
    PeripheralSend,  ///< physical (externally visible) transmission
    PeripheralStage, ///< message staged in NV for a guarded drain
    IoGuardEnter,    ///< post-commit guarded-drain window opens
    IoGuardExit,     ///< post-commit guarded-drain window closes
    TaskDispatch,    ///< task runtime dispatching task `id`
    CkptCommitStart, ///< checkpoint commit protocol begins; id = runtime
    BootRestore,     ///< boot-time restore from a checkpoint begins
};

/**
 * One side event. @p id (may be null) names the subject — a timed
 * variable, a peripheral, a task — and must outlive the sink call;
 * sinks that keep it copy the string. u0/u1 carry kind-specific
 * payloads (lifetime ns, payload bytes, ...).
 */
struct SideEvent {
    SideEventKind kind;
    const char *id = nullptr;
    std::uint64_t u0 = 0;
    std::uint64_t u1 = 0;
};

/**
 * Observer of instrumented NV traffic and consistency-interval
 * boundaries, and the lander of gated stores. All pointers are host
 * addresses; implementations that care about modeled addresses
 * translate via NvRam::addrOf(). Every call defaults to a no-op (and
 * store() to the plain copy), so a sink overrides only what it needs.
 */
class AccessSink
{
  public:
    virtual ~AccessSink() = default;

    /** An instrumented read of @p bytes at @p p is about to happen. */
    virtual void memRead(const void * /*p*/, std::uint32_t /*bytes*/) {}

    /** An instrumented write of @p bytes at @p p is about to happen. */
    virtual void memWrite(const void * /*p*/, std::uint32_t /*bytes*/) {}

    /**
     * The current contents of [p, p+bytes) have been versioned: a
     * reboot (or rollback) before the next commit restores them. Undo
     * logs report this per append; snapshot checkpointers report their
     * whole tracked regions at every commit/restore; task channels
     * report privatized writes (the committed copy is never at risk).
     */
    virtual void memVersioned(const void * /*p*/, std::uint32_t /*bytes*/)
    {
    }

    /** Power is back; a new boot (and consistency interval) begins. */
    virtual void powerOn() {}

    /**
     * A runtime committed forward progress (checkpoint commit, task
     * transition, restart-from-main); the current interval's writes
     * can no longer be lost to a reboot.
     */
    virtual void commit() {}

    /** A non-memory observation (time read, peripheral effect, task
     *  dispatch, ...). */
    virtual void sideEvent(const SideEvent & /*ev*/) {}

    /**
     * Land a gated store of [src, src+bytes) at @p dst. An override
     * must either copy the bytes itself (possibly partially, modeling
     * a torn write) or not return at all (abandoning the context like
     * a power failure mid-store).
     */
    virtual void
    store(StoreSite /*site*/, void *dst, const void *src,
          std::uint32_t bytes)
    {
        std::memcpy(dst, src, bytes);
    }
};

/** The per-thread NV port: one slot per interceptor kind. */
struct Port {
    MemHooks *barrier = nullptr;     ///< running runtime's write barrier
    AccessSink *sink = nullptr;      ///< observer and store lander
    WriteJournal *journal = nullptr; ///< explorer's pre-image log
};

namespace detail {
/**
 * The port is thread-local: every simulated Board lives on exactly one
 * host thread, and the sweep engine (src/sweep/) runs many Boards on
 * concurrent threads — each with its own runtime, tracer or injector —
 * so no slot may leak between them.
 *
 * constinit, like perf::detail::g_hot: a constant-initialized
 * thread_local needs no TLS-init guard, so each access is a plain TLS
 * load. Without it, GCC 12 PIE builds test the weak init symbol and
 * then form the address with an lea, which sets no flags, and UBSan's
 * null check branches on that stale test.
 */
extern constinit thread_local Port g_port;

/**
 * g_port, out of line. ScopedSlot goes through this call: inline, GCC 12
 * null-checks `g_port.*Slot` on the flags of an `add` that the linker's
 * TLS relaxation rewrites into an `lea`, so UBSan reports a store to a
 * null pointer that never happens.
 */
Port &port();
} // namespace detail

/** RAII installation of @p Slot on the calling thread's port; the
 *  previous occupant (may be null) comes back on scope exit. */
template <typename T, T *Port::*Slot>
class ScopedSlot
{
  public:
    explicit ScopedSlot(T *p) : prev_(detail::port().*Slot)
    {
        detail::port().*Slot = p;
    }
    ~ScopedSlot() { detail::port().*Slot = prev_; }

    ScopedSlot(const ScopedSlot &) = delete;
    ScopedSlot &operator=(const ScopedSlot &) = delete;

  private:
    T *prev_;
};

using ScopedHooks = ScopedSlot<MemHooks, &Port::barrier>;
using ScopedSink = ScopedSlot<AccessSink, &Port::sink>;
using ScopedWriteJournal = ScopedSlot<WriteJournal, &Port::journal>;

// ---- forwarding helpers (no-ops while no sink is installed) ------------
//
// Each helper also bumps the calling thread's perf::HotCounters —
// host-side observation only (no modeled cost, no NV state), so the
// conservation invariant "sink installed => counted NV stores ==
// delivered memWrite events" holds by construction: both tallies are
// taken at the same dispatch point.

inline void
traceRead(const void *p, std::uint32_t bytes)
{
    perf::HotCounters &c = perf::hot();
    ++c.nvLoads;
    c.nvLoadBytes += bytes;
    if (detail::g_port.sink) {
        ++c.sinkDispatches;
        detail::g_port.sink->memRead(p, bytes);
    } else {
        ++c.sinkFastNull;
    }
}

inline void
traceWrite(const void *p, std::uint32_t bytes)
{
    perf::HotCounters &c = perf::hot();
    ++c.nvStores;
    c.nvStoreBytes += bytes;
    if (detail::g_port.sink) {
        ++c.sinkDispatches;
        detail::g_port.sink->memWrite(p, bytes);
    } else {
        ++c.sinkFastNull;
    }
}

inline void
traceVersioned(const void *p, std::uint32_t bytes)
{
    perf::HotCounters &c = perf::hot();
    ++c.nvVersioned;
    c.nvVersionedBytes += bytes;
    if (detail::g_port.sink) {
        ++c.sinkDispatches;
        detail::g_port.sink->memVersioned(p, bytes);
    } else {
        ++c.sinkFastNull;
    }
}

inline void
traceBoot()
{
    if (detail::g_port.sink) {
        ++perf::hot().sinkDispatches;
        detail::g_port.sink->powerOn();
    } else {
        ++perf::hot().sinkFastNull;
    }
}

inline void
traceCommit()
{
    if (detail::g_port.sink) {
        ++perf::hot().sinkDispatches;
        detail::g_port.sink->commit();
    } else {
        ++perf::hot().sinkFastNull;
    }
}

inline void
traceSideEvent(SideEventKind kind, const char *id = nullptr,
               std::uint64_t u0 = 0, std::uint64_t u1 = 0)
{
    if (detail::g_port.sink) {
        ++perf::hot().sinkDispatches;
        detail::g_port.sink->sideEvent(SideEvent{kind, id, u0, u1});
    } else {
        ++perf::hot().sinkFastNull;
    }
}

/** Land a gated NV store through the installed sink's store(), or copy
 *  it directly when no sink is installed. */
inline void
gatedStore(StoreSite site, void *dst, const void *src,
           std::uint32_t bytes)
{
    if (detail::g_port.sink) {
        ++perf::hot().gateDispatches;
        detail::g_port.sink->store(site, dst, src, bytes);
    } else {
        ++perf::hot().gateFastNull;
        std::memcpy(dst, src, bytes);
    }
}

} // namespace ticsim::mem

#endif // TICSIM_MEM_TRACE_HPP
