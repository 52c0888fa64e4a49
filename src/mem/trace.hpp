/**
 * @file
 * Memory-consistency trace channel.
 *
 * The analysis subsystem (src/analysis/) observes every instrumented
 * non-volatile access in the simulator through one installable sink:
 * the nv<T> accessors and pointer-store paths report reads and writes
 * at the same sites that call into mem::MemHooks, the versioning
 * machinery (undo logs, snapshot checkpoints, privatized channels)
 * reports when the original bytes of a location have been made
 * recoverable, and the Board reports the interval boundaries (power-on
 * and commit) between which the Surbatovich consistency condition is
 * evaluated.
 *
 * When no sink is installed (the default, and all normal benchmark /
 * test runs) every trace call is a null-pointer test and nothing else;
 * tracing changes no modeled costs and no runtime behaviour.
 */

#ifndef TICSIM_MEM_TRACE_HPP
#define TICSIM_MEM_TRACE_HPP

#include <cstdint>

#include "perf/counters.hpp"

namespace ticsim::mem {

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
 * boundaries. All pointers are host addresses; implementations that
 * care about modeled addresses translate via NvRam::addrOf().
 */
class AccessSink
{
  public:
    virtual ~AccessSink() = default;

    /** An instrumented read of @p bytes at @p p is about to happen. */
    virtual void memRead(const void *p, std::uint32_t bytes) = 0;

    /** An instrumented write of @p bytes at @p p is about to happen. */
    virtual void memWrite(const void *p, std::uint32_t bytes) = 0;

    /**
     * The current contents of [p, p+bytes) have been versioned: a
     * reboot (or rollback) before the next commit restores them. Undo
     * logs report this per append; snapshot checkpointers report their
     * whole tracked regions at every commit/restore; task channels
     * report privatized writes (the committed copy is never at risk).
     */
    virtual void memVersioned(const void *p, std::uint32_t bytes) = 0;

    /** Power is back; a new boot (and consistency interval) begins. */
    virtual void powerOn() = 0;

    /**
     * A runtime committed forward progress (checkpoint commit, task
     * transition, restart-from-main); the current interval's writes
     * can no longer be lost to a reboot.
     */
    virtual void commit() = 0;

    /**
     * A non-memory observation (time read, peripheral effect, task
     * dispatch, ...). Default no-op so sinks that only care about the
     * NV stream — the dynamic checker — ignore it for free.
     */
    virtual void sideEvent(const SideEvent & /*ev*/) {}
};

namespace detail {
/**
 * The installed sink is thread-local: every simulated Board lives on
 * exactly one host thread, and the sweep engine (src/sweep/) runs many
 * Boards on concurrent threads — each with its own tracer — so the
 * sink must never leak between them. Serial code is unaffected (one
 * thread, one slot, same semantics as the old process global).
 *
 * constinit, like g_gate, g_journal and perf::detail::g_hot: a
 * constant-initialized thread_local needs no TLS-init guard, so each
 * access is a plain TLS load. Without it, GCC 12 PIE builds test the
 * weak init symbol and then form the address with an lea, which sets
 * no flags, and UBSan's null check branches on that stale test.
 */
extern constinit thread_local AccessSink *g_sink;
} // namespace detail

/** Install @p s as the calling thread's trace sink; returns the
 *  previous one (may be null). Pass nullptr to disable tracing. */
AccessSink *setAccessSink(AccessSink *s);

/** Currently installed sink, or nullptr when tracing is off. */
inline AccessSink *
accessSink()
{
    return detail::g_sink;
}

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
    if (detail::g_sink) {
        ++c.sinkDispatches;
        detail::g_sink->memRead(p, bytes);
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
    if (detail::g_sink) {
        ++c.sinkDispatches;
        detail::g_sink->memWrite(p, bytes);
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
    if (detail::g_sink) {
        ++c.sinkDispatches;
        detail::g_sink->memVersioned(p, bytes);
    } else {
        ++c.sinkFastNull;
    }
}

inline void
traceBoot()
{
    if (detail::g_sink) {
        ++perf::hot().sinkDispatches;
        detail::g_sink->powerOn();
    } else {
        ++perf::hot().sinkFastNull;
    }
}

inline void
traceCommit()
{
    if (detail::g_sink) {
        ++perf::hot().sinkDispatches;
        detail::g_sink->commit();
    } else {
        ++perf::hot().sinkFastNull;
    }
}

inline void
traceSideEvent(SideEventKind kind, const char *id = nullptr,
               std::uint64_t u0 = 0, std::uint64_t u1 = 0)
{
    if (detail::g_sink) {
        ++perf::hot().sinkDispatches;
        detail::g_sink->sideEvent(SideEvent{kind, id, u0, u1});
    } else {
        ++perf::hot().sinkFastNull;
    }
}

/** RAII sink installation for the scope of one traced Board::run on
 *  the current thread. */
class ScopedAccessSink
{
  public:
    explicit ScopedAccessSink(AccessSink *s) : prev_(setAccessSink(s)) {}
    ~ScopedAccessSink() { setAccessSink(prev_); }

    ScopedAccessSink(const ScopedAccessSink &) = delete;
    ScopedAccessSink &operator=(const ScopedAccessSink &) = delete;

  private:
    AccessSink *prev_;
};

/** Short name used by the sweep/fault/verify subsystems. */
using ScopedSink = ScopedAccessSink;

} // namespace ticsim::mem

#endif // TICSIM_MEM_TRACE_HPP
