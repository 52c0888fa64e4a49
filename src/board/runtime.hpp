/**
 * @file
 * The interface every intermittency-protection system implements.
 *
 * A Runtime owns the protocol that makes (or fails to make) forward
 * progress across power failures: what it persists, when it
 * checkpoints, and how it re-enters the application after a reboot.
 * TICS, the MementOS-like naive checkpointer, the Chinchilla-like
 * promoted-globals checkpointer, the task-based systems and the
 * unprotected plain-C baseline are all Runtime implementations driven
 * by the same Board.
 */

#ifndef TICSIM_BOARD_RUNTIME_HPP
#define TICSIM_BOARD_RUNTIME_HPP

#include <cstdint>
#include <functional>

#include "mem/footprint.hpp"
#include "mem/nv.hpp"
#include "support/statebuf.hpp"
#include "support/stats.hpp"

namespace ticsim::board {

class Board;

class Runtime
{
  public:
    Runtime() : stats_("runtime") {}
    virtual ~Runtime() = default;

    virtual const char *name() const = 0;

    /**
     * Bind to a board and the application entry. Called exactly once,
     * before the first boot; allocates the runtime's non-volatile
     * structures.
     */
    virtual void attach(Board &board, std::function<void()> appMain);

    /**
     * Power is back: decide between a fresh start and a restore, roll
     * back / restore state, charge the boot cost, and arm the
     * execution context.
     * @return false if the device browned out during boot/restore
     *         (the starvation path).
     */
    virtual bool onPowerOn() = 0;

    /** Write-interception hooks, or nullptr for direct stores. */
    virtual mem::MemHooks *memHooks() { return nullptr; }

    // ---- instrumentation surface (called from the app context) ----

    /** Instrumented function entry with modeled frame size. */
    virtual void frameEnter(std::uint16_t modeledBytes) {}

    /** Instrumented function exit. */
    virtual void frameExit() {}

    /**
     * Compiler-inserted trigger point (loop latch / basic-block edge):
     * an opportunity to checkpoint per the active policy.
     */
    virtual void triggerPoint() {}

    /** Explicit (manual) checkpoint request; no-op where unsupported. */
    virtual void checkpointNow() {}

    /**
     * Instrumented raw store of @p bytes from @p src to @p dst — the
     * pointer-write path of the paper. It is mem::appStore, so the
     * running runtime versions it through its write barrier.
     */
    void
    storeBytes(void *dst, const void *src, std::uint32_t bytes)
    {
        mem::appStore(dst, src, bytes);
    }

    /** Typed convenience wrapper over storeBytes(). */
    template <typename T>
    void
    store(T *dst, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        storeBytes(dst, &v, sizeof(T));
    }

    /**
     * Instrumented raw load — the pointer-read half of the paper's
     * instrumentation surface. Reads need no versioning on any of the
     * modeled systems, so this never dispatches to the runtime; it
     * exists to make the read set visible to an installed analysis
     * sink (mem::AccessSink) at zero modeled cost.
     */
    void
    loadBytes(void *dst, const void *src, std::uint32_t bytes)
    {
        mem::appLoad(dst, src, bytes);
    }

    /** Typed convenience wrapper over loadBytes(). */
    template <typename T>
    T
    load(const T *src)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        loadBytes(&v, src, sizeof(T));
        return v;
    }

    /** Whether the system can express recursive programs. */
    virtual bool supportsRecursion() const { return true; }

    /**
     * Register a block of application global state. Snapshot-based
     * runtimes (MementOS-like) copy it into every checkpoint; log-based
     * runtimes version writes instead and ignore this.
     */
    virtual void trackGlobals(void *base, std::uint32_t bytes) {}

    /**
     * Snapshot/restore hooks for the failure-space explorer
     * (board::Snapshot). A runtime serializes every *host-side*
     * mutable field that models volatile or NV-backed state and is
     * not already covered by the NV write journal — caches of NV
     * contents (undo-log cursors, checkpoint-slot validity), pending
     * ISR queues, policy clocks, per-cause counters. Modeled NV bytes
     * themselves are restored by mem::WriteJournal; the statistics
     * group and footprint are captured separately by the Board. The
     * default covers runtimes with no host state (plain C). A blob is
     * only ever replayed into the same object it was captured from.
     */
    virtual void saveState(StateWriter &) const {}
    virtual void loadState(StateReader &) {}

    /** Modeled .text/.data footprint ledger (Table 3). */
    mem::Footprint &footprint() { return footprint_; }

    StatGroup &stats() { return stats_; }

  protected:
    Board *board_ = nullptr;
    std::function<void()> appMain_;
    StatGroup stats_;
    mem::Footprint footprint_;
};

/**
 * RAII guard for an instrumented application function. Declares the
 * function's modeled (target-scale) frame size, which is exactly what
 * the paper's compiler backend computes and checks at function entry.
 *
 * Note: when a power failure abandons the context, destructors do not
 * run (as on real hardware); runtimes reconstruct their stack
 * bookkeeping from non-volatile state on reboot.
 */
class FrameGuard
{
  public:
    FrameGuard(Runtime &rt, std::uint16_t modeledBytes) : rt_(rt)
    {
        rt_.frameEnter(modeledBytes);
    }

    ~FrameGuard() { rt_.frameExit(); }

    FrameGuard(const FrameGuard &) = delete;
    FrameGuard &operator=(const FrameGuard &) = delete;

  private:
    Runtime &rt_;
};

} // namespace ticsim::board

#endif // TICSIM_BOARD_RUNTIME_HPP
