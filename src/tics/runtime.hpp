/**
 * @file
 * The TICS runtime (the paper's primary contribution).
 *
 * Combines:
 *  - bounded checkpoints: only the machine registers and the working
 *    stack segment are saved, double-buffered with two-phase commit,
 *    so checkpoint and restore time are fixed by the segment size;
 *  - stack segmentation: grow/shrink transitions at function entry and
 *    exit, with enforced implicit checkpoints when a shrink leaves the
 *    checkpointed segment outside the live stack;
 *  - memory consistency: writes outside the working stack (globals and
 *    pointer targets) are undo-logged; the log is cleared on commit
 *    and rolled back on reboot, so unaltered C programs with pointers
 *    and recursion execute consistently;
 *  - checkpoint policies: timer-driven, voltage-driven, every-trigger
 *    and manual, plus atomic windows during which automatic
 *    checkpoints are disabled (the time-annotation blocks need this);
 *  - time services for the annotation layer (see annotations.hpp).
 */

#ifndef TICSIM_TICS_RUNTIME_HPP
#define TICSIM_TICS_RUNTIME_HPP

#include <vector>

#include "board/board.hpp"
#include "board/runtime.hpp"
#include "tics/checkpoint_area.hpp"
#include "tics/config.hpp"
#include "tics/epoch_set.hpp"
#include "tics/segmentation.hpp"
#include "tics/undo_log.hpp"

namespace ticsim::tics {

/** Why a checkpoint was taken (stat key). */
enum class CkptCause {
    Manual,
    Timer,
    Voltage,
    EveryTrigger,
    UndoFull,
    Shrink,
    TaskBoundary,
    AtomicEnd,
};

/** Thrown inside an @expires/catch block when its data expires. */
struct ExpiredException {};

class TicsRuntime : public board::Runtime, private mem::MemHooks
{
  public:
    explicit TicsRuntime(TicsConfig cfg = {});

    const char *name() const override { return "TICS"; }
    void attach(board::Board &board,
                std::function<void()> appMain) override;
    bool onPowerOn() override;
    mem::MemHooks *memHooks() override { return this; }

    void frameEnter(std::uint16_t modeledBytes) override;
    void frameExit() override;
    void triggerPoint() override;
    void checkpointNow() override;

    // ---- services for the time-annotation layer ------------------------

    /** Device-estimated time (charges a persistent-timekeeper read). */
    TimeNs deviceNow();

    /** Disable automatic checkpoints (nestable). */
    void beginAtomic();

    /**
     * Re-enable automatic checkpoints; when @p checkpoint, place the
     * paper-mandated checkpoint at the end of the atomic block.
     */
    void endAtomic(bool checkpoint = true);

    /**
     * Arm the data-expiration timer for an @expires/catch block; also
     * opens an atomic window and starts the parallel undo log.
     */
    void beginExpires(TimeNs trueDeadline);

    /** Roll the parallel undo log back (expiry was caught). */
    void expiresRollback();

    /** Close the @expires block (checkpoint + re-enable). */
    void endExpires();

    /** Charge the timestamp-update cost of a timed (@=) assignment. */
    void chargeTimestampWrite();

    // ---- interrupt handling (paper Section 4) ---------------------------

    /**
     * Raise an interrupt: the handler runs at the next trigger point
     * with automatic checkpoints disabled, followed by the implicit
     * checkpoint the paper mandates after return-from-interrupt.
     *
     * The pending flag is consumed *before* the handler runs (a real
     * interrupt's pending bit is volatile), so a power failure during
     * the handler rolls its memory effects back and the system
     * "continues as if the interrupt did not occur" — it is not
     * re-delivered.
     */
    void raiseInterrupt(std::function<void()> isr);

    std::uint64_t interruptsServiced() const { return isrServiced_; }
    std::uint64_t interruptsLost() const { return isrLost_; }

    /**
     * Register a hook invoked (in the app context) right after every
     * successful checkpoint commit — the anchor point for virtualized
     * I/O (io.hpp), which must flush exactly once per committed epoch.
     */
    void setPostCommitHook(std::function<void()> hook);

    const TicsConfig &config() const { return cfg_; }
    board::Board &board() { return *board_; }

    /** Segmentation bookkeeping (exposed for tests and validators). */
    const Segmentation &segmentation() const { return seg_; }

    std::uint64_t
    checkpointCount(CkptCause cause) const
    {
        return ckptByCause_[static_cast<int>(cause)];
    }

    std::uint64_t checkpointsTotal() const { return ckptTotal_; }

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    // mem::MemHooks
    void preWrite(void *hostAddr, std::uint32_t bytes) override;

    /**
     * Take a checkpoint now (capture registers, copy the live stack
     * image, two-phase commit, clear the undo log).
     * @return false when execution re-entered here through a restore.
     */
    bool doCheckpoint(CkptCause cause);

    /** Policy decision at a trigger point. */
    bool policyWantsCheckpoint();

    void noteCheckpoint(CkptCause cause);

    TicsConfig cfg_;
    std::unique_ptr<CheckpointArea> area_;
    std::unique_ptr<UndoLog> undoLog_;
    std::unique_ptr<UndoLog> expiresLog_;
    Segmentation seg_;

    /** Locations already undo-logged since the last commit, with the
     *  widest extent logged (re-log on a wider write). */
    EpochSet epochLogged_;

    std::uint32_t atomicDepth_ = 0;
    bool deferredCheckpoint_ = false;
    /** Volatile pending-interrupt "register" (host state; a reboot
     *  clears it, like a real pending bit on power loss). */
    std::vector<std::function<void()>> pendingIsrs_;
    std::function<void()> runningIsr_; ///< the handler being serviced
    bool inIsr_ = false;
    std::uint64_t isrServiced_ = 0;
    std::uint64_t isrLost_ = 0;
    std::function<void()> postCommitHook_;
    /** Volatile reentrancy guard for the hook (reset on every boot —
     *  a brown-out inside the hook must not wedge it shut). */
    bool inPostCommitHook_ = false;
    bool expiresArmed_ = false;
    TimeNs expiresDeadlineTrue_ = 0;
    TimeNs lastCkptTrue_ = 0;

    std::uint64_t ckptByCause_[8] = {};
    std::uint64_t ckptTotal_ = 0;

    DistributionHandle rollbackCyclesPerEntry_{stats_,
                                               "rollbackCyclesPerEntry"};
    CounterHandle rollbackEntries_{stats_, "rollbackEntries"};
    DistributionHandle restoreCycles_{stats_, "restoreCycles"};
    CounterHandle restores_{stats_, "restores"};
    CounterHandle checkpoints_{stats_, "checkpoints"};
    DistributionHandle ckptCycles_{stats_, "ckptCycles"};
    CounterHandle stackGrows_{stats_, "stackGrows"};
    CounterHandle stackShrinks_{stats_, "stackShrinks"};
    CounterHandle interrupts_{stats_, "interrupts"};
    CounterHandle undoDedupHits_{stats_, "undoDedupHits"};
    CounterHandle atomicityBreaks_{stats_, "atomicityBreaks"};
    CounterHandle undoAppends_{stats_, "undoAppends"};
    CounterHandle undoBytes_{stats_, "undoBytes"};
    CounterHandle expiresRollbacks_{stats_, "expiresRollbacks"};
};

} // namespace ticsim::tics

#endif // TICSIM_TICS_RUNTIME_HPP
