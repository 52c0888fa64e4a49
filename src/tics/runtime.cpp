#include "runtime.hpp"

#include <algorithm>
#include <cstring>

#include "mem/trace.hpp"
#include "support/logging.hpp"
#include "telemetry/phase.hpp"

namespace ticsim::tics {

TicsRuntime::TicsRuntime(TicsConfig cfg)
    : cfg_(cfg), epochLogged_(cfg.undoLogEntries)
{
    stats_ = StatGroup("tics");
}

void
TicsRuntime::attach(board::Board &board, std::function<void()> appMain)
{
    Runtime::attach(board, std::move(appMain));
    auto &ram = board.nvram();
    area_ = std::make_unique<CheckpointArea>(
        ram, "tics.ckpt", board.config().stackHostBytes);
    undoLog_ = std::make_unique<UndoLog>(ram, "tics.undo",
                                         cfg_.undoLogBytes,
                                         cfg_.undoLogEntries);
    expiresLog_ = std::make_unique<UndoLog>(ram, "tics.expires",
                                            cfg_.undoLogBytes,
                                            cfg_.undoLogEntries);
    seg_.configure(cfg_.segmentBytes, cfg_.segmentCount);

    // Modeled footprint (Table 3): the double-buffered segment
    // checkpoint and runtime control block count toward .data; the
    // configurable segment array and undo log are reported separately
    // and excluded, matching the paper's accounting footnote.
    footprint_.add("tics runtime code", 4150, 0);
    footprint_.add("segment checkpoint (2x)", 0,
                   2 * (cfg_.segmentBytes + device::Mcu::regFileBytes +
                        static_cast<std::uint32_t>(
                            sizeof(std::uint32_t) * 4)));
    footprint_.add("runtime control block", 0, 96);
    footprint_.add("segment array (excluded)", 0,
                   cfg_.segmentBytes * cfg_.segmentCount,
                   /*excluded=*/true);
    footprint_.add("undo log (excluded)", 0,
                   cfg_.undoLogBytes + cfg_.undoLogEntries * 8,
                   /*excluded=*/true);
}

bool
TicsRuntime::onPowerOn()
{
    auto &b = *board_;
    const auto &costs = b.costs();
    {
        telemetry::PhaseScope boot(b.profiler(), telemetry::Phase::Boot);
        if (!b.chargeSys(costs.bootInit))
            return false;
    }

    // Volatile runtime state is rebuilt from scratch on every boot.
    atomicDepth_ = 0;
    deferredCheckpoint_ = false;
    expiresArmed_ = false;
    expiresLog_->clear();
    isrLost_ += pendingIsrs_.size(); // pending bits die with the power
    pendingIsrs_.clear();
    inIsr_ = false;
    inPostCommitHook_ = false;

    // 1. Roll back writes made after the last commit. This must happen
    //    on *every* boot, including before the first checkpoint ever
    //    commits: pre-checkpoint writes would otherwise survive a
    //    failure and be re-applied by re-execution.
    Cycles rollbackCost = 0;
    for (std::uint32_t i = 0; i < undoLog_->entryCount(); ++i) {
        // Per-entry fixed cost; the byte cost is folded in below.
        rollbackCost += costs.rollbackBase;
    }
    rollbackCost += static_cast<Cycles>(
        costs.rollbackPerByte *
        static_cast<double>(undoLog_->bytesSince(0)));
    {
        telemetry::PhaseScope rb(b.profiler(),
                                 telemetry::Phase::Rollback);
        if (!b.chargeSys(rollbackCost))
            return false; // died mid-rollback; the log survives for retry
    }
    const auto applied = undoLog_->rollback();
    if (applied > 0) {
        rollbackCyclesPerEntry_.sample(static_cast<double>(rollbackCost) /
                                       applied);
        b.events().emit(telemetry::EventKind::Rollback, b.now(), applied);
    }
    rollbackEntries_ += applied;
    undoLog_->clear();
    epochLogged_.clear();

    CheckpointArea::Slot *slot = area_->valid();
    if (!slot) {
        // Fresh start: no restore point exists yet.
        seg_.reset();
        lastCkptTrue_ = b.now();
        b.ctx().prepare([this] { appMain_(); });
        return true;
    }

    // 2. Restore the working-stack segment (modeled cost) via the host
    //    live-stack image (exact mechanics).
    telemetry::PhaseScope restore(b.profiler(),
                                  telemetry::Phase::Restore);
    mem::traceSideEvent(mem::SideEventKind::BootRestore, "tics");
    const Cycles restoreCost = device::CostModel::linear(
        costs.restoreLogic, costs.restorePerByte, cfg_.segmentBytes);
    restoreCycles_.sample(static_cast<double>(restoreCost));
    if (!b.chargeSys(restoreCost))
        return false;
    restoreStackImage(*slot);
    seg_ = slot->seg;
    lastCkptTrue_ = b.now();
    ++restores_;
    b.events().emit(telemetry::EventKind::Restore, b.now());
    b.ctx().prepareResume(slot->regs);
    return true;
}

void
TicsRuntime::noteCheckpoint(CkptCause cause)
{
    ++ckptByCause_[static_cast<int>(cause)];
    ++ckptTotal_;
    ++checkpoints_;
}

bool
TicsRuntime::doCheckpoint(CkptCause cause)
{
    auto &b = *board_;
    const auto &costs = b.costs();
    telemetry::PhaseScope ps(b.profiler(), telemetry::Phase::Checkpoint);

    // Charge before mutating anything: if the supply dies here, the
    // context is abandoned and the previously committed slot remains
    // the restore point (two-phase commit semantics). The cost is
    // split around the capture so the fault injector can land a cut
    // between capture and commit; the total is unchanged, so cycle
    // counts and death times match the unsplit model exactly.
    const Cycles ckptCost = device::CostModel::linear(
        costs.ckptLogic, costs.ckptPerByte, cfg_.segmentBytes);
    ckptCycles_.sample(static_cast<double>(ckptCost));
    mem::traceSideEvent(mem::SideEventKind::CkptCommitStart, "tics");
    b.charge(ckptCost - ckptCost / 2);

    CheckpointArea::Slot &slot = area_->writeSlot();
    if (!captureStackImage(b, slot, TicsConfig::kHostRedzone)) {
        // Re-entered through onPowerOn() after a reboot.
        return false;
    }
    TICSIM_ASSERT(slot.imgSize <= area_->imageCapacity(),
                  "stack image (%u B) exceeds checkpoint capacity",
                  slot.imgSize);
    seg_.noteCheckpointed();
    slot.seg = seg_;

    // Phase two: persist the commit header, then release the undo log.
    b.charge(ckptCost / 2);
    area_->commit();
    undoLog_->clear();
    epochLogged_.clear();
    lastCkptTrue_ = b.now();
    deferredCheckpoint_ = false;
    noteCheckpoint(cause);
    b.events().emit(telemetry::EventKind::CheckpointCommit, b.now(),
                    static_cast<std::uint64_t>(cause));
    b.markProgress();
    if (postCommitHook_ && !inPostCommitHook_) {
        inPostCommitHook_ = true;
        postCommitHook_();
        inPostCommitHook_ = false;
    }
    return true;
}

void
TicsRuntime::frameEnter(std::uint16_t modeledBytes)
{
    auto &b = *board_;
    const auto &costs = b.costs();
    b.charge(costs.frameCheck);
    const SegAction a = seg_.frameEnter(modeledBytes);
    if (a.grew) {
        ++stackGrows_;
        b.charge(costs.stackGrow);
    }
}

void
TicsRuntime::frameExit()
{
    auto &b = *board_;
    const auto &costs = b.costs();
    const SegAction a = seg_.frameExit();
    if (a.shrunk) {
        ++stackShrinks_;
        b.charge(costs.stackShrink);
    }
    if (a.forceCheckpoint) {
        if (atomicDepth_ > 0) {
            deferredCheckpoint_ = true;
        } else {
            doCheckpoint(CkptCause::Shrink);
        }
    }
}

bool
TicsRuntime::policyWantsCheckpoint()
{
    switch (cfg_.policy) {
      case PolicyKind::None:
        return false;
      case PolicyKind::Timer:
        return board_->now() - lastCkptTrue_ >= cfg_.timerPeriod;
      case PolicyKind::Voltage: {
        const Volts v = board_->supply().voltageNow();
        return v >= 0.0 && v < cfg_.voltageThreshold;
      }
      case PolicyKind::EveryTrigger:
        return true;
    }
    return false;
}

void
TicsRuntime::triggerPoint()
{
    auto &b = *board_;
    b.charge(2); // trigger-site check

    if (expiresArmed_ && b.now() >= expiresDeadlineTrue_) {
        // The data-expiration timer fired inside an @expires/catch
        // block: deliver control to the catch handler.
        expiresArmed_ = false;
        throw ExpiredException{};
    }
    if (atomicDepth_ > 0)
        return;

    // Deliver pending interrupts: consume the pending bit first, run
    // the handler with automatic checkpoints disabled, then place the
    // implicit return-from-interrupt checkpoint (paper Section 4).
    while (!pendingIsrs_.empty() && !inIsr_) {
        auto isr = std::move(pendingIsrs_.front());
        pendingIsrs_.erase(pendingIsrs_.begin());
        inIsr_ = true;
        beginAtomic();
        b.charge(26); // interrupt entry/exit latency
        isr();
        endAtomic(/*checkpoint=*/true);
        inIsr_ = false;
        ++isrServiced_;
        ++interrupts_;
    }
    if (deferredCheckpoint_ || policyWantsCheckpoint()) {
        doCheckpoint(deferredCheckpoint_ ? CkptCause::Shrink
                     : cfg_.policy == PolicyKind::Timer
                         ? CkptCause::Timer
                     : cfg_.policy == PolicyKind::Voltage
                         ? CkptCause::Voltage
                         : CkptCause::EveryTrigger);
    }
}

void
TicsRuntime::checkpointNow()
{
    doCheckpoint(CkptCause::Manual);
}

void
TicsRuntime::preWrite(void *hostAddr, std::uint32_t bytes)
{
    auto &b = *board_;
    if (!b.ctx().inside())
        return; // runtime/bench writes outside the device
    const auto &costs = b.costs();

    // Classify the target: working-stack writes need no versioning
    // (the segment checkpoint covers them). The whole write barrier —
    // classification, dedup lookup and the log append — is undo-log
    // machinery for attribution purposes.
    telemetry::PhaseScope ps(b.profiler(), telemetry::Phase::UndoLog);
    b.charge(costs.ptrCheck);
    if (b.ctx().onStack(hostAddr))
        return;

    if (expiresArmed_ || atomicDepth_ > 0) {
        // Parallel undo log for @expires/catch rollback.
        if (!expiresLog_->wouldOverflow(bytes))
            expiresLog_->append(hostAddr, bytes);
    }

    if (epochLogged_.covers(hostAddr, bytes)) {
        ++undoDedupHits_;
        return; // already versioned since the last commit
    }

    if (undoLog_->wouldOverflow(bytes)) {
        // Forced checkpoint to drain the log and guarantee progress.
        if (atomicDepth_ > 0) {
            ++atomicityBreaks_;
            warn("tics: undo log overflow inside an atomic block; "
                 "forcing a checkpoint (atomicity weakened)");
        }
        doCheckpoint(CkptCause::UndoFull);
    }

    b.charge(device::CostModel::linear(costs.undoLogBase,
                                       costs.undoLogPerByte, bytes));
    undoLog_->append(hostAddr, bytes);
    epochLogged_.set(hostAddr, bytes);
    ++undoAppends_;
    undoBytes_ += bytes;
}

TimeNs
TicsRuntime::deviceNow()
{
    return board_->deviceNow();
}

void
TicsRuntime::beginAtomic()
{
    ++atomicDepth_;
}

void
TicsRuntime::endAtomic(bool checkpoint)
{
    TICSIM_ASSERT(atomicDepth_ > 0, "unbalanced endAtomic");
    --atomicDepth_;
    if (atomicDepth_ == 0 && checkpoint)
        doCheckpoint(CkptCause::AtomicEnd);
}

void
TicsRuntime::beginExpires(TimeNs trueDeadline)
{
    beginAtomic();
    expiresLog_->clear();
    expiresArmed_ = true;
    expiresDeadlineTrue_ = trueDeadline;
}

void
TicsRuntime::expiresRollback()
{
    const auto &costs = board_->costs();
    telemetry::PhaseScope ps(board_->profiler(),
                             telemetry::Phase::Rollback);
    Cycles cost = 0;
    for (std::uint32_t i = 0; i < expiresLog_->entryCount(); ++i)
        cost += costs.rollbackBase;
    cost += static_cast<Cycles>(
        costs.rollbackPerByte *
        static_cast<double>(expiresLog_->bytesSince(0)));
    board_->charge(cost);
    expiresRollbacks_ += expiresLog_->rollback();
    expiresLog_->clear();
}

void
TicsRuntime::endExpires()
{
    expiresArmed_ = false;
    expiresLog_->clear();
    endAtomic(/*checkpoint=*/true);
}

void
TicsRuntime::chargeTimestampWrite()
{
    telemetry::PhaseScope ps(board_->profiler(),
                             telemetry::Phase::Timekeeper);
    board_->charge(board_->costs().timestampWrite);
}

void
TicsRuntime::raiseInterrupt(std::function<void()> isr)
{
    pendingIsrs_.push_back(std::move(isr));
}

void
TicsRuntime::setPostCommitHook(std::function<void()> hook)
{
    postCommitHook_ = std::move(hook);
}

void
TicsRuntime::saveState(StateWriter &w) const
{
    // Pending ISR closures cannot be serialized; explorer decision
    // points never carry one in the modeled workloads, and a reboot
    // would drop them anyway.
    TICSIM_ASSERT(pendingIsrs_.empty(),
                  "tics: snapshot with pending interrupts unsupported");
    w.put(seg_);
    w.put(atomicDepth_);
    w.put(deferredCheckpoint_);
    w.put(inIsr_);
    w.put(isrServiced_);
    w.put(isrLost_);
    w.put(inPostCommitHook_);
    w.put(expiresArmed_);
    w.put(expiresDeadlineTrue_);
    w.put(lastCkptTrue_);
    w.putBytes(ckptByCause_, sizeof(ckptByCause_));
    w.put(ckptTotal_);
    w.put(undoLog_->cursor());
    w.put(expiresLog_->cursor());
    epochLogged_.saveState(w);
    area_->saveHostState(w);
}

void
TicsRuntime::loadState(StateReader &r)
{
    pendingIsrs_.clear();
    seg_ = r.get<Segmentation>();
    atomicDepth_ = r.get<std::uint32_t>();
    deferredCheckpoint_ = r.get<bool>();
    inIsr_ = r.get<bool>();
    isrServiced_ = r.get<std::uint64_t>();
    isrLost_ = r.get<std::uint64_t>();
    inPostCommitHook_ = r.get<bool>();
    expiresArmed_ = r.get<bool>();
    expiresDeadlineTrue_ = r.get<TimeNs>();
    lastCkptTrue_ = r.get<TimeNs>();
    r.getBytes(ckptByCause_, sizeof(ckptByCause_));
    ckptTotal_ = r.get<std::uint64_t>();
    undoLog_->setCursor(r.get<UndoLog::Cursor>());
    expiresLog_->setCursor(r.get<UndoLog::Cursor>());
    epochLogged_.loadState(r);
    area_->loadHostState(r);
}

} // namespace ticsim::tics
