#include "chinchilla.hpp"

#include "tics/config.hpp"

#include <cstring>

#include "mem/trace.hpp"
#include "support/logging.hpp"
#include "telemetry/phase.hpp"

namespace ticsim::runtimes {

void
ChinchillaRuntime::attach(board::Board &board,
                          std::function<void()> appMain)
{
    Runtime::attach(board, std::move(appMain));
    area_ = std::make_unique<tics::CheckpointArea>(
        board.nvram(), "chinchilla.ckpt", board.config().stackHostBytes);
    versions_ = std::make_unique<tics::UndoLog>(
        board.nvram(), "chinchilla.versions", cfg_.versionBytes,
        cfg_.versionEntries);
    // Chinchilla's code size is dominated by the over-instrumentation
    // thunks (paper Table 3 shows ~2x TICS's .text).
    footprint_.add("chinchilla runtime code", 7400, 0);
    // The versioning store is statically reserved NV .data.
    footprint_.add("version store (dual copies)", 0,
                   cfg_.versionBytes + cfg_.versionEntries * 8);
}

bool
ChinchillaRuntime::onPowerOn()
{
    auto &b = *board_;
    const auto &costs = b.costs();
    {
        telemetry::PhaseScope boot(b.profiler(), telemetry::Phase::Boot);
        if (!b.chargeSys(costs.bootInit))
            return false;
    }

    // Roll dirty promoted globals back to their committed versions on
    // every boot (pre-first-checkpoint writes must be undone too).
    Cycles rollbackCost = 0;
    for (std::uint32_t i = 0; i < versions_->entryCount(); ++i)
        rollbackCost += costs.rollbackBase;
    rollbackCost += static_cast<Cycles>(
        costs.rollbackPerByte *
        static_cast<double>(versions_->bytesSince(0)));
    {
        telemetry::PhaseScope rb(b.profiler(),
                                 telemetry::Phase::Rollback);
        if (!b.chargeSys(rollbackCost))
            return false;
    }
    const auto applied = versions_->rollback();
    if (applied > 0)
        b.events().emit(telemetry::EventKind::Rollback, b.now(), applied);
    rollbackEntries_ += applied;
    versions_->clear();
    epochLogged_.clear();

    tics::CheckpointArea::Slot *slot = area_->valid();
    if (!slot) {
        lastCkptTrue_ = b.now();
        b.ctx().prepare([this] { appMain_(); });
        return true;
    }

    // Registers-only restore (locals live in promoted globals).
    telemetry::PhaseScope restore(b.profiler(),
                                  telemetry::Phase::Restore);
    mem::traceSideEvent(mem::SideEventKind::BootRestore, "chinchilla");
    if (!b.chargeSys(costs.restoreLogic))
        return false;
    tics::restoreStackImage(*slot);
    lastCkptTrue_ = b.now();
    ++restores_;
    b.events().emit(telemetry::EventKind::Restore, b.now());
    b.ctx().prepareResume(slot->regs);
    return true;
}

bool
ChinchillaRuntime::doCheckpoint()
{
    auto &b = *board_;
    const auto &costs = b.costs();
    telemetry::PhaseScope ps(b.profiler(), telemetry::Phase::Checkpoint);

    // Registers-only checkpoint (the Chinchilla selling point) plus
    // committing the dirty-version set. Cost split around the capture
    // (total unchanged) so a cut can land between capture and commit.
    mem::traceSideEvent(mem::SideEventKind::CkptCommitStart, "chinchilla");
    const Cycles ckptCost = device::CostModel::linear(
        costs.ckptLogic, costs.framWritePerByte,
        versions_->usedBytes());
    b.charge(ckptCost - ckptCost / 2);

    tics::CheckpointArea::Slot &slot = area_->writeSlot();
    if (!tics::captureStackImage(b, slot, tics::TicsConfig::kHostRedzone))
        return false;

    b.charge(ckptCost / 2);
    area_->commit();
    versions_->clear();
    epochLogged_.clear();
    lastCkptTrue_ = b.now();
    ++ckpts_;
    ++checkpoints_;
    b.events().emit(telemetry::EventKind::CheckpointCommit, b.now());
    b.markProgress();
    return true;
}

void
ChinchillaRuntime::triggerPoint()
{
    auto &b = *board_;
    // Over-instrumentation: every site pays the enabled/disabled test.
    b.charge(5);
    if (b.now() - lastCkptTrue_ >= cfg_.minCheckpointSpacing)
        doCheckpoint();
}

void
ChinchillaRuntime::checkpointNow()
{
    doCheckpoint();
}

void
ChinchillaRuntime::preWrite(void *hostAddr, std::uint32_t bytes)
{
    auto &b = *board_;
    if (!b.ctx().inside())
        return;
    const auto &costs = b.costs();
    telemetry::PhaseScope ps(b.profiler(), telemetry::Phase::UndoLog);
    b.charge(costs.ptrCheck);
    if (b.ctx().onStack(hostAddr))
        return; // host-local bookkeeping; promoted state is in nv<T>

    if (epochLogged_.covers(hostAddr, bytes)) {
        ++versionDedupHits_;
        return;
    }
    if (versions_->wouldOverflow(bytes))
        doCheckpoint();
    b.charge(device::CostModel::linear(costs.undoLogBase,
                                       costs.undoLogPerByte, bytes));
    versions_->append(hostAddr, bytes);
    epochLogged_.set(hostAddr, bytes);
    ++versionAppends_;
}

} // namespace ticsim::runtimes
