#include "mementos.hpp"

#include "tics/config.hpp"

#include <cstring>

#include "mem/journal.hpp"
#include "mem/trace.hpp"
#include "support/logging.hpp"
#include "telemetry/phase.hpp"

namespace ticsim::runtimes {

void
MementosRuntime::attach(board::Board &board, std::function<void()> appMain)
{
    Runtime::attach(board, std::move(appMain));
    area_ = std::make_unique<tics::CheckpointArea>(
        board.nvram(), "mementos.ckpt", board.config().stackHostBytes);
    footprint_.add("mementos runtime code", 2600, 0);
    auto pending = std::move(pendingGlobals_);
    pendingGlobals_.clear();
    for (const auto &[base, bytes] : pending)
        trackGlobals(base, bytes);
}

void
MementosRuntime::trackGlobals(void *base, std::uint32_t bytes)
{
    if (!board_) {
        // Application objects are constructed before the runtime is
        // attached to a board; defer the shadow allocation.
        pendingGlobals_.emplace_back(base, bytes);
        return;
    }
    GlobalRegion r;
    r.base = base;
    r.bytes = bytes;
    // One shadow per checkpoint slot, laid out back to back.
    const auto addr = board_->nvram().allocate(
        "mementos.globals" + std::to_string(globals_.size()), 2 * bytes, 8);
    r.shadow = board_->nvram().hostPtr(addr);
    // Genesis snapshot: the values the region holds at registration,
    // i.e. the program's initial .data image. Fresh boots restore it,
    // closing the window where globals dirtied before the first
    // checkpoint would survive an outage that re-executes main().
    const auto gaddr = board_->nvram().allocate(
        "mementos.genesis" + std::to_string(globals_.size()), bytes, 8);
    r.genesis = board_->nvram().hostPtr(gaddr);
    std::memcpy(r.genesis, base, bytes);
    globals_.push_back(r);
    globalsBytes_ += bytes;
    footprint_.add("double-buffered globals", 0, 2 * bytes);
}

bool
MementosRuntime::onPowerOn()
{
    auto &b = *board_;
    const auto &costs = b.costs();
    {
        telemetry::PhaseScope boot(b.profiler(), telemetry::Phase::Boot);
        if (!b.chargeSys(costs.bootInit))
            return false;
    }

    tics::CheckpointArea::Slot *slot = area_->valid();
    if (!slot) {
        model_.clear();
        // Fresh start: rewrite every tracked global from its genesis
        // snapshot. Real firmware gets this for free — crt0 re-copies
        // .data from flash/FRAM on every reset — so its cycles are
        // part of the bootInit charge above, not an extra charge.
        // Without it, globals dirtied before the first-ever checkpoint
        // would survive an outage that restarts main() from scratch.
        for (auto &g : globals_) {
            mem::journalNote(g.base, g.bytes);
            std::memcpy(g.base, g.genesis, g.bytes);
            mem::traceVersioned(g.base, g.bytes);
        }
        // Force an early checkpoint at the first trigger: MementOS has
        // no undo log, so pre-checkpoint global writes are only safe
        // once a restore point exists.
        lastCkptTrue_ = 0;
        b.ctx().prepare([this] { appMain_(); });
        return true;
    }
    mem::traceSideEvent(mem::SideEventKind::BootRestore, "mementos");

    // Restore cost scales with the whole saved state: this is the
    // unbounded-restore path that can starve small energy buffers.
    telemetry::PhaseScope restore(b.profiler(),
                                  telemetry::Phase::Restore);
    const std::uint32_t stateBytes = committedStackBytes_ + globalsBytes_;
    if (!b.chargeSys(device::CostModel::linear(
            costs.restoreLogic, costs.restorePerByte, stateBytes)))
        return false;

    tics::restoreStackImage(*slot);
    const int idx = area_->validIndex();
    for (auto &g : globals_) {
        mem::journalNote(g.base, g.bytes);
        std::memcpy(g.base, g.shadow + static_cast<std::size_t>(idx) *
                                g.bytes,
                    g.bytes);
        // The surviving snapshot keeps covering writes made in the
        // interval this boot opens.
        mem::traceVersioned(g.base, g.bytes);
    }
    model_ = ckptModel_;
    lastCkptTrue_ = b.now();
    ++restores_;
    b.events().emit(telemetry::EventKind::Restore, b.now());
    b.ctx().prepareResume(slot->regs);
    return true;
}

bool
MementosRuntime::doCheckpoint()
{
    auto &b = *board_;
    const auto &costs = b.costs();
    telemetry::PhaseScope ps(b.profiler(), telemetry::Phase::Checkpoint);
    const std::uint32_t stateBytes = model_.totalBytes + globalsBytes_;

    // Cost split around the capture (total unchanged): death during
    // either half leaves the old commit valid.
    mem::traceSideEvent(mem::SideEventKind::CkptCommitStart, "mementos");
    const Cycles ckptCost = device::CostModel::linear(
        costs.ckptLogic, costs.ckptPerByte, stateBytes);
    b.charge(ckptCost - ckptCost / 2);

    tics::CheckpointArea::Slot &slot = area_->writeSlot();
    const int idx = area_->writeIndex();
    if (!tics::captureStackImage(b, slot, tics::TicsConfig::kHostRedzone))
        return false; // resumed after a reboot

    for (auto &g : globals_) {
        mem::journalNote(g.shadow + static_cast<std::size_t>(idx) *
                             g.bytes,
                         g.bytes);
        std::memcpy(g.shadow + static_cast<std::size_t>(idx) * g.bytes,
                    g.base, g.bytes);
    }
    b.charge(ckptCost / 2);
    area_->commit();
    ckptModel_ = model_;
    committedStackBytes_ = model_.totalBytes;
    lastCkptTrue_ = b.now();
    ++ckpts_;
    ++checkpoints_;
    b.events().emit(telemetry::EventKind::CheckpointCommit, b.now());
    b.markProgress();
    // After markProgress so the coverage lands in the new interval:
    // every tracked global is now recoverable from this snapshot.
    for (auto &g : globals_)
        mem::traceVersioned(g.base, g.bytes);
    return true;
}

void
MementosRuntime::frameEnter(std::uint16_t modeledBytes)
{
    model_.push(modeledBytes);
}

void
MementosRuntime::frameExit()
{
    model_.pop();
}

void
MementosRuntime::triggerPoint()
{
    auto &b = *board_;
    b.charge(4); // MementOS voltage/trigger check at every site
    bool want = false;
    switch (cfg_.trigger) {
      case MementosConfig::Trigger::Every:
        want = true;
        break;
      case MementosConfig::Trigger::Timer:
        want = b.now() - lastCkptTrue_ >= cfg_.timerPeriod;
        break;
      case MementosConfig::Trigger::Voltage: {
        const Volts v = b.supply().voltageNow();
        want = v >= 0.0 && v < cfg_.voltageThreshold;
        break;
      }
    }
    if (want)
        doCheckpoint();
}

void
MementosRuntime::checkpointNow()
{
    doCheckpoint();
}

} // namespace ticsim::runtimes
