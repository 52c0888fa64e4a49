#include "task_core.hpp"

#include "support/logging.hpp"
#include "telemetry/phase.hpp"

namespace ticsim::taskrt {

void
TaskRuntime::attach(board::Board &board, std::function<void()> appMain)
{
    // appMain for task systems is the graph-construction hook; the
    // dispatch loop below is the program.
    Runtime::attach(board, std::move(appMain));
    if (appMain_)
        appMain_();
    footprint_.add("task runtime code", 700, 0);
    footprint_.add("task control block", 0, 64);
}

TaskId
TaskRuntime::addTask(std::string name, std::function<TaskId()> fn)
{
    tasks_.push_back({std::move(name), std::move(fn)});
    footprint_.add("task '" + tasks_.back().name + "' dispatch", 48, 8);
    return static_cast<TaskId>(tasks_.size() - 1);
}

bool
TaskRuntime::onPowerOn()
{
    auto &b = *board_;
    {
        telemetry::PhaseScope boot(b.profiler(), telemetry::Phase::Boot);
        if (!b.chargeSys(b.costs().bootInit))
            return false;
    }
    // The current-task pointer is non-volatile; everything privatized
    // since the last transition is discarded, making the interrupted
    // task restart idempotent.
    for (auto *c : channels_)
        c->discard();
    b.ctx().prepare([this] { taskLoop(); });
    return true;
}

void
TaskRuntime::taskLoop()
{
    auto &b = *board_;
    const auto &costs = b.costs();
    if (transitions_ == 0 && current_ == 0)
        current_ = initial_;

    while (current_ != kTaskDone) {
        TICSIM_ASSERT(current_ >= 0 &&
                      current_ < static_cast<TaskId>(tasks_.size()),
                      "bad task id %d", current_);
        mem::traceSideEvent(mem::SideEventKind::TaskDispatch,
                            tasks_[current_].name.c_str(),
                            static_cast<std::uint64_t>(current_));
        const TaskId dispatched = preDispatch(current_);
        if (dispatched != current_) {
            // MayFly rerouted the dispatch (e.g. expired input data);
            // committing the new task pointer is a plain transition.
            b.charge(costs.taskTransition + cfg_.extraTransitionCost);
            current_ = dispatched;
            continue;
        }

        const TaskId next = tasks_[current_].fn();

        // Two-phase transition: charge the full commit cost first so a
        // brown-out mid-commit restarts the task against the old
        // committed channel versions.
        std::uint32_t bytes = 0;
        for (auto *c : channels_)
            bytes += c->dirtyBytes();
        {
            telemetry::PhaseScope commit(b.profiler(),
                                         telemetry::Phase::Checkpoint);
            b.charge(device::CostModel::linear(
                costs.taskTransition + cfg_.extraTransitionCost,
                costs.taskCommitPerByte, bytes));
        }
        for (auto *c : channels_)
            c->commit();
        b.events().emit(telemetry::EventKind::CheckpointCommit, b.now());
        const TaskId from = current_;
        current_ = next;
        ++transitions_;
        ++transitionsStat_;
        b.markProgress();
        postTransition(from, next);
    }
}

} // namespace ticsim::taskrt
