/**
 * @file
 * MayFly-like timely task graphs (SenSys'17 flavour).
 *
 * MayFly attaches timing constraints to the edges of a task graph:
 * data flowing along an edge expires after a declared lifetime, and an
 * expired token reroutes execution (typically back to the collection
 * task) instead of computing on stale data. The graph must be acyclic
 * — the paper notes the cuckoo-filter benchmark cannot be expressed
 * because loops are not allowed.
 */

#ifndef TICSIM_RUNTIMES_MAYFLY_HPP
#define TICSIM_RUNTIMES_MAYFLY_HPP

#include <map>

#include "runtimes/task_core.hpp"

namespace ticsim::taskrt {

class MayflyRuntime : public TaskRuntime
{
  public:
    MayflyRuntime() : TaskRuntime(Config{/*extraTransitionCost=*/30})
    {
        stats_ = StatGroup("mayfly");
    }

    const char *name() const override { return "MayFly-like"; }

    void
    attach(board::Board &board, std::function<void()> appMain) override
    {
        TaskRuntime::attach(board, std::move(appMain));
        footprint_.add("mayfly kernel code", 900, 0);
        footprint_.add("mayfly graph table", 0, 256);
    }

    /** Declare a graph edge (used by the acyclicity validator). */
    void
    declareEdge(TaskId from, TaskId to)
    {
        if (to != kTaskDone)
            edges_.emplace_back(from, to);
    }

    /**
     * Constrain @p t's input: the channel must have been committed
     * within @p lifetime; otherwise dispatch reroutes to @p onExpired.
     */
    void
    constrainInput(TaskId t, ChannelBase *ch, TimeNs lifetime,
                   TaskId onExpired)
    {
        constraints_[t] = {ch, lifetime, onExpired};
    }

    /**
     * Check the declared graph for cycles.
     * @return false when the program cannot be expressed in MayFly
     *         (loops in the graph), mirroring the paper's ✗ entries.
     */
    bool validateAcyclic() const;

    /**
     * MayFly's periodic-execution model: when the (acyclic) graph
     * drains, re-dispatch @p root until @p done returns true. This is
     * how iteration is expressed without graph loops.
     */
    void
    restartUntil(TaskId root, std::function<bool()> done)
    {
        restartRoot_ = root;
        restartDone_ = std::move(done);
    }

    std::uint64_t expiredDispatches() const { return expired_; }

    void
    saveState(StateWriter &w) const override
    {
        TaskRuntime::saveState(w);
        w.put(expired_);
    }
    void
    loadState(StateReader &r) override
    {
        TaskRuntime::loadState(r);
        expired_ = r.get<std::uint64_t>();
    }

  protected:
    TaskId
    preDispatch(TaskId t) override
    {
        auto it = constraints_.find(t);
        if (it == constraints_.end())
            return t;
        auto &b = boardRef();
        b.charge(b.costs().timeRead + 8); // edge-constraint check
        const TimeNs committedAt =
            it->second.channel ? it->second.channel->committedAt() : 0;
        const TimeNs age = b.now() >= committedAt
                               ? b.now() - committedAt
                               : 0;
        if (age > it->second.lifetime) {
            ++expired_;
            ++expiredTokens_;
            return it->second.onExpired;
        }
        return t;
    }

    void
    postTransition(TaskId from, TaskId to) override
    {
        if (to == kTaskDone && restartRoot_ >= 0 && restartDone_ &&
            !restartDone_()) {
            boardRef().charge(35); // graph re-arm
            current_ = restartRoot_;
        }
    }

  private:
    struct Constraint {
        ChannelBase *channel;
        TimeNs lifetime;
        TaskId onExpired;
    };
    std::vector<std::pair<TaskId, TaskId>> edges_;
    std::map<TaskId, Constraint> constraints_;
    std::uint64_t expired_ = 0;
    TaskId restartRoot_ = -1;
    std::function<bool()> restartDone_;
    CounterHandle expiredTokens_{stats_, "expiredTokens"};
};

} // namespace ticsim::taskrt

#endif // TICSIM_RUNTIMES_MAYFLY_HPP
