/**
 * @file
 * Task-based intermittent execution core, in the style of Alpaca
 * (OOPSLA'17): the program is a graph of atomic, idempotent tasks;
 * shared data flows through channels; a task's channel writes are
 * privatized into shadow copies and committed two-phase at the task
 * transition, together with the non-volatile "current task" pointer.
 * A power failure simply restarts the current task: its inputs still
 * read the committed versions, so re-execution is idempotent.
 *
 * This core is the common substrate for the Alpaca-, InK- and
 * MayFly-like baselines the paper compares against (Section 5.3.3).
 * Its programming model carries the limitations the paper critiques:
 * no recursion, no pointers into task-local state, and manual task
 * decomposition.
 */

#ifndef TICSIM_RUNTIMES_TASK_CORE_HPP
#define TICSIM_RUNTIMES_TASK_CORE_HPP

#include <cstring>
#include <string>
#include <vector>

#include "board/board.hpp"
#include "board/runtime.hpp"
#include "mem/journal.hpp"
#include "mem/trace.hpp"

namespace ticsim::taskrt {

using TaskId = std::int32_t;

/** Returned by a task to terminate the program. */
constexpr TaskId kTaskDone = -1;

class TaskRuntime;

/** Type-erased channel interface the runtime commits at transitions. */
class ChannelBase
{
  public:
    virtual ~ChannelBase() = default;

    /** Bytes that would be committed right now. */
    virtual std::uint32_t dirtyBytes() const = 0;

    /** Publish the shadow copy; returns committed bytes. */
    virtual std::uint32_t commit() = 0;

    /** Drop the shadow copy (reboot path). */
    virtual void discard() = 0;

    /** Record the (true) time of the latest commit (MayFly edges). */
    virtual void stampCommit(TimeNs t) {}

    /** True time of the latest commit (0 if never committed). */
    virtual TimeNs committedAt() const { return 0; }

    /**
     * Host-side volatile state (the dirty flag and changed-byte
     * count), packed for snapshot/restore: bit 0 = dirty, bits 32..63
     * = dirtyBytes. The channel payloads live in NV and are restored
     * by the write journal.
     */
    virtual std::uint64_t volatileState() const = 0;
    virtual void setVolatileState(std::uint64_t s) = 0;
};

/**
 * A privatized data channel: reads see the committed version (or the
 * task's own shadow write), writes land in the shadow until the next
 * task transition commits them.
 */
template <typename T>
class Channel : public ChannelBase
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    /**
     * Channels are created at graph-construction time, before the
     * runtime is attached to a board, so the arena is passed in
     * explicitly.
     */
    Channel(TaskRuntime &rt, mem::NvRam &ram, const std::string &name);

    /** Committed-or-own-write read (charged). */
    T get();

    /** Privatized write (charged). */
    void set(const T &v);

    /** Host-side peek at the committed version (verification only). */
    T
    committed() const
    {
        T v;
        std::memcpy(&v, value_, sizeof(T));
        return v;
    }

    std::uint32_t dirtyBytes() const override { return dirtyBytes_; }

    std::uint32_t commit() override; // defined after TaskRuntime

    void
    discard() override
    {
        dirty_ = false;
        dirtyBytes_ = 0;
    }

    /** Commit timestamp (true time), for MayFly edge expiry. */
    TimeNs committedAt() const override { return *commitTs_; }
    void
    stampCommit(TimeNs t) override
    {
        mem::journalNote(commitTs_, sizeof(TimeNs));
        *commitTs_ = t;
    }

    std::uint64_t
    volatileState() const override
    {
        return (static_cast<std::uint64_t>(dirtyBytes_) << 32) |
               (dirty_ ? 1u : 0u);
    }
    void
    setVolatileState(std::uint64_t s) override
    {
        dirty_ = (s & 1u) != 0;
        dirtyBytes_ = static_cast<std::uint32_t>(s >> 32);
    }

  private:
    TaskRuntime &rt_;
    T *value_;      // committed version (FRAM arena)
    T *shadow_;     // privatized copy (FRAM arena)
    TimeNs *commitTs_;
    bool dirty_ = false;
    /** Changed bytes vs. the committed version (Alpaca tracks dirty
     *  state fine-grained; commit cost scales with this, not with the
     *  channel's declared size). */
    std::uint32_t dirtyBytes_ = 0;
};

/** One node of the task graph. */
struct TaskDesc {
    std::string name;
    std::function<TaskId()> fn;
};

/** Task-runtime tuning knobs. */
struct TaskConfig {
    /** Extra per-transition scheduler cost (InK pays more). */
    Cycles extraTransitionCost = 0;
};

class TaskRuntime : public board::Runtime
{
  public:
    using Config = TaskConfig;

    explicit TaskRuntime(Config cfg = {}) : cfg_(cfg)
    {
        stats_ = StatGroup("taskrt");
    }

    const char *name() const override { return "Alpaca-like"; }
    bool supportsRecursion() const override { return false; }

    void attach(board::Board &board,
                std::function<void()> appMain) override;
    bool onPowerOn() override;

    /** Register a task; returns its id. */
    TaskId addTask(std::string name, std::function<TaskId()> fn);

    /** Set the entry task of the graph. */
    void setInitial(TaskId t) { initial_ = t; }

    /** Number of task transitions executed (for benches). */
    std::uint64_t transitions() const { return transitions_; }

    board::Board &boardRef() { return *board_; }

    void registerChannel(ChannelBase *c) { channels_.push_back(c); }

    const TaskDesc &task(TaskId t) const { return tasks_[t]; }
    std::size_t taskCount() const { return tasks_.size(); }
    std::size_t channelCount() const { return channels_.size(); }

    void
    saveState(StateWriter &w) const override
    {
        w.put(current_);
        w.put(transitions_);
        for (const ChannelBase *c : channels_)
            w.put(c->volatileState());
    }
    void
    loadState(StateReader &r) override
    {
        current_ = r.get<TaskId>();
        transitions_ = r.get<std::uint64_t>();
        for (ChannelBase *c : channels_)
            c->setVolatileState(r.get<std::uint64_t>());
    }

  protected:
    /**
     * Inspect/adjust the dispatch before running @p t (MayFly edge
     * expiry). @return the task to actually run.
     */
    virtual TaskId preDispatch(TaskId t) { return t; }

    /** Called after each committed transition. */
    virtual void postTransition(TaskId from, TaskId to) {}

    void taskLoop();

    Config cfg_;
    std::vector<TaskDesc> tasks_;
    std::vector<ChannelBase *> channels_;
    TaskId initial_ = 0;
    TaskId current_ = 0; ///< non-volatile current-task pointer
    std::uint64_t transitions_ = 0;
    CounterHandle transitionsStat_{stats_, "transitions"};
};

template <typename T>
Channel<T>::Channel(TaskRuntime &rt, mem::NvRam &ram,
                    const std::string &name)
    : rt_(rt)
{
    const auto v = ram.allocate("chan." + name + ".v", sizeof(T),
                                alignof(T));
    const auto s = ram.allocate("chan." + name + ".s", sizeof(T),
                                alignof(T));
    const auto t = ram.allocate("chan." + name + ".ts", sizeof(TimeNs),
                                alignof(TimeNs));
    value_ = reinterpret_cast<T *>(ram.hostPtr(v));
    shadow_ = reinterpret_cast<T *>(ram.hostPtr(s));
    commitTs_ = reinterpret_cast<TimeNs *>(ram.hostPtr(t));
    std::memset(static_cast<void *>(value_), 0, sizeof(T));
    std::memset(static_cast<void *>(shadow_), 0, sizeof(T));
    *commitTs_ = 0;
    rt.registerChannel(this);
    rt.footprint().add("channel " + name, 0,
                       2 * sizeof(T) + sizeof(TimeNs));
}

template <typename T>
std::uint32_t
Channel<T>::commit()
{
    if (!dirty_)
        return 0;
    const std::uint32_t committed = dirtyBytes_;
    mem::journalNote(value_, sizeof(T));
    std::memcpy(value_, shadow_, sizeof(T));
    // A committed write refreshes the token's timestamp even when the
    // new value happens to equal the old one (MayFly edges care about
    // recency, not content).
    stampCommit(rt_.boardRef().now());
    dirty_ = false;
    dirtyBytes_ = 0;
    return committed;
}

template <typename T>
T
Channel<T>::get()
{
    auto &b = rt_.boardRef();
    // Reads are served element-on-demand on the real systems, so the
    // modeled read cost is capped rather than scaling with a large
    // array channel's full declared size.
    constexpr std::uint32_t kReadCap = 96;
    b.charge(device::CostModel::linear(
        2, b.costs().framReadPerByte,
        sizeof(T) < kReadCap ? static_cast<std::uint32_t>(sizeof(T))
                             : kReadCap));
    const T *src = dirty_ ? shadow_ : value_;
    mem::traceRead(src, sizeof(T));
    T v;
    std::memcpy(&v, src, sizeof(T));
    return v;
}

template <typename T>
void
Channel<T>::set(const T &v)
{
    auto &b = rt_.boardRef();
    // Fine-grained dirty tracking: pay for bytes that actually change
    // relative to the committed version.
    const auto *nb = reinterpret_cast<const std::uint8_t *>(&v);
    const auto *base = reinterpret_cast<const std::uint8_t *>(value_);
    std::uint32_t changed = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        if (nb[i] != base[i])
            ++changed;
    }
    b.charge(device::CostModel::linear(3, b.costs().framWritePerByte,
                                       changed));
    // A privatized write is versioned by construction: the committed
    // copy stays intact until the two-phase transition publishes it.
    mem::traceVersioned(shadow_, sizeof(T));
    mem::traceWrite(shadow_, sizeof(T));
    mem::journalNote(shadow_, sizeof(T));
    std::memcpy(shadow_, &v, sizeof(T));
    dirty_ = true;
    dirtyBytes_ = changed;
}

} // namespace ticsim::taskrt

#endif // TICSIM_RUNTIMES_TASK_CORE_HPP
