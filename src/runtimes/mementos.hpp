/**
 * @file
 * MementOS-like naive checkpointing baseline (paper Section 5.3: "a
 * naive checkpoint-based system that logs the complete stack and all
 * global variables, which closely resembles what MementOS does").
 *
 * At every trigger point (optionally gated by a voltage check or
 * timer), the runtime saves the registers, the *entire* modeled stack
 * and *all* registered global state, double-buffered. Restore rewrites
 * everything. Costs therefore scale with whole-program state — the
 * overhead and starvation behaviour TICS's bounded checkpoints remove.
 */

#ifndef TICSIM_RUNTIMES_MEMENTOS_HPP
#define TICSIM_RUNTIMES_MEMENTOS_HPP

#include <vector>

#include "board/board.hpp"
#include "board/model_stack.hpp"
#include "board/runtime.hpp"
#include "tics/checkpoint_area.hpp"

namespace ticsim::runtimes {

struct MementosConfig {
    /** Checkpoint gating at trigger points. */
    enum class Trigger { Every, Timer, Voltage } trigger = Trigger::Timer;
    TimeNs timerPeriod = 10 * kNsPerMs;
    Volts voltageThreshold = 2.1;
};

class MementosRuntime : public board::Runtime
{
  public:
    explicit MementosRuntime(MementosConfig cfg = {}) : cfg_(cfg)
    {
        stats_ = StatGroup("mementos");
    }

    const char *name() const override { return "MementOS-like"; }

    void attach(board::Board &board,
                std::function<void()> appMain) override;
    bool onPowerOn() override;

    void frameEnter(std::uint16_t modeledBytes) override;
    void frameExit() override;
    void triggerPoint() override;
    void checkpointNow() override;

    /**
     * Register a block of application global state; it is copied into
     * every checkpoint and rewritten on every restore.
     */
    void trackGlobals(void *base, std::uint32_t bytes) override;

    std::uint64_t checkpointsTotal() const { return ckpts_; }

    void
    saveState(StateWriter &w) const override
    {
        w.put(model_);
        w.put(ckptModel_);
        w.put(committedStackBytes_);
        w.put(lastCkptTrue_);
        w.put(ckpts_);
        area_->saveHostState(w);
    }
    void
    loadState(StateReader &r) override
    {
        model_ = r.get<board::ModelStack>();
        ckptModel_ = r.get<board::ModelStack>();
        committedStackBytes_ = r.get<std::uint32_t>();
        lastCkptTrue_ = r.get<TimeNs>();
        ckpts_ = r.get<std::uint64_t>();
        area_->loadHostState(r);
    }

  private:
    bool doCheckpoint();

    MementosConfig cfg_;
    std::unique_ptr<tics::CheckpointArea> area_;
    /** Modeled stack depth (cost accounting only; free of charges). */
    board::ModelStack model_;
    board::ModelStack ckptModel_;

    struct GlobalRegion {
        void *base;
        std::uint32_t bytes;
        std::uint8_t *shadow;  ///< snapshot area inside the FRAM arena
        std::uint8_t *genesis; ///< initial values, restored on fresh boots
    };
    std::vector<GlobalRegion> globals_;
    /** Regions registered before attach() (no arena yet). */
    std::vector<std::pair<void *, std::uint32_t>> pendingGlobals_;
    std::uint32_t globalsBytes_ = 0;
    /** Modeled stack bytes recorded with the committed checkpoint. */
    std::uint32_t committedStackBytes_ = 0;

    TimeNs lastCkptTrue_ = 0;
    std::uint64_t ckpts_ = 0;
    CounterHandle restores_{stats_, "restores"};
    CounterHandle checkpoints_{stats_, "checkpoints"};
};

} // namespace ticsim::runtimes

#endif // TICSIM_RUNTIMES_MEMENTOS_HPP
