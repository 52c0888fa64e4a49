/**
 * @file
 * Chinchilla-like adaptive checkpointing baseline (paper Section 5.3.1).
 *
 * Chinchilla promotes every local variable to a non-volatile global at
 * compile time, over-instruments the program with checkpoints, and
 * enables/disables them heuristically. Consequences modeled here:
 *
 *  - checkpoints save registers only (locals are already "global"),
 *    but every promoted-global write pays dual-copy versioning;
 *  - recursion is unsupported (locals cannot be promoted per
 *    activation), so the recursive bitcount benchmark cannot run;
 *  - the local-to-global explosion shows up as .data footprint
 *    (Table 3) via the per-variable dual copies the app registers.
 *
 * Host mechanics still snapshot the live stack image so natively
 * compiled app code resumes exactly; the *modeled* cost charged per
 * checkpoint is registers plus dirty-global versioning, per the
 * Chinchilla design.
 */

#ifndef TICSIM_RUNTIMES_CHINCHILLA_HPP
#define TICSIM_RUNTIMES_CHINCHILLA_HPP

#include "board/board.hpp"
#include "board/runtime.hpp"
#include "tics/checkpoint_area.hpp"
#include "tics/epoch_set.hpp"
#include "tics/undo_log.hpp"

namespace ticsim::runtimes {

struct ChinchillaConfig {
    /** Heuristic: minimum spacing between accepted checkpoints. */
    TimeNs minCheckpointSpacing = 5 * kNsPerMs;
    /** Versioning buffer capacity (dirty-global dual copies). */
    std::uint32_t versionBytes = 4096;
    std::uint32_t versionEntries = 256;
};

class ChinchillaRuntime : public board::Runtime, private mem::MemHooks
{
  public:
    explicit ChinchillaRuntime(ChinchillaConfig cfg = {})
        : cfg_(cfg), epochLogged_(cfg.versionEntries)
    {
        stats_ = StatGroup("chinchilla");
    }

    const char *name() const override { return "Chinchilla-like"; }
    bool supportsRecursion() const override { return false; }

    void attach(board::Board &board,
                std::function<void()> appMain) override;
    bool onPowerOn() override;
    mem::MemHooks *memHooks() override { return this; }

    void triggerPoint() override;
    void checkpointNow() override;

    std::uint64_t checkpointsTotal() const { return ckpts_; }

    void
    saveState(StateWriter &w) const override
    {
        w.put(lastCkptTrue_);
        w.put(ckpts_);
        w.put(versions_->cursor());
        epochLogged_.saveState(w);
        area_->saveHostState(w);
    }
    void
    loadState(StateReader &r) override
    {
        lastCkptTrue_ = r.get<TimeNs>();
        ckpts_ = r.get<std::uint64_t>();
        versions_->setCursor(r.get<tics::UndoLog::Cursor>());
        epochLogged_.loadState(r);
        area_->loadHostState(r);
    }

  private:
    void preWrite(void *hostAddr, std::uint32_t bytes) override;
    bool doCheckpoint();

    ChinchillaConfig cfg_;
    std::unique_ptr<tics::CheckpointArea> area_;
    std::unique_ptr<tics::UndoLog> versions_;
    /** Promoted globals already versioned since the last commit. */
    tics::EpochSet epochLogged_;
    TimeNs lastCkptTrue_ = 0;
    std::uint64_t ckpts_ = 0;
    CounterHandle rollbackEntries_{stats_, "rollbackEntries"};
    CounterHandle restores_{stats_, "restores"};
    CounterHandle checkpoints_{stats_, "checkpoints"};
    CounterHandle versionDedupHits_{stats_, "versionDedupHits"};
    CounterHandle versionAppends_{stats_, "versionAppends"};
};

} // namespace ticsim::runtimes

#endif // TICSIM_RUNTIMES_CHINCHILLA_HPP
