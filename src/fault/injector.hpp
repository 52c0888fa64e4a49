/**
 * @file
 * Fault execution machinery: a Supply decorator that fires scheduled
 * power cuts, and an AccessSink that counts boundary events, arms
 * boundary-anchored cuts, tears gated NV stores, and flips retention
 * bits between charge windows.
 *
 * The same FaultInjector runs in two modes. In observe mode it only
 * counts — the campaign's reference run uses this to learn how many
 * commits, sends, stores, ... a failure-free execution performs, which
 * is the universe the systematic schedules are drawn from. In inject
 * mode it additionally executes a FaultPlan. Occurrence counting is
 * identical in both modes (and excludes pre-run construction stores),
 * so "the 3rd commit" means the same instant in both.
 */

#ifndef TICSIM_FAULT_INJECTOR_HPP
#define TICSIM_FAULT_INJECTOR_HPP

#include <memory>

#include "board/board.hpp"
#include "energy/supply.hpp"
#include "fault/plan.hpp"
#include "mem/trace.hpp"

namespace ticsim::fault {

/**
 * Apply @p t's torn-write effect of storing @p src over @p dst: the
 * NV cell ends in the state a power failure mid-store would leave.
 * For Interleaved tears of 4 bytes or fewer (one aligned word commits
 * atomically) this falls back to a garbage-tail tear so the store is
 * still genuinely torn.
 */
void applyTornStore(const TornWrite &t, void *dst, const void *src,
                    std::uint32_t bytes);

/**
 * Wraps an inner supply and overlays injected deaths: a sorted list of
 * absolute cut instants plus at most one armed boundary-relative cut
 * (converted to an absolute deadline at the next drain). Injected
 * deaths use the plan's off time; organic deaths of the inner supply
 * keep its own. Cut semantics are half-open like ScheduledSupply's: a
 * charge ending exactly at a cut completes and the death lands on the
 * next drain.
 */
class FaultedSupply : public energy::Supply
{
  public:
    FaultedSupply(std::unique_ptr<energy::Supply> inner, TimeNs offNs);

    energy::DrainResult drain(TimeNs now, TimeNs dur,
                              Watts load) override;
    TimeNs offTimeAfterDeath(TimeNs deathTime) override;
    void reset() override;
    bool intermittent() const override { return true; }
    Volts voltageNow() const override { return inner_->voltageNow(); }

    /** Pre-program absolute cut instants (must be ascending). */
    void scheduleAbsolute(std::vector<TimeNs> cutsAt);

    /**
     * Arm one cut @p delay after the next drain's start. No-op while a
     * previously armed cut is still pending (first boundary wins —
     * overlapping schedules stay deterministic).
     * @return whether this call actually armed the cut.
     */
    bool armCutAfter(TimeNs delay);

    /** A tear killed the system; bill the next off window to the plan. */
    void noteForcedDeath() { forced_ = true; }

    /** Deaths this decorator injected (not the inner supply's). */
    std::uint64_t injectedDeaths() const { return injected_; }

    /** Absolute instants at which injected cuts actually fired, in
     *  order — the raw material for absolutized ResetPatterns. */
    const std::vector<TimeNs> &firedAt() const { return fired_; }

    /** Scheduled instants of the absolute cuts that fired (subset of
     *  scheduleAbsolute()'s list) — lets the replay reporter tell
     *  which `cut@t:` atoms actually triggered. */
    const std::vector<TimeNs> &absFiredAt() const { return absFired_; }

    /** Snapshot/fork support: the decorator's pending/armed/fired cut
     *  state rides inside board::Snapshot's supply blob. */
    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    std::unique_ptr<energy::Supply> inner_;
    TimeNs offNs_;
    std::vector<TimeNs> abs_;
    std::size_t nextAbs_ = 0;
    bool havePending_ = false; ///< armCutAfter awaiting a drain
    TimeNs pendingDelay_ = 0;
    bool haveArmed_ = false;   ///< absolute deadline from armCutAfter
    TimeNs armedAt_ = 0;
    bool forced_ = false;
    std::uint64_t injected_ = 0;
    std::vector<TimeNs> fired_;
    std::vector<TimeNs> absFired_;
};

/** Per-boundary and per-store-site occurrence totals of one run. */
struct EventCensus {
    std::uint64_t boundary[kBoundaryCount] = {};
    std::uint64_t stores[mem::kStoreSiteCount] = {};
    std::uint32_t maxStoreBytes[mem::kStoreSiteCount] = {};
};

/** Whether (and where) one plan atom actually took effect during a
 *  run: the boundary/store/outage occurrence it matched and the
 *  virtual time of that trigger. Atoms that never matched stay
 *  fired == false — `ticsfault --replay` reports them and exits
 *  non-zero, since a plan that never fires proves nothing. */
struct AtomFiring {
    bool fired = false;
    std::uint64_t occurrence = 0;
    TimeNs at = 0;
};

/** The injector's replayable progress state: everything occurrence
 *  counting depends on. The fork shrinker seeds a fresh injector with
 *  the state recorded at its snapshot point so "the 3rd commit" keeps
 *  meaning the same instant in a resumed run. */
struct InjectorState {
    EventCensus census{};
    bool started = false;
    std::uint64_t boots = 0;
};

/**
 * The in-run fault executor. Install as the access sink (ScopedSink)
 * around one Board::run; its store() lands, counts and tears every
 * gated store.
 */
class FaultInjector : public mem::AccessSink
{
  public:
    /**
     * @param observeOnly Count events but inject nothing (the plan's
     *        cuts/tears/flips are ignored; its offNs still applies to
     *        deaths injected by other means — i.e. none).
     */
    FaultInjector(board::Board &board, FaultedSupply &supply,
                  const FaultPlan &plan, bool observeOnly);

    // AccessSink
    void powerOn() override;
    void commit() override;
    void sideEvent(const mem::SideEvent &ev) override;
    void store(mem::StoreSite site, void *dst, const void *src,
               std::uint32_t bytes) override;

    const EventCensus &census() const { return census_; }
    std::uint64_t tearsApplied() const { return tears_; }
    std::uint64_t flipsApplied() const { return flips_; }
    /** Flips whose region name matched no NV region (plan bugs). */
    std::uint64_t flipsUnmatched() const { return flipsUnmatched_; }

    /**
     * Point the injector at a different plan (and mode) mid-stream
     * without resetting occurrence counts. The fork shrinker restores
     * a snapshot, rebinds to the candidate subset plan, and resumes —
     * the census keeps counting from where the recording left off.
     */
    void rebind(const FaultPlan *plan, bool observeOnly);

    InjectorState state() const;
    void setState(const InjectorState &s);

    /** Per-atom trigger records, indexed like the plan's vectors.
     *  Relative cuts are marked fired when their boundary arms the
     *  supply (absolute cuts are tracked by FaultedSupply instead). */
    const std::vector<AtomFiring> &cutFirings() const { return cutFired_; }
    const std::vector<AtomFiring> &tearFirings() const { return tearFired_; }
    const std::vector<AtomFiring> &flipFirings() const { return flipFired_; }

  private:
    void note(Boundary b);
    void applyFlip(const BitFlip &f, std::size_t atomIdx);
    void resizeFirings();

    board::Board &board_;
    FaultedSupply &supply_;
    const FaultPlan *plan_;
    bool observe_;
    bool started_ = false; ///< first powerOn seen; stores count from here
    std::uint64_t boots_ = 0;
    EventCensus census_;
    std::uint64_t tears_ = 0;
    std::uint64_t flips_ = 0;
    std::uint64_t flipsUnmatched_ = 0;
    std::vector<AtomFiring> cutFired_;
    std::vector<AtomFiring> tearFired_;
    std::vector<AtomFiring> flipFired_;
};

} // namespace ticsim::fault

#endif // TICSIM_FAULT_INJECTOR_HPP
