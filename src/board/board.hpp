/**
 * @file
 * The Board: one simulated batteryless device.
 *
 * Owns the MCU cost model, the FRAM arena, the power supply, the
 * persistent timekeeper, the peripherals and the application execution
 * context, and drives the boot / run / brown-out / recharge loop.
 * Virtual time only advances through cycle charges (while on) and
 * supply recharge intervals (while off).
 */

#ifndef TICSIM_BOARD_BOARD_HPP
#define TICSIM_BOARD_BOARD_HPP

#include <functional>
#include <memory>

#include "board/violation.hpp"
#include "context/exec_context.hpp"
#include "device/mcu.hpp"
#include "device/radio.hpp"
#include "device/sensors.hpp"
#include "energy/supply.hpp"
#include "mem/nvram.hpp"
#include "mem/trace.hpp"
#include "support/rng.hpp"
#include "support/statebuf.hpp"
#include "telemetry/events.hpp"
#include "telemetry/phase.hpp"
#include "timekeeper/timekeeper.hpp"

namespace ticsim::board {

class Runtime;

/** Static configuration of a simulated device. */
struct BoardConfig {
    /** FRAM arena size. Larger than the real 64 KiB because host
     *  stack frames are an order of magnitude bigger than MSP430
     *  frames; modeled footprints (Table 3) are accounted separately. */
    std::uint32_t nvramBytes = 512 * 1024;
    /** Host bytes reserved for the application stack buffer. */
    std::uint32_t stackHostBytes = 96 * 1024;
    device::CostModel costs{};
    std::uint64_t seed = 1;
    /** Consecutive no-progress reboots before declaring starvation. */
    std::uint32_t starvationRebootLimit = 300;
    /** Accelerometer activity-regime switching period. */
    TimeNs accelRegimePeriod = 500 * kNsPerMs;
    /** Telemetry event-timeline capacity (drop-oldest beyond this). */
    std::uint32_t eventRingCapacity = 1 << 16;
};

/** Outcome of one Board::run(). */
struct RunResult {
    bool completed = false;  ///< the application entry returned
    bool starved = false;    ///< no forward progress across many reboots
    std::uint64_t reboots = 0;
    Cycles cycles = 0;       ///< MCU cycles executed
    TimeNs elapsed = 0;      ///< total virtual time (on + off)
    TimeNs onTime = 0;       ///< powered time
};

/**
 * Where the boot / run / brown-out loop stands between continueRun()
 * steps. Exposed so the failure-space explorer can restore a Snapshot
 * and steer the loop (e.g. force the death path at a decision point).
 */
enum class RunPhase : std::uint8_t {
    Boot,        ///< about to boot the runtime (traceBoot fires)
    BootNoTrace, ///< ditto, without re-announcing the boot to the sink
    Enter,       ///< context armed; about to enter application code
    Death,       ///< power failed; about to take the outage path
    Done,        ///< run finished (completed / starved / budget)
};

/**
 * Everything needed to roll a Board (and its attached runtime) back to
 * an earlier point of the same run, in place. Host-side state is
 * copied; modeled NV bytes are *not* imaged — the caller must have a
 * mem::WriteJournal installed, whose mark is captured here and undone
 * by restore(). With a FiberImage the restored run resumes mid-
 * application; without one the restore is only meaningful if the
 * explorer immediately forces the death path (markInjectedDeath()) or
 * the snapshot was taken outside the application context.
 */
struct Snapshot {
    TimeNs now = 0;
    TimeNs onTime = 0;
    TimeNs endTime = 0;
    TimeNs runStart = 0;
    bool sysDied = false;
    bool progressSinceBoot = false;
    RunPhase phase = RunPhase::Boot;
    RunResult partial{};
    std::uint32_t noProgressReboots = 0;
    Cycles mcuCycles = 0;
    Rng rng{};
    StateBlob sensors;          ///< accel + temp + moisture images
    std::size_t radioPackets = 0;
    ViolationMonitor monitor{};
    telemetry::PhaseProfiler profiler{};
    telemetry::EventRing::Mark events{};
    StateBlob supply;
    StatGroup supplyStats{""};
    StateBlob timekeeper;
    StateBlob runtime;
    StatGroup runtimeStats{""};
    std::size_t journalMark = 0;
    bool hasFiber = false;
    context::FiberImage fiber{};
};

class Board
{
  public:
    Board(BoardConfig cfg, std::unique_ptr<energy::Supply> supply,
          std::unique_ptr<timekeeper::Timekeeper> tk);

    /**
     * Execute @p appMain under @p rt until it completes, starves, or
     * the virtual-time budget runs out.
     */
    RunResult run(Runtime &rt, std::function<void()> appMain,
                  TimeNs budget);

    // ---- stepwise run control (snapshot / fork support) -------------------

    /** Attach @p rt and arm the run loop without entering it yet.
     *  run() is exactly beginRun() + continueRun(). */
    void beginRun(Runtime &rt, std::function<void()> appMain,
                  TimeNs budget);

    /** Drive the boot / run / brown-out loop from the current RunPhase
     *  to completion. Also the re-entry point after restore(). */
    RunResult continueRun();

    /** Current position of the run loop. */
    RunPhase phase() const { return phase_; }

    /** The runtime of the active run (null outside beginRun/run). */
    Runtime *runtime() { return rt_; }

    /**
     * Capture the board's host-side state (plus the installed write
     * journal's mark) into @p s. With @p withFiber, also images the
     * live application stack + registers so the restored run resumes
     * mid-application; in that case the call must come from inside the
     * app context and returns false on the re-entry path after a
     * restore() (mirroring ExecContext::captureFiber). Every field of
     * @p s is overwritten in the storage it already has, so capturing
     * again into the same Snapshot allocates nothing once its blobs,
     * fiber image and stats groups have grown to size.
     */
    bool snapshot(Snapshot &s, bool withFiber = false);

    /**
     * Roll the board back to @p s, in place, undoing journaled NV
     * writes. Must be called from the scheduler side; if the snapshot
     * holds a fiber image the context is re-armed so continueRun()
     * resumes mid-application.
     */
    void restore(const Snapshot &s);

    /**
     * Explorer-side emulated death: mark the current boot dead (as
     * forcePowerFail() would from the scheduler side) and steer the
     * run loop onto the outage path. Emits an InjectedFail event so
     * traces distinguish it from an organic brown-out.
     */
    void markInjectedDeath();

    // ---- component access -------------------------------------------------
    mem::NvRam &nvram() { return nvram_; }
    device::Mcu &mcu() { return mcu_; }
    context::ExecContext &ctx() { return *ctx_; }
    ViolationMonitor &monitor() { return monitor_; }
    energy::Supply &supply() { return *supply_; }
    timekeeper::Timekeeper &timekeeper() { return *tk_; }
    device::Radio &radio() { return radio_; }
    device::Accelerometer &accel() { return accel_; }
    Rng &rng() { return rng_; }

    /** Phase-attributed cycle profile of everything this board ran. */
    telemetry::PhaseProfiler &profiler() { return profiler_; }
    const telemetry::PhaseProfiler &profiler() const { return profiler_; }

    /** Virtual-time event timeline (bounded; see BoardConfig). */
    telemetry::EventRing &events() { return events_; }
    const telemetry::EventRing &events() const { return events_; }

    const device::CostModel &costs() const { return mcu_.costs(); }
    const BoardConfig &config() const { return cfg_; }

    /** True virtual time. */
    TimeNs now() const { return now_; }

    /** The running experiment's end time. */
    TimeNs endTime() const { return endTime_; }

    // ---- cycle accounting -------------------------------------------------

    /**
     * Charge @p c cycles. From inside the app context this does not
     * return if the supply browns out or the time budget expires (the
     * context is abandoned, like a real power failure). From the
     * scheduler side it records the death for the caller to observe.
     */
    void charge(Cycles c);

    /**
     * Charge cycles on the scheduler side (boot/restore work).
     * @return false if the supply browned out.
     */
    bool chargeSys(Cycles c);

    /** Whether a scheduler-side charge browned out this boot. */
    bool sysDied() const { return sysDied_; }

    /**
     * Kill the device right now, independent of the supply (fault
     * injection: a torn NV store is the last thing that happens before
     * the lights go out). From inside the app context this abandons
     * the context and does not return; from the scheduler side it
     * marks the boot dead for the run loop to observe. The caller's
     * supply decides the off time, as for any other death.
     */
    void forcePowerFail();

    /** Runtime reports forward progress (a commit); clears the
     *  starvation counter and closes the consistency interval the
     *  analysis tracer is accumulating. */
    void
    markProgress()
    {
        progressSinceBoot_ = true;
        mem::traceCommit();
    }

    // ---- peripherals (call from the app context; charge internally) ------
    device::AccelSample sampleAccel();
    std::int32_t sampleTemp();
    std::int32_t sampleMoisture();
    void radioSend(const void *data, std::uint32_t bytes);

    /** Device's own estimate of current time (charges a clock read). */
    TimeNs deviceNow();

  private:
    BoardConfig cfg_;
    mem::NvRam nvram_;
    device::Mcu mcu_;
    std::unique_ptr<energy::Supply> supply_;
    std::unique_ptr<timekeeper::Timekeeper> tk_;
    std::unique_ptr<context::ExecContext> ctx_;
    ViolationMonitor monitor_;
    device::Radio radio_;
    Rng rng_;
    device::Accelerometer accel_;
    device::ScalarSensor temp_;
    device::ScalarSensor moisture_;
    telemetry::PhaseProfiler profiler_;
    telemetry::EventRing events_;

    TimeNs now_ = 0;
    TimeNs onTime_ = 0;
    TimeNs endTime_ = 0;
    bool sysDied_ = false;
    bool progressSinceBoot_ = false;

    // ---- run-loop state (lives in members so snapshot/restore can
    //      re-enter the loop mid-run) ------------------------------------
    Runtime *rt_ = nullptr;
    RunResult res_{};
    TimeNs runStart_ = 0;
    std::uint32_t noProgressReboots_ = 0;
    RunPhase phase_ = RunPhase::Done;

    /** @return true if the supply browned out during the charge. */
    bool drainCycles(Cycles c);

    /** One brown-out: reboot bookkeeping, outage, clock re-sync. */
    void deathPath();

    /** Finalize the cross-boot totals of the active run. */
    RunResult finishRun();
};

} // namespace ticsim::board

#endif // TICSIM_BOARD_BOARD_HPP
