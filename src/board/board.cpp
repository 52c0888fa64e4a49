#include "board.hpp"

#include <type_traits>

#include "board/runtime.hpp"
#include "mem/journal.hpp"
#include "perf/counters.hpp"
#include "support/logging.hpp"

namespace ticsim::board {

// Snapshot captures the sensor objects as raw byte images.
static_assert(std::is_trivially_copyable_v<device::Accelerometer> &&
                  std::is_trivially_copyable_v<device::ScalarSensor>,
              "sensors must stay trivially copyable for board::Snapshot");

void
Runtime::attach(Board &board, std::function<void()> appMain)
{
    board_ = &board;
    appMain_ = std::move(appMain);
}

Board::Board(BoardConfig cfg, std::unique_ptr<energy::Supply> supply,
             std::unique_ptr<timekeeper::Timekeeper> tk)
    : cfg_(cfg), nvram_(cfg.nvramBytes), mcu_(cfg.costs),
      supply_(std::move(supply)), tk_(std::move(tk)), rng_(cfg.seed),
      accel_(Rng(cfg.seed ^ 0xACCE1ULL), cfg.accelRegimePeriod),
      temp_(Rng(cfg.seed ^ 0x7E3Full), 22.0, 6.0, 60 * kNsPerSec, 0.5),
      moisture_(Rng(cfg.seed ^ 0x5011ULL), 400.0, 120.0, 120 * kNsPerSec,
                8.0),
      events_(cfg.eventRingCapacity)
{
    if (!supply_)
        fatal("board: null supply");
    if (!tk_)
        fatal("board: null timekeeper");
    mcu_.setPhaseProfiler(&profiler_);
    profiler_.bindTimeline(&now_, &events_);
    monitor_.setEventHook([this](ViolationKind k) {
        events_.emit(telemetry::EventKind::Violation, now_,
                     static_cast<std::uint64_t>(k));
    });
    const Addr stackAddr =
        nvram_.allocate("app-stack", cfg.stackHostBytes, 64);
    ctx_ = std::make_unique<context::ExecContext>(nvram_.hostPtr(stackAddr),
                                                  cfg.stackHostBytes);
}

bool
Board::drainCycles(Cycles c)
{
    const TimeNs dur = mcu_.cyclesToNs(c);
    // Below the supply's death horizon the charge completes and drain()
    // would change nothing, so only a charge reaching it calls drain().
    energy::DrainResult r{false, dur};
    if (now_ + dur >= supply_->safeUntil()) {
        ++perf::hot().supplyDrains;
        r = supply_->drain(now_, dur, costs().activePower);
    }
    now_ += r.ranFor;
    onTime_ += r.ranFor;
    const Cycles ran =
        r.died ? static_cast<Cycles>(r.ranFor / mcu_.cycleTimeNs()) : c;
    mcu_.addCycles(ran);
    return r.died;
}

void
Board::charge(Cycles c)
{
    if (!ctx_->inside()) {
        if (drainCycles(c))
            sysDied_ = true;
        return;
    }
    if (drainCycles(c))
        ctx_->exitWith(context::ExitReason::PowerFail);
    if (now_ >= endTime_)
        ctx_->exitWith(context::ExitReason::TimeLimit);
}

void
Board::forcePowerFail()
{
    // Flag the death as injected before the lights go out, so traces
    // can tell a campaign kill from an organic brown-out (the matching
    // BrownOut event follows on the outage path).
    events_.emit(telemetry::EventKind::InjectedFail, now_);
    if (ctx_->inside())
        ctx_->exitWith(context::ExitReason::PowerFail);
    sysDied_ = true;
}

void
Board::markInjectedDeath()
{
    TICSIM_ASSERT(!ctx_->inside(),
                  "markInjectedDeath() from inside the context");
    events_.emit(telemetry::EventKind::InjectedFail, now_);
    sysDied_ = true;
    phase_ = RunPhase::Death;
}

bool
Board::chargeSys(Cycles c)
{
    if (sysDied_)
        return false;
    if (drainCycles(c)) {
        sysDied_ = true;
        return false;
    }
    return true;
}

/** Scoped binding of the board's virtual clock to the log prefix. */
class LogClockScope
{
  public:
    explicit LogClockScope(const TimeNs *now)
        : prev_(Logger::get().setClock(now))
    {
    }
    ~LogClockScope() { Logger::get().setClock(prev_); }
    LogClockScope(const LogClockScope &) = delete;
    LogClockScope &operator=(const LogClockScope &) = delete;

  private:
    const std::uint64_t *prev_;
};

RunResult
Board::run(Runtime &rt, std::function<void()> appMain, TimeNs budget)
{
    beginRun(rt, std::move(appMain), budget);
    return continueRun();
}

void
Board::beginRun(Runtime &rt, std::function<void()> appMain, TimeNs budget)
{
    rt.attach(*this, std::move(appMain));
    rt_ = &rt;
    endTime_ = now_ + budget;
    runStart_ = now_;
    res_ = RunResult{};
    noProgressReboots_ = 0;
    phase_ = RunPhase::Boot;
}

RunResult
Board::continueRun()
{
    TICSIM_ASSERT(rt_ != nullptr, "continueRun() without beginRun()");
    LogClockScope logClock(&now_);

    while (phase_ != RunPhase::Done) {
        switch (phase_) {
        case RunPhase::Boot:
        case RunPhase::BootNoTrace: {
            if (now_ >= endTime_) {
                phase_ = RunPhase::Done;
                break;
            }
            if (phase_ == RunPhase::Boot)
                mem::traceBoot();
            sysDied_ = false;
            progressSinceBoot_ = false;
            // Scopes opened on a stack a brown-out abandoned never
            // closed; attribution restarts from App on every boot.
            profiler_.resetScopes();
            events_.emit(telemetry::EventKind::Boot, now_);
            const bool bootOk = rt_->onPowerOn() && !sysDied_;
            phase_ = bootOk ? RunPhase::Enter : RunPhase::Death;
            break;
        }
        case RunPhase::Enter: {
            mem::ScopedHooks sh(rt_->memHooks());
            const auto reason = ctx_->run();
            if (reason == context::ExitReason::Completed) {
                res_.completed = true;
                phase_ = RunPhase::Done;
            } else if (reason == context::ExitReason::TimeLimit) {
                phase_ = RunPhase::Done;
            } else if (reason == context::ExitReason::Starved) {
                res_.starved = true;
                phase_ = RunPhase::Done;
            } else {
                // PowerFail: take the outage path.
                phase_ = RunPhase::Death;
            }
            break;
        }
        case RunPhase::Death:
            deathPath();
            break;
        case RunPhase::Done:
            break;
        }
    }
    return finishRun();
}

void
Board::deathPath()
{
    ++res_.reboots;
    if (progressSinceBoot_) {
        noProgressReboots_ = 0;
    } else if (++noProgressReboots_ > cfg_.starvationRebootLimit) {
        res_.starved = true;
        phase_ = RunPhase::Done;
        return;
    }
    tk_->onPowerFail(now_);
    events_.emit(telemetry::EventKind::BrownOut, now_);
    const TimeNs off = supply_->offTimeAfterDeath(now_);
    events_.emit(telemetry::EventKind::Outage, now_, 0, off);
    now_ += off;
    tk_->onPowerOn(now_);
    phase_ = RunPhase::Boot;
}

RunResult
Board::finishRun()
{
    RunResult res = res_;
    res.cycles = mcu_.cycles();
    res.elapsed = now_ - runStart_;
    res.onTime = onTime_;
    return res;
}

bool
Board::snapshot(Snapshot &s, bool withFiber)
{
    if (withFiber) {
        s.hasFiber = true;
        if (!ctx_->captureFiber(s.fiber))
            return false; // re-entry path after a restore()
    } else {
        s.hasFiber = false;
        s.fiber = context::FiberImage{};
    }
    s.now = now_;
    s.onTime = onTime_;
    s.endTime = endTime_;
    s.runStart = runStart_;
    s.sysDied = sysDied_;
    s.progressSinceBoot = progressSinceBoot_;
    s.phase = phase_;
    s.partial = res_;
    s.noProgressReboots = noProgressReboots_;
    s.mcuCycles = mcu_.cycles();
    s.rng = rng_;
    {
        StateWriter w;
        w.put(accel_);
        w.put(temp_);
        w.put(moisture_);
        s.sensors = w.take();
    }
    s.radioPackets = radio_.sentCount();
    s.monitor = monitor_;
    s.profiler = profiler_;
    s.events = events_.mark();
    {
        StateWriter w;
        supply_->saveState(w);
        s.supply = w.take();
    }
    {
        StateWriter w;
        tk_->saveState(w);
        s.timekeeper = w.take();
    }
    {
        StateWriter w;
        if (rt_ != nullptr)
            rt_->saveState(w);
        s.runtime = w.take();
    }
    if (rt_ != nullptr)
        s.runtimeStats = rt_->stats();
    s.journalMark = mem::journalMark();
    return true;
}

void
Board::restore(const Snapshot &s)
{
    TICSIM_ASSERT(!ctx_->inside(), "restore() from inside the context");
    // NV first: the journal rolls modeled memory back to the mark
    // taken when the snapshot's host state was captured.
    mem::journalUndoTo(s.journalMark);
    now_ = s.now;
    onTime_ = s.onTime;
    endTime_ = s.endTime;
    runStart_ = s.runStart;
    sysDied_ = s.sysDied;
    progressSinceBoot_ = s.progressSinceBoot;
    phase_ = s.phase;
    res_ = s.partial;
    noProgressReboots_ = s.noProgressReboots;
    mcu_.setCycles(s.mcuCycles);
    rng_ = s.rng;
    {
        StateReader r(s.sensors);
        r.getBytes(&accel_, sizeof(accel_));
        r.getBytes(&temp_, sizeof(temp_));
        r.getBytes(&moisture_, sizeof(moisture_));
        TICSIM_ASSERT(r.exhausted(), "sensor blob mismatch");
    }
    radio_.truncate(s.radioPackets);
    monitor_ = s.monitor;
    profiler_ = s.profiler;
    events_.rewind(s.events);
    {
        StateReader r(s.supply);
        supply_->loadState(r);
        TICSIM_ASSERT(r.exhausted(), "supply blob mismatch");
        // Time moved backwards: a horizon computed later is wrong here.
        supply_->dropHorizon();
    }
    {
        StateReader r(s.timekeeper);
        tk_->loadState(r);
        TICSIM_ASSERT(r.exhausted(), "timekeeper blob mismatch");
    }
    if (rt_ != nullptr) {
        StateReader r(s.runtime);
        rt_->loadState(r);
        TICSIM_ASSERT(r.exhausted(), "runtime blob mismatch");
        rt_->stats() = s.runtimeStats;
    }
    if (s.hasFiber)
        ctx_->armFiberResume(s.fiber);
}

device::AccelSample
Board::sampleAccel()
{
    telemetry::PhaseScope ps(profiler_, telemetry::Phase::Peripheral);
    charge(costs().sensorSample);
    return accel_.sample(now_);
}

std::int32_t
Board::sampleTemp()
{
    telemetry::PhaseScope ps(profiler_, telemetry::Phase::Peripheral);
    charge(costs().sensorSample);
    return temp_.sample(now_);
}

std::int32_t
Board::sampleMoisture()
{
    telemetry::PhaseScope ps(profiler_, telemetry::Phase::Peripheral);
    charge(costs().sensorSample);
    return moisture_.sample(now_);
}

void
Board::radioSend(const void *data, std::uint32_t bytes)
{
    telemetry::PhaseScope ps(profiler_, telemetry::Phase::Peripheral);
    charge(device::CostModel::linear(costs().radioSend,
                                     costs().radioPerByte, bytes));
    radio_.send(now_, data, bytes);
    events_.emit(telemetry::EventKind::RadioSend, now_, bytes);
    mem::traceSideEvent(mem::SideEventKind::PeripheralSend, "radio", bytes);
}

TimeNs
Board::deviceNow()
{
    telemetry::PhaseScope ps(profiler_, telemetry::Phase::Timekeeper);
    charge(costs().timeRead);
    const TimeNs t = tk_->read(now_);
    mem::traceSideEvent(mem::SideEventKind::TimeRead, nullptr,
                        static_cast<std::uint64_t>(t));
    return t;
}

} // namespace ticsim::board
