/**
 * @file
 * Tests of the telemetry subsystem: the PhaseProfiler's scope stack and
 * power-failure safety, the EventRing's bounded drop-oldest behaviour,
 * the structural invariant sum-over-phases == RunResult::cycles across
 * the whole runtime matrix, and the phase breakdown / event timeline a
 * TICS run produces on an intermittent supply.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <sstream>

#include "board/board.hpp"
#include "mem/nv.hpp"
#include "runtimes/chinchilla.hpp"
#include "runtimes/hibernus.hpp"
#include "runtimes/mementos.hpp"
#include "runtimes/plainc.hpp"
#include "runtimes/task_core.hpp"
#include "telemetry/trace_export.hpp"
#include "tics/runtime.hpp"

using namespace ticsim;
using namespace ticsim::telemetry;

namespace {

std::unique_ptr<board::Board>
patternBoard(TimeNs period, double duty, board::BoardConfig cfg = {})
{
    return std::make_unique<board::Board>(
        cfg, std::make_unique<energy::PatternSupply>(period, duty),
        std::make_unique<timekeeper::PerfectTimekeeper>());
}

Cycles
phaseSum(const PhaseProfiler &p)
{
    Cycles sum = 0;
    for (int i = 0; i < kPhaseCount; ++i)
        sum += p.phaseCycles(static_cast<Phase>(i));
    return sum;
}

/** Every cycle the run charged must land in exactly one phase. */
void
expectConservation(const board::Board &b, const board::RunResult &res)
{
    EXPECT_EQ(phaseSum(b.profiler()), res.cycles);
    EXPECT_EQ(b.profiler().totalCycles(), res.cycles);
}

} // namespace

// ---- PhaseProfiler unit behaviour ------------------------------------------

TEST(PhaseProfiler, DefaultPhaseIsApp)
{
    PhaseProfiler p;
    p.attribute(100);
    EXPECT_EQ(p.phaseCycles(Phase::App), 100u);
    EXPECT_EQ(p.totalCycles(), 100u);
}

TEST(PhaseProfiler, InnermostScopeWins)
{
    PhaseProfiler p;
    {
        PhaseScope outer(p, Phase::UndoLog);
        p.attribute(10);
        {
            PhaseScope inner(p, Phase::Checkpoint);
            p.attribute(7); // forced checkpoint inside the barrier
        }
        p.attribute(3);
    }
    p.attribute(5);
    EXPECT_EQ(p.phaseCycles(Phase::UndoLog), 13u);
    EXPECT_EQ(p.phaseCycles(Phase::Checkpoint), 7u);
    EXPECT_EQ(p.phaseCycles(Phase::App), 5u);
    EXPECT_EQ(p.totalCycles(), 25u);
}

TEST(PhaseProfiler, StaleScopeDestructorIsNoOp)
{
    // A power failure abandons the app stack; the Board then calls
    // resetScopes(). If a checkpointed stack image containing a scope
    // object is later restored, its destructor runs in a power life
    // where the scope was never pushed — it must not corrupt the stack.
    PhaseProfiler p;
    alignas(PhaseScope) unsigned char raw[sizeof(PhaseScope)];
    auto *leaked = new (raw) PhaseScope(p, Phase::Checkpoint);
    EXPECT_EQ(p.depth(), 1u);
    p.resetScopes(); // boot after brown-out
    p.attribute(4);  // new life: back to App
    leaked->~PhaseScope(); // restored-image destructor: no-op
    EXPECT_EQ(p.depth(), 0u);
    p.attribute(2);
    EXPECT_EQ(p.phaseCycles(Phase::App), 6u);
    EXPECT_EQ(p.phaseCycles(Phase::Checkpoint), 0u);

    // Same, with the stale scope recorded at a nested depth: a fresh
    // scope open at a shallower depth in the new life is untouched.
    PhaseProfiler q;
    PhaseScope outer(q, Phase::UndoLog); // depth 1
    alignas(PhaseScope) unsigned char raw2[sizeof(PhaseScope)];
    auto *nested = new (raw2) PhaseScope(q, Phase::Checkpoint); // depth 2
    q.resetScopes();
    {
        PhaseScope fresh(q, Phase::Restore); // depth 1 again
        q.attribute(4);
        nested->~PhaseScope(); // openDepth 1 >= depth 1: no-op
        EXPECT_EQ(q.depth(), 1u);
        q.attribute(2);
    }
    EXPECT_EQ(q.depth(), 0u);
    EXPECT_EQ(q.phaseCycles(Phase::Restore), 6u);
    EXPECT_EQ(q.phaseCycles(Phase::Checkpoint), 0u);
}

TEST(PhaseProfiler, ResetCyclesKeepsScopes)
{
    PhaseProfiler p;
    PhaseScope s(p, Phase::Timekeeper);
    p.attribute(9);
    p.resetCycles();
    EXPECT_EQ(p.totalCycles(), 0u);
    p.attribute(1);
    EXPECT_EQ(p.phaseCycles(Phase::Timekeeper), 1u);
}

// ---- EventRing -------------------------------------------------------------

TEST(EventRing, BoundedDropOldest)
{
    EventRing ring(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.emit(EventKind::Boot, i * 100, i);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 6u);
    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first, and only the newest four survive.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].arg0, i + 6);
        EXPECT_EQ(events[i].at, (i + 6) * 100);
    }
}

TEST(EventRing, MultiWrapDropAccountingStaysExact)
{
    // Drive the ring through several full wraps plus a remainder and
    // check the drop counter accounts for every evicted event, not
    // just the last wrap's worth. The large capacity makes the ring
    // grow from empty through several reallocations before it wraps.
    for (const std::uint64_t cap : {3u, 1000u}) {
        SCOPED_TRACE(cap);
        constexpr std::uint64_t kWraps = 5;
        constexpr std::uint64_t kRemainder = 2;
        const std::uint64_t total = kWraps * cap + kRemainder;
        EventRing ring(static_cast<std::uint32_t>(cap));
        for (std::uint64_t i = 0; i < total; ++i)
            ring.emit(EventKind::Boot, i * 10, i);
        EXPECT_EQ(ring.size(), cap);
        EXPECT_EQ(ring.dropped(), total - cap);
        const auto events = ring.snapshot();
        ASSERT_EQ(events.size(), cap);
        // The survivors are exactly the newest cap, oldest-first.
        for (std::size_t i = 0; i < cap; ++i) {
            EXPECT_EQ(events[i].arg0, total - cap + i);
            EXPECT_EQ(events[i].at, (total - cap + i) * 10);
        }
    }
}

TEST(EventRing, DropCounterSurvivesSnapshotAndKeepsCounting)
{
    // snapshot() must not disturb the accounting; subsequent overflow
    // keeps accumulating on top of the earlier drops.
    EventRing ring(2);
    for (std::uint64_t i = 0; i < 5; ++i)
        ring.emit(EventKind::Boot, i, i);
    EXPECT_EQ(ring.dropped(), 3u);
    (void)ring.snapshot();
    EXPECT_EQ(ring.dropped(), 3u);
    for (std::uint64_t i = 5; i < 9; ++i)
        ring.emit(EventKind::Boot, i, i);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.dropped(), 7u);
    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].arg0, 7u);
    EXPECT_EQ(events[1].arg0, 8u);
}

TEST(EventRing, ClearResets)
{
    EventRing ring(8);
    ring.emit(EventKind::BrownOut, 1);
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(EventRing, CapacityIsTheConfiguredMaximumBeforeAnyEmit)
{
    EXPECT_EQ(EventRing().capacity(), 1u << 16);
    EXPECT_EQ(EventRing(5000).capacity(), 5000u);
    EventRing ring(5000);
    ring.emit(EventKind::Boot, 1);
    EXPECT_EQ(ring.capacity(), 5000u);
}

namespace {

void
emitRange(EventRing &ring, std::uint64_t from, std::uint64_t to)
{
    for (std::uint64_t i = from; i < to; ++i)
        ring.emit(EventKind::PhaseSlice, i * 7, i, i * 3);
}

void
expectSameEvents(const std::vector<Event> &a, const std::vector<Event> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at) << i;
        EXPECT_EQ(a[i].arg0, b[i].arg0) << i;
        EXPECT_EQ(a[i].arg1, b[i].arg1) << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
    }
}

} // namespace

TEST(EventRing, RewindAcrossAGrowthStepIsExact)
{
    // Mark early, emit far enough that the storage is reallocated
    // (more than once), rewind, then take a different path: the
    // timeline must equal a fresh ring fed only the surviving events.
    constexpr std::uint64_t kMarkAt = 100;
    EventRing ring(4096);
    emitRange(ring, 0, kMarkAt);
    const EventRing::Mark m = ring.mark();
    emitRange(ring, kMarkAt, 1500);
    EXPECT_TRUE(ring.rewind(m));
    EXPECT_EQ(ring.size(), kMarkAt);
    emitRange(ring, 5000, 5700);

    EventRing fresh(4096);
    emitRange(fresh, 0, kMarkAt);
    emitRange(fresh, 5000, 5700);
    expectSameEvents(ring.snapshot(), fresh.snapshot());
    EXPECT_EQ(ring.dropped(), fresh.dropped());
}

TEST(EventRing, RewindRejectsAMarkFromAnotherRing)
{
    // The mark covers more events than this ring has storage for.
    EventRing big(4096);
    emitRange(big, 0, 1000);
    EventRing fresh(4096);
    EXPECT_DEATH(fresh.rewind(big.mark()), "mark from another ring");
}

TEST(EventRing, RewindAfterAWrapIsInexact)
{
    EventRing ring(300);
    emitRange(ring, 0, 10);
    const EventRing::Mark m = ring.mark();
    emitRange(ring, 10, 400);  // grows to 300, then overwrites
    ASSERT_GT(ring.dropped(), 0u);
    EXPECT_FALSE(ring.rewind(m));
    // The counters still match the mark's view of the ring.
    EXPECT_EQ(ring.size(), 10u);
    EXPECT_EQ(ring.dropped(), 0u);
}

// ---- cycle conservation across the runtime matrix --------------------------

TEST(Telemetry, PhaseSumMatchesRunCyclesPlainC)
{
    auto b = patternBoard(20 * kNsPerMs, 0.5);
    runtimes::PlainCRuntime rt;
    mem::nv<std::uint32_t> i(b->nvram(), "i");
    const auto res = b->run(
        rt,
        [&] {
            while (i.get() < 40) {
                i = i.get() + 1;
                b->charge(400);
            }
        },
        kNsPerSec);
    expectConservation(*b, res);
    EXPECT_GT(b->profiler().phaseCycles(Phase::App), 0u);
    EXPECT_GT(b->profiler().phaseCycles(Phase::Boot), 0u);
}

TEST(Telemetry, PhaseSumMatchesRunCyclesTics)
{
    auto b = patternBoard(16 * kNsPerMs, 0.6);
    tics::TicsConfig cfg;
    cfg.segmentBytes = 128;
    cfg.policy = tics::PolicyKind::Timer;
    cfg.timerPeriod = 2 * kNsPerMs;
    tics::TicsRuntime rt(cfg);
    mem::nv<std::uint32_t> i(b->nvram(), "i");
    const auto res = b->run(
        rt,
        [&] {
            board::FrameGuard fg(rt, 24);
            while (i.get() < 60) {
                rt.triggerPoint();
                (void)b->deviceNow();
                i = i.get() + 1;
                b->charge(500);
            }
        },
        10 * kNsPerSec);
    EXPECT_TRUE(res.completed);
    expectConservation(*b, res);
}

TEST(Telemetry, PhaseSumMatchesRunCyclesMementos)
{
    auto b = patternBoard(16 * kNsPerMs, 0.6);
    runtimes::MementosConfig cfg;
    cfg.trigger = runtimes::MementosConfig::Trigger::Every;
    runtimes::MementosRuntime rt(cfg);
    mem::nv<std::uint32_t> i(b->nvram(), "i");
    rt.trackGlobals(i.raw(), sizeof(std::uint32_t));
    const auto res = b->run(
        rt,
        [&] {
            while (i.get() < 40) {
                rt.triggerPoint();
                i = i.get() + 1;
                b->charge(500);
            }
        },
        10 * kNsPerSec);
    expectConservation(*b, res);
}

TEST(Telemetry, PhaseSumMatchesRunCyclesChinchilla)
{
    auto b = patternBoard(16 * kNsPerMs, 0.6);
    runtimes::ChinchillaRuntime rt;
    mem::nv<std::uint32_t> i(b->nvram(), "i");
    const auto res = b->run(
        rt,
        [&] {
            while (i.get() < 40) {
                rt.triggerPoint();
                i = i.get() + 1;
                b->charge(500);
            }
        },
        10 * kNsPerSec);
    expectConservation(*b, res);
}

TEST(Telemetry, PhaseSumMatchesRunCyclesHibernus)
{
    // Pattern supplies have no observable voltage, so Hibernus stays
    // inert — boot attribution and conservation must still hold.
    auto b = patternBoard(20 * kNsPerMs, 0.7);
    runtimes::HibernusRuntime rt(2.1);
    mem::nv<std::uint32_t> i(b->nvram(), "i");
    const auto res = b->run(
        rt,
        [&] {
            while (i.get() < 30) {
                i = i.get() + 1;
                b->charge(300);
            }
        },
        10 * kNsPerSec);
    expectConservation(*b, res);
}

TEST(Telemetry, PhaseSumMatchesRunCyclesTaskRuntime)
{
    auto b = patternBoard(16 * kNsPerMs, 0.6);
    taskrt::TaskRuntime rt;
    taskrt::Channel<std::uint32_t> ch(rt, b->nvram(), "n");
    taskrt::TaskId self = 0;
    self = rt.addTask("count", [&]() -> taskrt::TaskId {
        ch.set(ch.get() + 1);
        b->charge(600);
        return ch.get() >= 30 ? taskrt::kTaskDone : self;
    });
    const auto res = b->run(rt, {}, 10 * kNsPerSec);
    expectConservation(*b, res);
    EXPECT_GT(b->profiler().phaseCycles(Phase::Checkpoint), 0u);
}

// ---- phase breakdown + event timeline of an intermittent TICS run ----------

TEST(Telemetry, TicsPatternRunAttributesAllRuntimePhases)
{
    auto b = patternBoard(12 * kNsPerMs, 0.55);
    tics::TicsConfig cfg;
    cfg.segmentBytes = 128;
    cfg.policy = tics::PolicyKind::Timer;
    cfg.timerPeriod = 2 * kNsPerMs;
    tics::TicsRuntime rt(cfg);
    mem::nv<std::uint32_t> i(b->nvram(), "i");
    const auto res = b->run(
        rt,
        [&] {
            board::FrameGuard fg(rt, 32);
            while (i.get() < 120) {
                rt.triggerPoint();
                (void)b->deviceNow();
                i = i.get() + 1;
                b->charge(700);
            }
        },
        30 * kNsPerSec);
    ASSERT_TRUE(res.completed);
    ASSERT_GT(res.reboots, 0u);
    expectConservation(*b, res);

    const auto &p = b->profiler();
    EXPECT_GT(p.phaseCycles(Phase::App), 0u);
    EXPECT_GT(p.phaseCycles(Phase::Checkpoint), 0u);
    EXPECT_GT(p.phaseCycles(Phase::Restore), 0u);
    EXPECT_GT(p.phaseCycles(Phase::UndoLog), 0u);
    EXPECT_GT(p.phaseCycles(Phase::Timekeeper), 0u);
    EXPECT_GT(p.phaseCycles(Phase::Boot), 0u);

    const auto events = b->events().snapshot();
    const auto count = [&](EventKind k) {
        return std::count_if(events.begin(), events.end(),
                             [&](const Event &e) { return e.kind == k; });
    };
    // One Boot per power-on (initial + each reboot), one BrownOut per
    // death, and at least one checkpoint commit and restore.
    EXPECT_EQ(count(EventKind::Boot),
              static_cast<std::ptrdiff_t>(res.reboots + 1));
    EXPECT_EQ(count(EventKind::BrownOut),
              static_cast<std::ptrdiff_t>(res.reboots));
    EXPECT_GT(count(EventKind::CheckpointCommit), 0);
    EXPECT_GT(count(EventKind::Restore), 0);

    // Instant events are emitted at the current virtual time, so they
    // arrive in timestamp order. (PhaseSlice records are exempt: a
    // slice is appended when its scope *closes* but stamped with its
    // start time, so it can legitimately sort before instants emitted
    // inside it.)
    TimeNs prev = 0;
    for (const auto &e : events) {
        if (e.kind == EventKind::PhaseSlice)
            continue;
        EXPECT_LE(prev, e.at);
        prev = e.at;
    }
}

// ---- Chrome trace export ---------------------------------------------------

TEST(Telemetry, ChromeTraceExportIsWellFormed)
{
    auto b = patternBoard(12 * kNsPerMs, 0.55);
    tics::TicsConfig cfg;
    cfg.segmentBytes = 128;
    cfg.policy = tics::PolicyKind::Timer;
    cfg.timerPeriod = 2 * kNsPerMs;
    tics::TicsRuntime rt(cfg);
    mem::nv<std::uint32_t> i(b->nvram(), "i");
    const auto res = b->run(
        rt,
        [&] {
            while (i.get() < 40) {
                rt.triggerPoint();
                i = i.get() + 1;
                b->charge(600);
            }
        },
        10 * kNsPerSec);
    ASSERT_TRUE(res.completed);

    std::ostringstream os;
    writeChromeTrace(os, b->events().snapshot(), "unit",
                     b->events().dropped());
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("checkpoint_commit"), std::string::npos);
    // Balanced braces/brackets (no dangling commas breaking structure
    // would still parse-fail in Perfetto; this is a cheap sanity net).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}
