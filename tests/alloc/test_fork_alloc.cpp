/**
 * @file
 * Allocation count of a fork: once a Snapshot has grown to a board's
 * state, capturing into it again and restoring from it allocate
 * nothing. The count comes from replacing the global allocation
 * functions, which would replace them for every test in a binary, so
 * this test is an executable of its own and the rest of the suite keeps
 * the sanitizers' allocators and their new/delete mismatch checks.
 */

#include <algorithm>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>

#include "board/board.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fork_rig.hpp"

using namespace ticsim;

namespace {

/** Heap allocations on this thread while an AllocationCount lives. */
constinit thread_local bool tCountAllocs = false;
constinit thread_local std::uint64_t tAllocs = 0;

/** Counts the calling thread's heap allocations over its lifetime. */
class AllocationCount
{
  public:
    AllocationCount() { tAllocs = 0; tCountAllocs = true; }
    ~AllocationCount() { tCountAllocs = false; }
    AllocationCount(const AllocationCount &) = delete;
    AllocationCount &operator=(const AllocationCount &) = delete;
    std::uint64_t allocations() const { return tAllocs; }
};

/** malloc, counted for AllocationCount; null on failure. */
void *
countedAlloc(std::size_t n) noexcept
{
    if (tCountAllocs)
        ++tAllocs;
    return std::malloc(n != 0 ? n : 1);
}

void *
countedAllocOrThrow(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every replaceable form but the over-aligned ones, so each allocation
// of this binary is counted and freed by the matching form here. The
// aligned forms stay the runtime's own, paired with each other.
void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

TEST(ForkReuse, SteadyStateCaptureAndRestoreAllocateNothing)
{
    // Once a Snapshot has grown to a board's state, capturing into it
    // again and restoring from it are plain copies.
    const fault::CampaignConfig cfg = testfork::smallConfig();
    for (const fault::PairSpec &spec : fault::campaignPairs(cfg)) {
        SCOPED_TRACE(spec.app + "/" + spec.runtime);
        const fault::PairRunOutcome ref =
            fault::runPairWithPlan(cfg, spec, fault::FaultPlan{});
        const std::uint64_t mid = std::max<std::uint64_t>(
            1, testfork::countedEvents(ref) / 2);

        testfork::ForkBoard rig(cfg, spec);
        board::Snapshot snap;
        fault::InjectorState state;
        std::uint64_t seen = 0;
        std::uint64_t captureAllocs = ~std::uint64_t{0};
        rig.inj.setHook([&](const fault::CountedEvent &) {
            if (++seen != mid)
                return;
            rig.fb.board.snapshot(snap);
            AllocationCount count;
            rig.fb.board.snapshot(snap);
            captureAllocs = count.allocations();
            state = rig.inj.state();
        });
        rig.fb.board.beginRun(*rig.env.runtime, rig.env.entry, cfg.budget);
        ASSERT_TRUE(rig.fb.board.continueRun().completed);
        rig.inj.setHook(nullptr);
        EXPECT_EQ(captureAllocs, 0u);

        std::uint64_t restoreAllocs = 0;
        {
            AllocationCount count;
            rig.fb.board.restore(snap);
            restoreAllocs = count.allocations();
        }
        EXPECT_EQ(restoreAllocs, 0u);
        rig.inj.setState(state);
        rig.fb.supply.noteForcedDeath();
        rig.fb.board.markInjectedDeath();
        rig.fb.board.continueRun();
    }
}

TEST(ForkReuse, AllocationCountSeesEveryForm)
{
    // The count would read 0 on any path whose allocations bypass it.
    // The volatile stores keep each allocation from being elided.
    AllocationCount count;
    int *volatile one = new int(1);
    delete one;
    int *volatile many = new int[4];
    delete[] many;
    int *volatile oneNothrow = new (std::nothrow) int(2);
    delete oneNothrow;
    int *volatile manyNothrow = new (std::nothrow) int[4];
    delete[] manyNothrow;
    EXPECT_EQ(count.allocations(), 4u);
}
