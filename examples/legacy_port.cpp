/**
 * @file
 * Porting "impossible" legacy code: in-place quicksort — deep data-
 * dependent recursion, pointer arithmetic into a FRAM array, swaps
 * through aliased pointers. Task-based systems cannot express this
 * and Chinchilla cannot compile it; under TICS it runs to a correct
 * sort across dozens of power failures with no structural changes.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "board/board.hpp"
#include "board/runtime.hpp"
#include "mem/nv.hpp"
#include "tics/runtime.hpp"

using namespace ticsim;

namespace {

constexpr std::uint32_t kN = 96;

struct App {
    board::Board &b;
    tics::TicsRuntime &rt;
    mem::nvArray<std::int32_t, kN> data;
    mem::nv<std::uint8_t> done;

    App(board::Board &board, tics::TicsRuntime &runtime)
        : b(board), rt(runtime), data(board.nvram(), "sort.data"),
          done(board.nvram(), "sort.done")
    {
        // Deterministic scrambled input. ticsverify --source models raw() as a
        // read+write of sort.data, so this seeding loop shows up as a
        // WAR span; expected, baselined.
        std::uint32_t s = 0xBEEF;
        for (std::uint32_t i = 0; i < kN; ++i) {
            s = s * 1664525u + 1013904223u;
            data.raw()[i] = static_cast<std::int32_t>(s % 1000u);
        }
    }

    void
    quicksort(std::int32_t *lo, std::int32_t *hi)
    {
        board::FrameGuard fg(rt, 28);
        rt.triggerPoint();
        if (lo >= hi)
            return;
        std::int32_t *mid = lo + (hi - lo) / 2;
        const std::int32_t pivot = *mid;
        std::int32_t *i = lo;
        std::int32_t *j = hi;
        while (i <= j) {
            // Loop-latch trigger: the instrumentation pass inserts one
            // at every back edge, so the timer policy can checkpoint
            // inside long-running loops (without it, the first
            // partition of a large array outlives every power burst
            // and the program starves — try removing it).
            rt.triggerPoint();
            b.charge(12);
            // ticsverify --source reports the two pointer scans below as
            // unsegmented loops: the bound heuristic cannot see that
            // the pivot terminates them, and the latch trigger above
            // sits outside their bodies. Expected, baselined.
            while (*i < pivot) {
                ++i;
                b.charge(4);
            }
            while (*j > pivot) {
                --j;
                b.charge(4);
            }
            if (i <= j) {
                // Pointer swaps into FRAM: instrumented stores.
                const std::int32_t t = *i;
                rt.store(i, *j);
                rt.store(j, t);
                ++i;
                --j;
            }
        }
        quicksort(lo, j);
        quicksort(i, hi);
    }

    void
    main()
    {
        board::FrameGuard fg(rt, 24);
        quicksort(data.raw(), data.raw() + kN - 1);
        done = 1;
    }
};

} // namespace

int
main()
{
    board::BoardConfig cfg;
    board::Board board(
        cfg, std::make_unique<energy::PatternSupply>(20 * kNsPerMs, 0.5),
        std::make_unique<timekeeper::PerfectTimekeeper>());
    tics::TicsConfig tcfg;
    tcfg.segmentBytes = 192;
    tcfg.segmentCount = 32;
    tcfg.policy = tics::PolicyKind::Timer;
    tcfg.timerPeriod = 5 * kNsPerMs;
    tics::TicsRuntime rt(tcfg);

    App app(board, rt);
    const auto res = board.run(rt, [&] { app.main(); }, 60 * kNsPerSec);

    std::vector<std::int32_t> result(app.data.raw(),
                                     app.data.raw() + kN);
    const bool sorted = std::is_sorted(result.begin(), result.end());

    std::printf("quicksort of %u FRAM ints: %s\n", kN,
                sorted && app.done.get() ? "SORTED" : "FAILED");
    std::printf("power failures survived: %llu\n",
                static_cast<unsigned long long>(res.reboots));
    std::printf("checkpoints taken:       %llu (bounded at one stack "
                "segment each)\n",
                static_cast<unsigned long long>(rt.checkpointsTotal()));
    std::printf("first/last elements:     %d ... %d\n", result.front(),
                result.back());
    return sorted ? 0 : 1;
}
