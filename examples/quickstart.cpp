/**
 * @file
 * Quickstart: run an ordinary C function — pointers, recursion, global
 * state and all — on intermittently harvested power, unchanged except
 * for the instrumentation calls the TICS compiler passes would insert.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "board/board.hpp"
#include "board/runtime.hpp"
#include "mem/nv.hpp"
#include "tics/runtime.hpp"

using namespace ticsim;

namespace {

/** "Legacy" program state: non-volatile globals in FRAM. */
struct App {
    board::Board &b;
    tics::TicsRuntime &rt;
    mem::nv<std::uint64_t> checksum;
    mem::nv<std::uint32_t> rounds;

    App(board::Board &board, tics::TicsRuntime &runtime)
        : b(board), rt(runtime), checksum(board.nvram(), "app.checksum"),
          rounds(board.nvram(), "app.rounds")
    {
    }

    /** Plain recursive helper — the kind of code prior systems ban. */
    std::uint64_t
    sumDigits(std::uint64_t v)
    {
        board::FrameGuard fg(rt, 16);
        rt.triggerPoint();
        if (v < 10)
            return v;
        return (v % 10) + sumDigits(v / 10);
    }

    void
    main()
    {
        board::FrameGuard fg(rt, 24);
        for (std::uint32_t i = 0; i < 200; ++i) {
            rt.triggerPoint();
            std::uint64_t local = (i + 1) * 2654435761ULL;
            std::uint64_t *p = &local; // pointer into the stack
            rt.store(p, *p ^ (*p >> 13));
            // ticsverify --source reports these read-modify-writes as
            // WAR spans (the Surbatovich condition holds over the text); the
            // undo log versions the segment on first write, so they
            // are safe under TICS. Expected findings, baselined.
            checksum = checksum.get() + sumDigits(*p);
            rounds += 1;
            b.charge(400); // the rest of the loop body's work
        }
    }
};

} // namespace

int
main()
{
    // A board powered through a reset pattern: 12 ms of power, then
    // 18 ms dark, forever. No single burst fits the whole program.
    board::BoardConfig cfg;
    board::Board board(
        cfg, std::make_unique<energy::PatternSupply>(30 * kNsPerMs, 0.4),
        std::make_unique<timekeeper::PerfectTimekeeper>());

    tics::TicsConfig tcfg;
    tcfg.segmentBytes = 128;
    tcfg.policy = tics::PolicyKind::Timer;
    tcfg.timerPeriod = 5 * kNsPerMs;
    tics::TicsRuntime rt(tcfg);

    App app(board, rt);
    const auto res = board.run(rt, [&] { app.main(); }, 60 * kNsPerSec);

    std::printf("completed:   %s\n", res.completed ? "yes" : "no");
    std::printf("power fails: %llu\n",
                static_cast<unsigned long long>(res.reboots));
    std::printf("checkpoints: %llu\n",
                static_cast<unsigned long long>(rt.checkpointsTotal()));
    std::printf("rounds:      %u (expected 200)\n", app.rounds.get());
    std::printf("checksum:    %llu\n",
                static_cast<unsigned long long>(app.checksum.get()));
    std::printf("\nThe program crossed %llu power failures and still "
                "finished with consistent state.\n",
                static_cast<unsigned long long>(res.reboots));
    return res.completed && app.rounds.get() == 200 ? 0 : 1;
}
