#include "bc_legacy.hpp"

// ticsverify --source reports WAR spans on the counters in this file. Legacy
// code carries exactly the hazards the checkpointing runtimes exist
// to mask (plain-C materializes them dynamically), so the findings
// are expected and baselined in tools/ticslint.baseline.json.

namespace ticsim::apps {

BcLegacyApp::BcLegacyApp(board::Board &b, board::Runtime &rt, BcParams p)
    : b_(b), rt_(rt), params_(p),
      totalBits_(b.nvram(), "bc.totalBits"),
      mismatches_(b.nvram(), "bc.mismatches"),
      done_(b.nvram(), "bc.done")
{
    rt.footprint().add("bc application", 1750, 24);
    rt.trackGlobals(totalBits_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(mismatches_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(done_.raw(), sizeof(std::uint8_t));
}

int
BcLegacyApp::countAllMethods(std::uint32_t x)
{
    board::FrameGuard fg(rt_, 16);
    rt_.triggerPoint();

    int counts[7];
    counts[0] = bitcountOptimized(x);
    b_.charge(static_cast<Cycles>(34 * params_.workScale));
    counts[1] = bitcountRecursive(x); // real recursion on the stack
    {
        // The recursion's modeled frames: one per bit position.
        for (int d = 0; d < 32; ++d)
            rt_.frameEnter(12);
        for (int d = 0; d < 32; ++d)
            rt_.frameExit();
    }
    b_.charge(static_cast<Cycles>(96 * params_.workScale));
    counts[2] = bitcountNibbleLut(x);
    b_.charge(static_cast<Cycles>(26 * params_.workScale));
    counts[3] = bitcountByteLut(x);
    b_.charge(static_cast<Cycles>(18 * params_.workScale));
    counts[4] = bitcountShift(x);
    b_.charge(static_cast<Cycles>(70 * params_.workScale));
    counts[5] = bitcountKernighan(x);
    b_.charge(static_cast<Cycles>(30 * params_.workScale));
    counts[6] = bitcountSwar(x);
    b_.charge(static_cast<Cycles>(14 * params_.workScale));

    // Cross-verify the seven methods (the MiBench self-check).
    rt_.triggerPoint();
    for (int i = 1; i < 7; ++i) {
        if (counts[i] != counts[0])
            mismatches_ += 1;
    }
    return counts[0];
}

void
BcLegacyApp::main()
{
    board::FrameGuard fg(rt_, 24);
    Lcg lcg(params_.seed);
    for (std::uint32_t i = 0; i < params_.iterations; ++i) {
        rt_.triggerPoint();
        const std::uint32_t x = lcg.next();
        const int bits = countAllMethods(x);
        totalBits_ += static_cast<std::uint64_t>(bits);
    }
    done_ = 1;
}

std::uint64_t
BcLegacyApp::expectedTotal(const BcParams &p)
{
    Lcg lcg(p.seed);
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < p.iterations; ++i)
        total += static_cast<std::uint64_t>(bitcountSwar(lcg.next()));
    return total;
}

bool
BcLegacyApp::verify() const
{
    return done() && mismatches() == 0 &&
           totalBits() == expectedTotal(params_);
}

} // namespace ticsim::apps
