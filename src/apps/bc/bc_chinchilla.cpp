#include "bc_chinchilla.hpp"

// The per-file mode of ticsverify --source models no word versioning,
// so the read-modify-writes on the ported state below appear as WAR
// spans; Chinchilla-like double-buffers every tracked word, so they
// never materialize. Expected, baselined in tools/ticslint.baseline.json.

namespace ticsim::apps {

BcChinchillaApp::BcChinchillaApp(board::Board &b,
                                 runtimes::ChinchillaRuntime &rt,
                                 BcParams p)
    : b_(b), rt_(rt), params_(p),
      i_(b.nvram(), "bcch.i"),
      lcgState_(b.nvram(), "bcch.lcg"),
      x_(b.nvram(), "bcch.x"),
      totalBits_(b.nvram(), "bcch.totalBits"),
      mismatches_(b.nvram(), "bcch.mismatches"),
      done_(b.nvram(), "bcch.done")
{
    // Promotion explosion: each promoted local is double-buffered in
    // the versioning store (Table 3 .data growth).
    rt.footprint().add("bc application", 1750, 24);
    rt.footprint().add("promoted locals (dual copy)", 0,
                       2 * (4 + 4 + 4 + 8 + 8 + 1));
    rt.footprint().add("per-site instrumentation", 6 * 46, 0);
}

void
BcChinchillaApp::main()
{
    rt_.triggerPoint();
    lcgState_ = params_.seed;
    for (i_ = 0; i_.get() < params_.iterations; i_ = i_.get() + 1) {
        rt_.triggerPoint();
        lcgState_ = lcgState_.get() * 1664525u + 1013904223u;
        x_ = lcgState_.get();
        const std::uint32_t x = x_.get();

        int counts[6];
        counts[0] = bitcountOptimized(x);
        b_.charge(static_cast<Cycles>(34 * params_.workScale));
        // No recursive method: inexpressible after promotion.
        counts[1] = bitcountNibbleLut(x);
        b_.charge(static_cast<Cycles>(26 * params_.workScale));
        counts[2] = bitcountByteLut(x);
        b_.charge(static_cast<Cycles>(18 * params_.workScale));
        counts[3] = bitcountShift(x);
        b_.charge(static_cast<Cycles>(70 * params_.workScale));
        counts[4] = bitcountKernighan(x);
        b_.charge(static_cast<Cycles>(30 * params_.workScale));
        counts[5] = bitcountSwar(x);
        b_.charge(static_cast<Cycles>(14 * params_.workScale));

        rt_.triggerPoint();
        for (int m = 1; m < 6; ++m) {
            if (counts[m] != counts[0])
                mismatches_ += 1;
        }
        totalBits_ += static_cast<std::uint64_t>(counts[0]);
    }
    done_ = 1;
}

bool
BcChinchillaApp::verify() const
{
    return done() && mismatches() == 0 &&
           totalBits() == BcLegacyApp::expectedTotal(params_);
}

} // namespace ticsim::apps
