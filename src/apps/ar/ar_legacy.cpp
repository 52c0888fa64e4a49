#include "ar_legacy.hpp"

// ticsverify --source reports WAR spans on the class counters in this file —
// expected for the unmodified legacy variant (plain-C materializes
// them; checkpointing runtimes mask them) and baselined in
// tools/ticslint.baseline.json.

namespace ticsim::apps {

ArLegacyApp::ArLegacyApp(board::Board &b, board::Runtime &rt, ArParams p)
    : b_(b), rt_(rt), params_(p), model_(b.nvram(), "ar.model"),
      stationary_(b.nvram(), "ar.stationary"),
      moving_(b.nvram(), "ar.moving"), done_(b.nvram(), "ar.done")
{
    rt.footprint().add("ar application", 2300,
                       static_cast<std::uint32_t>(sizeof(ArModel) + 12));
    rt.trackGlobals(model_.raw(), sizeof(ArModel));
    rt.trackGlobals(stationary_.raw(), sizeof(std::uint32_t));
    rt.trackGlobals(moving_.raw(), sizeof(std::uint32_t));
    rt.trackGlobals(done_.raw(), sizeof(std::uint8_t));
}

ArFeatures
ArLegacyApp::featurize(const std::int16_t *mag)
{
    board::FrameGuard fg(rt_, 16);
    rt_.triggerPoint();
    b_.charge(static_cast<Cycles>(
        (30 + 14 * params_.windowSize) * params_.workScale));
    return arFeaturize(mag, params_.windowSize);
}

void
ArLegacyApp::main()
{
    board::FrameGuard fg(rt_, 20);
    std::int16_t window[kArMaxWindow];

    // Training phase: one stored window per class.
    {
        board::FrameGuard tfg(rt_, 16);
        rt_.triggerPoint();
        ArModel m;
        arGenWindow(params_.seed, 0, params_.windowSize, window);
        b_.charge(static_cast<Cycles>(
            8 * params_.windowSize * params_.workScale));
        m.centroid[0] = featurize(window);
        arGenWindow(params_.seed, 1, params_.windowSize, window);
        b_.charge(static_cast<Cycles>(
            8 * params_.windowSize * params_.workScale));
        m.centroid[1] = featurize(window);
        model_ = m;
    }

    // Recognition phase.
    for (std::uint32_t w = 2; w < 2 + params_.windows; ++w) {
        board::FrameGuard wfg(rt_, 20);
        rt_.triggerPoint();
        arGenWindow(params_.seed, w, params_.windowSize, window);
        b_.charge(static_cast<Cycles>(
            8 * params_.windowSize * params_.workScale));
        const ArFeatures f = featurize(window);
        const ArModel m = model_.get();
        b_.charge(static_cast<Cycles>(48 * params_.workScale));
        if (classify(m, f) == 0)
            stationary_ += 1;
        else
            moving_ += 1;
    }
    done_ = 1;
}

bool
ArLegacyApp::verify() const
{
    const auto e = arGolden(params_);
    return done() && stationary() == e.stationary &&
           moving() == e.moving;
}

} // namespace ticsim::apps
