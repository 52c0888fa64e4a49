#include "ar_chinchilla.hpp"

// The per-file mode of ticsverify --source models no word versioning,
// so the windowed state updates below appear as WAR spans (plus one
// data-dependent loop the bound heuristic cannot close); the
// Chinchilla-like runtime double-buffers every tracked word, so none
// materialize. Expected, baselined in tools/ticslint.baseline.json.

namespace ticsim::apps {

ArChinchillaApp::ArChinchillaApp(board::Board &b,
                                 runtimes::ChinchillaRuntime &rt,
                                 ArParams p)
    : b_(b), rt_(rt), params_(p), window_(b.nvram(), "arch.window"),
      w_(b.nvram(), "arch.w"), model_(b.nvram(), "arch.model"),
      stationary_(b.nvram(), "arch.stationary"),
      moving_(b.nvram(), "arch.moving"), done_(b.nvram(), "arch.done")
{
    rt.footprint().add("ar application", 2300,
                       static_cast<std::uint32_t>(sizeof(ArModel) + 12));
    rt.footprint().add("promoted locals (dual copy)", 0,
                       2 * (kArMaxWindow * 2 + 4 + 4));
    rt.footprint().add("per-site instrumentation", 11 * 46, 0);
}

void
ArChinchillaApp::main()
{
    rt_.triggerPoint();
    std::int16_t buf[kArMaxWindow];

    auto loadWindow = [&](std::uint32_t w) {
        arGenWindow(params_.seed, w, params_.windowSize, buf);
        b_.charge(static_cast<Cycles>(
            8 * params_.windowSize * params_.workScale));
        // Every promoted-buffer element write pays versioning.
        for (std::uint32_t i = 0; i < params_.windowSize; ++i)
            window_.set(i, buf[i]);
    };
    auto features = [&]() {
        rt_.triggerPoint();
        b_.charge(static_cast<Cycles>(
            (30 + 14 * params_.windowSize) * params_.workScale));
        return arFeaturize(window_.raw(), params_.windowSize);
    };

    ArModel m;
    loadWindow(0);
    m.centroid[0] = features();
    loadWindow(1);
    m.centroid[1] = features();
    model_ = m;

    for (w_ = 2; w_.get() < 2 + params_.windows; w_ = w_.get() + 1) {
        rt_.triggerPoint();
        loadWindow(w_.get());
        const ArFeatures f = features();
        b_.charge(static_cast<Cycles>(48 * params_.workScale));
        if (classify(model_.get(), f) == 0)
            stationary_ += 1;
        else
            moving_ += 1;
    }
    done_ = 1;
}

bool
ArChinchillaApp::verify() const
{
    const auto e = arGolden(params_);
    return done() && stationary() == e.stationary &&
           moving() == e.moving;
}

} // namespace ticsim::apps
