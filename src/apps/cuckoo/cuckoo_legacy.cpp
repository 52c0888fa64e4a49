#include "cuckoo_legacy.hpp"

#include "apps/common/dsp.hpp"

// ticsverify --source reports WAR spans on the filter table and counters —
// expected for the unmodified legacy variant (this is the app with
// the densest dynamic WAR record under plain-C) and baselined in
// tools/ticslint.baseline.json.

namespace ticsim::apps {

CuckooLegacyApp::CuckooLegacyApp(board::Board &b, board::Runtime &rt,
                                 CuckooParams p)
    : b_(b), rt_(rt), params_(p), table_(b.nvram(), "cf.table"),
      inserted_(b.nvram(), "cf.inserted"),
      recovered_(b.nvram(), "cf.recovered"),
      done_(b.nvram(), "cf.done")
{
    TICSIM_ASSERT(p.slots() <= kMaxSlots);
    rt.footprint().add("cuckoo application", 2050,
                       static_cast<std::uint32_t>(p.slots() * 2 + 12));
    rt.trackGlobals(table_.raw(), kMaxSlots * sizeof(std::uint16_t));
    rt.trackGlobals(inserted_.raw(), sizeof(std::uint32_t));
    rt.trackGlobals(recovered_.raw(), sizeof(std::uint32_t));
    rt.trackGlobals(done_.raw(), sizeof(std::uint8_t));
}

void
CuckooLegacyApp::main()
{
    board::FrameGuard fg(rt_, 24);

    // Instrumented pointer stores into the FRAM table: the runtime
    // classifies the target and undo-logs it (TICS) or does nothing
    // (plain C), exactly like the paper's pointer-write thunks.
    auto store = [this](std::uint16_t *slot, std::uint16_t v) {
        b_.charge(static_cast<Cycles>(6 * params_.workScale));
        rt_.store(slot, v);
    };
    // Pointer loads from the FRAM table go through the instrumented
    // load path so the consistency checker sees the read set too.
    auto load = [this](const std::uint16_t *slot) {
        return rt_.load(slot);
    };
    CuckooTable<decltype(store), decltype(load)> table(
        table_.raw(), params_.buckets, params_.maxKicks, store, load);

    Lcg lcg(params_.seed);
    std::uint32_t keys[256];
    TICSIM_ASSERT(params_.keys <= 256);

    for (std::uint32_t i = 0; i < params_.keys; ++i) {
        board::FrameGuard ifg(rt_, 20);
        rt_.triggerPoint();
        const std::uint32_t k = lcg.next();
        keys[i] = k;
        b_.charge(static_cast<Cycles>(60 * params_.workScale));
        if (table.insert(k))
            inserted_ += 1;
    }

    for (std::uint32_t i = 0; i < params_.keys; ++i) {
        board::FrameGuard qfg(rt_, 16);
        rt_.triggerPoint();
        b_.charge(static_cast<Cycles>(40 * params_.workScale));
        if (table.contains(keys[i]))
            recovered_ += 1;
    }
    done_ = 1;
}

bool
CuckooLegacyApp::verify() const
{
    if (!golden_)
        golden_ = cuckooGolden(params_);
    return done() && inserted() == golden_->inserted &&
           recovered() == golden_->recovered;
}

} // namespace ticsim::apps
