#include "cuckoo_chinchilla.hpp"

// The per-file mode of ticsverify --source models no word versioning,
// so the table/cursor read-modify-writes below appear as WAR spans;
// the Chinchilla-like runtime double-buffers every tracked word, so
// none materialize. Expected, baselined in tools/ticslint.baseline.json.

namespace ticsim::apps {

CuckooChinchillaApp::CuckooChinchillaApp(board::Board &b,
                                         runtimes::ChinchillaRuntime &rt,
                                         CuckooParams p)
    : b_(b), rt_(rt), params_(p), table_(b.nvram(), "cfch.table"),
      keys_(b.nvram(), "cfch.keys"), i_(b.nvram(), "cfch.i"),
      lcgState_(b.nvram(), "cfch.lcg"),
      inserted_(b.nvram(), "cfch.inserted"),
      recovered_(b.nvram(), "cfch.recovered"),
      done_(b.nvram(), "cfch.done")
{
    TICSIM_ASSERT(p.slots() <= kMaxSlots && p.keys <= kMaxKeys);
    rt.footprint().add("cuckoo application", 2050,
                       static_cast<std::uint32_t>(p.slots() * 2 + 12));
    rt.footprint().add(
        "promoted locals (dual copy)", 0,
        2 * (p.keys * 4 + 4 + 4)); // key buffer + index + generator
    rt.footprint().add("per-site instrumentation", 9 * 46, 0);
}

void
CuckooChinchillaApp::main()
{
    rt_.triggerPoint();
    auto store = [this](std::uint16_t *slot, std::uint16_t v) {
        b_.charge(static_cast<Cycles>(6 * params_.workScale));
        rt_.store(slot, v);
    };
    auto load = [this](const std::uint16_t *slot) {
        return rt_.load(slot);
    };
    CuckooTable<decltype(store), decltype(load)> table(
        table_.raw(), params_.buckets, params_.maxKicks, store, load);

    lcgState_ = params_.seed;
    for (i_ = 0; i_.get() < params_.keys; i_ = i_.get() + 1) {
        rt_.triggerPoint();
        const std::uint32_t s =
            lcgState_.get() * 1664525u + 1013904223u;
        lcgState_ = s;
        keys_.set(i_.get(), s);
        b_.charge(static_cast<Cycles>(60 * params_.workScale));
        if (table.insert(s))
            inserted_ += 1;
    }

    for (i_ = 0; i_.get() < params_.keys; i_ = i_.get() + 1) {
        rt_.triggerPoint();
        b_.charge(static_cast<Cycles>(40 * params_.workScale));
        if (table.contains(keys_.get(i_.get())))
            recovered_ += 1;
    }
    done_ = 1;
}

bool
CuckooChinchillaApp::verify() const
{
    if (!golden_)
        golden_ = cuckooGolden(params_);
    return done() && inserted() == golden_->inserted &&
           recovered() == golden_->recovered;
}

} // namespace ticsim::apps
