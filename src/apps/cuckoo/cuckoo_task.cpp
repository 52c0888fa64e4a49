#include "cuckoo_task.hpp"

namespace ticsim::apps {

CuckooTaskApp::CuckooTaskApp(board::Board &b, taskrt::TaskRuntime &rt,
                             CuckooParams p)
    : b_(b), rt_(rt), params_(p),
      table_(rt, b.nvram(), "cf.table"),
      keys_(rt, b.nvram(), "cf.keys"),
      i_(rt, b.nvram(), "cf.i"),
      lcgState_(rt, b.nvram(), "cf.lcg"),
      inserted_(rt, b.nvram(), "cf.inserted"),
      recovered_(rt, b.nvram(), "cf.recovered"),
      done_(rt, b.nvram(), "cf.done")
{
    TICSIM_ASSERT(p.slots() <= kMaxSlots && p.keys <= kMaxKeys);
    rt.footprint().add("cuckoo application", 2050, 12);

    tInit_ = rt_.addTask("init", [this]() -> taskrt::TaskId {
        table_.set(TableArray{});
        i_.set(0);
        lcgState_.set(params_.seed);
        inserted_.set(0);
        recovered_.set(0);
        return tInsert_;
    });

    tInsert_ = rt_.addTask("insert", [this]() -> taskrt::TaskId {
        const std::uint32_t idx = i_.get();
        const std::uint32_t key =
            lcgState_.get() * 1664525u + 1013904223u;
        lcgState_.set(key);
        auto keys = keys_.get();
        keys[idx] = key;
        keys_.set(keys);

        // Privatize the table, mutate it, publish at the transition.
        auto tbl = table_.get();
        auto store = [this](std::uint16_t *slot, std::uint16_t v) {
            b_.charge(static_cast<Cycles>(6 * params_.workScale));
            *slot = v;
        };
        CuckooTable<decltype(store)> table(tbl.data(), params_.buckets,
                                           params_.maxKicks, store);
        b_.charge(static_cast<Cycles>(60 * params_.workScale));
        if (table.insert(key))
            inserted_.set(inserted_.get() + 1);
        table_.set(tbl);

        const std::uint32_t next = idx + 1;
        i_.set(next);
        if (next >= params_.keys) {
            i_.set(0);
            return tQuery_;
        }
        return tInsert_;
    });

    tQuery_ = rt_.addTask("query", [this]() -> taskrt::TaskId {
        const std::uint32_t idx = i_.get();
        auto tbl = table_.get();
        auto store = [](std::uint16_t *, std::uint16_t) {};
        CuckooTable<decltype(store)> table(tbl.data(), params_.buckets,
                                           params_.maxKicks, store);
        b_.charge(static_cast<Cycles>(40 * params_.workScale));
        if (table.contains(keys_.get()[idx]))
            recovered_.set(recovered_.get() + 1);

        const std::uint32_t next = idx + 1;
        i_.set(next);
        if (next >= params_.keys) {
            done_.set(1);
            return taskrt::kTaskDone;
        }
        return tQuery_;
    });

    rt_.setInitial(tInit_);
}

bool
CuckooTaskApp::verify() const
{
    if (!golden_)
        golden_ = cuckooGolden(params_);
    return done() && inserted() == golden_->inserted &&
           recovered() == golden_->recovered;
}

} // namespace ticsim::apps
