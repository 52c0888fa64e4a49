/**
 * @file
 * Per-thread perf state, the cross-thread registry, and the HostScope
 * timing machinery. See counters.hpp / host_profiler.hpp for the
 * contracts.
 */

#include "perf/counters.hpp"
#include "perf/host_profiler.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

namespace ticsim::perf {

namespace {

/** Everything one thread accumulates, reached via one TLS pointer. */
struct ThreadState {
    HotCounters hot;
    HostProfiler prof;

    struct Frame {
        HostZone zone = HostZone::SimCore;
        double exclusiveNs = 0.0;
    };
    Frame stack[HostScope::kMaxDepth];
    std::uint32_t depth = 0;
    std::uint64_t lastStamp = 0;
};

/**
 * Process-wide roster of live thread states plus the folded totals of
 * threads that already exited. Leaked on purpose: worker-thread TLS
 * destructors must be able to flush into it at any point of process
 * shutdown without racing static destruction.
 */
struct Registry {
    std::mutex m;
    std::vector<ThreadState *> live;
    HotCounters retiredHot;
    HostProfiler retiredProf;
};

Registry &
registry()
{
    static Registry *r = new Registry; // intentionally leaked
    return *r;
}

thread_local ThreadState *g_state = nullptr;

/** Owns the thread's state for TLS-destructor flushing. */
struct ThreadHolder {
    ThreadState *state = nullptr;

    ~ThreadHolder()
    {
        if (!state)
            return;
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.m);
        r.retiredHot.add(state->hot);
        r.retiredProf.merge(state->prof);
        for (auto it = r.live.begin(); it != r.live.end(); ++it) {
            if (*it == state) {
                r.live.erase(it);
                break;
            }
        }
        delete state;
        g_state = nullptr;
        detail::g_hot = nullptr;
    }
};

ThreadState &
threadState()
{
    if (g_state)
        return *g_state;
    thread_local ThreadHolder holder;
    holder.state = new ThreadState;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.m);
        r.live.push_back(holder.state);
    }
    g_state = holder.state;
    detail::g_hot = &holder.state->hot;
    return *holder.state;
}

std::atomic<bool> g_profEnabled{false};
std::atomic<std::uint64_t> g_clockReads{0};

std::uint64_t
clockNowNs()
{
    g_clockReads.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

constexpr CounterField kCounterFields[] = {
    {"nv_loads", &HotCounters::nvLoads},
    {"nv_load_bytes", &HotCounters::nvLoadBytes},
    {"nv_stores", &HotCounters::nvStores},
    {"nv_store_bytes", &HotCounters::nvStoreBytes},
    {"nv_versioned", &HotCounters::nvVersioned},
    {"nv_versioned_bytes", &HotCounters::nvVersionedBytes},
    {"sink_dispatches", &HotCounters::sinkDispatches},
    {"sink_fast_null", &HotCounters::sinkFastNull},
    {"gate_dispatches", &HotCounters::gateDispatches},
    {"gate_fast_null", &HotCounters::gateFastNull},
    {"hook_dispatches", &HotCounters::hookDispatches},
    {"hook_fast_null", &HotCounters::hookFastNull},
    {"undo_records_sealed", &HotCounters::undoRecordsSealed},
    {"undo_bytes_sealed", &HotCounters::undoBytesSealed},
    {"undo_records_rolled_back", &HotCounters::undoRecordsRolledBack},
    {"undo_records_corrupt", &HotCounters::undoRecordsCorrupt},
    {"ckpt_commits", &HotCounters::ckptCommits},
    {"ckpt_bytes_moved", &HotCounters::ckptBytesMoved},
    {"ckpt_restores", &HotCounters::ckptRestores},
    {"ckpt_restore_bytes", &HotCounters::ckptRestoreBytes},
    {"event_pushes", &HotCounters::eventPushes},
    {"event_drops", &HotCounters::eventDrops},
    {"jobs_executed", &HotCounters::jobsExecuted},
    {"job_steals", &HotCounters::jobSteals},
    {"supply_drains", &HotCounters::supplyDrains},
};

} // namespace

// ---- counters ----------------------------------------------------------

namespace detail {

constinit thread_local HotCounters *g_hot = nullptr;

HotCounters &
registerThreadCounters()
{
    return threadState().hot;
}

} // namespace detail

void
HotCounters::add(const HotCounters &o)
{
    int n = 0;
    const CounterField *fields = counterFields(n);
    for (int i = 0; i < n; ++i)
        this->*(fields[i].field) += o.*(fields[i].field);
}

HotCounters
HotCounters::delta(const HotCounters &before) const
{
    HotCounters d;
    int n = 0;
    const CounterField *fields = counterFields(n);
    for (int i = 0; i < n; ++i) {
        const std::uint64_t now = this->*(fields[i].field);
        const std::uint64_t then = before.*(fields[i].field);
        d.*(fields[i].field) = now >= then ? now - then : 0;
    }
    return d;
}

const CounterField *
counterFields(int &countOut)
{
    countOut = static_cast<int>(std::size(kCounterFields));
    return kCounterFields;
}

HotCounters
mergedCounters()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    HotCounters out = r.retiredHot;
    for (const ThreadState *st : r.live)
        out.add(st->hot);
    return out;
}

// ---- profiler ----------------------------------------------------------

const char *
hostZoneName(HostZone z)
{
    switch (z) {
      case HostZone::SimCore:    return "sim_core";
      case HostZone::Checkpoint: return "checkpoint";
      case HostZone::Restore:    return "restore";
      case HostZone::Analysis:   return "analysis";
      case HostZone::CacheIo:    return "cache_io";
      case HostZone::Aggregate:  return "aggregate";
      case HostZone::Report:     return "report";
    }
    return "?";
}

double
HostProfiler::totalNs() const
{
    double total = 0.0;
    for (const Distribution &d : zones_)
        total += d.sum();
    return total;
}

void
HostProfiler::merge(const HostProfiler &other)
{
    for (int z = 0; z < kHostZoneCount; ++z)
        zones_[z].merge(other.zones_[z]);
}

void
HostProfiler::reset()
{
    for (Distribution &d : zones_)
        d.reset();
}

bool
setProfilerEnabled(bool on)
{
    return g_profEnabled.exchange(on, std::memory_order_relaxed);
}

bool
profilerEnabled()
{
    return g_profEnabled.load(std::memory_order_relaxed);
}

std::uint64_t
clockReads()
{
    return g_clockReads.load(std::memory_order_relaxed);
}

HostProfiler
mergedProfiler()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    HostProfiler out = r.retiredProf;
    for (const ThreadState *st : r.live)
        out.merge(st->prof);
    return out;
}

HostScope::HostScope(HostZone z)
    : active_(profilerEnabled())
{
    if (!active_)
        return;
    ThreadState &st = threadState();
    const std::uint64_t now = clockNowNs();
    // Charge the slice since the last boundary to the enclosing zone:
    // exclusive accounting, like PhaseProfiler's innermost-scope-wins.
    if (st.depth > 0 && st.depth <= kMaxDepth) {
        st.stack[st.depth - 1].exclusiveNs +=
            static_cast<double>(now - st.lastStamp);
    }
    if (st.depth < kMaxDepth)
        st.stack[st.depth] = ThreadState::Frame{z, 0.0};
    ++st.depth; // beyond kMaxDepth: counted for symmetry, not timed
    st.lastStamp = now;
}

HostScope::~HostScope()
{
    if (!active_)
        return;
    ThreadState &st = threadState();
    const std::uint64_t now = clockNowNs();
    --st.depth;
    if (st.depth < kMaxDepth) {
        ThreadState::Frame &f = st.stack[st.depth];
        f.exclusiveNs += static_cast<double>(now - st.lastStamp);
        st.prof.sample(f.zone, f.exclusiveNs);
    }
    st.lastStamp = now;
}

} // namespace ticsim::perf
