/**
 * @file
 * Tests for the perf subsystem (src/perf/): hot-path counter
 * conservation against the trace sink, cross-thread merge identity,
 * the profiler's disabled-mode zero-clock-read guarantee, exclusive
 * zone accounting, Welford merge identity for host profiles, and the
 * observation-only contract — simulated results are byte-identical
 * with the profiler on or off and for any job count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>

#include "mem/nv.hpp"
#include "mem/nvram.hpp"
#include "mem/trace.hpp"
#include "perf/counters.hpp"
#include "perf/host_profiler.hpp"
#include "sweep/job_pool.hpp"
#include "sweep/sweep.hpp"

namespace ticsim {
namespace {

/** Tallies deliveries so conservation can be checked exactly. */
class TallySink final : public mem::AccessSink
{
  public:
    void memRead(const void *, std::uint32_t) override { ++reads; }
    void memWrite(const void *, std::uint32_t) override { ++writes; }
    void memVersioned(const void *, std::uint32_t) override
    {
        ++versioned;
    }
    void powerOn() override { ++boots; }
    void commit() override { ++commits; }

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t versioned = 0;
    std::uint64_t boots = 0;
    std::uint64_t commits = 0;
};

// ---- counter field table ------------------------------------------------

TEST(PerfCounters, FieldTableIsExhaustiveAndUnique)
{
    int n = 0;
    const perf::CounterField *fields = perf::counterFields(n);
    // Every member is a uint64 and every member appears exactly once,
    // so the table size must match the struct size; this catches a
    // counter added to the struct but forgotten in the table.
    EXPECT_EQ(static_cast<std::size_t>(n) * sizeof(std::uint64_t),
              sizeof(perf::HotCounters));
    std::set<std::string> names;
    for (int i = 0; i < n; ++i)
        EXPECT_TRUE(names.insert(fields[i].name).second)
            << "duplicate name " << fields[i].name;
    // Setting every table entry must light up every word of the
    // struct: a duplicate member pointer would leave one dark.
    perf::HotCounters probe;
    for (int i = 0; i < n; ++i)
        probe.*(fields[i].field) = 1;
    std::uint64_t words[sizeof(perf::HotCounters) /
                        sizeof(std::uint64_t)];
    std::memcpy(words, &probe, sizeof(probe));
    for (std::size_t w = 0; w < std::size(words); ++w)
        EXPECT_EQ(words[w], 1u) << "word " << w << " not covered";
}

TEST(PerfCounters, AddAndDeltaArePointwise)
{
    int n = 0;
    const perf::CounterField *fields = perf::counterFields(n);
    perf::HotCounters a;
    perf::HotCounters b;
    for (int i = 0; i < n; ++i) {
        a.*(fields[i].field) = static_cast<std::uint64_t>(i) + 1;
        b.*(fields[i].field) = static_cast<std::uint64_t>(2 * i) + 5;
    }
    perf::HotCounters sum = a;
    sum.add(b);
    const perf::HotCounters diff = sum.delta(b);
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(sum.*(fields[i].field),
                  a.*(fields[i].field) + b.*(fields[i].field))
            << fields[i].name;
        EXPECT_EQ(diff.*(fields[i].field), a.*(fields[i].field))
            << fields[i].name;
    }
    // delta() saturates instead of wrapping when the snapshot is ahead.
    const perf::HotCounters clamped = a.delta(sum);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(clamped.*(fields[i].field), 0u) << fields[i].name;
}

// ---- conservation against the trace sink --------------------------------

TEST(PerfCounters, SinkConservation)
{
    mem::NvRam ram;
    mem::nv<std::uint64_t> x(ram, "perf.test.x");

    TallySink sink;
    mem::ScopedSink s(&sink);
    const perf::HotCounters before = perf::hot();

    constexpr std::uint64_t kStores = 1000;
    constexpr std::uint64_t kLoads = 300;
    for (std::uint64_t i = 0; i < kStores; ++i)
        x = i;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kLoads; ++i)
        acc += x;
    EXPECT_EQ(acc, kLoads * (kStores - 1));

    const perf::HotCounters d = perf::hot().delta(before);
    // Sink installed => counted NV traffic equals delivered events.
    EXPECT_EQ(d.nvStores, kStores);
    EXPECT_EQ(d.nvStores, sink.writes);
    EXPECT_EQ(d.nvLoads, kLoads);
    EXPECT_EQ(d.nvLoads, sink.reads);
    EXPECT_EQ(d.nvStoreBytes, kStores * sizeof(std::uint64_t));
    EXPECT_EQ(d.nvLoadBytes, kLoads * sizeof(std::uint64_t));
    // Every dispatch this scope made was delivered, none fast-pathed.
    EXPECT_EQ(d.sinkDispatches,
              sink.reads + sink.writes + sink.versioned + sink.boots +
                  sink.commits);
    EXPECT_EQ(d.sinkFastNull, 0u);
}

TEST(PerfCounters, FastPathCountsWithoutSink)
{
    mem::NvRam ram;
    mem::nv<std::uint64_t> x(ram, "perf.test.x");
    ASSERT_EQ(mem::detail::g_port.sink, nullptr);

    const perf::HotCounters before = perf::hot();
    constexpr std::uint64_t kStores = 500;
    for (std::uint64_t i = 0; i < kStores; ++i)
        x = i;
    const perf::HotCounters d = perf::hot().delta(before);
    EXPECT_EQ(d.nvStores, kStores);
    EXPECT_EQ(d.sinkDispatches, 0u);
    EXPECT_EQ(d.sinkFastNull, kStores);
}

// ---- cross-thread merge -------------------------------------------------

TEST(PerfCounters, MergedCountersEqualSerialTotal)
{
    constexpr std::size_t kJobs = 64;
    constexpr std::uint64_t kStoresPerJob = 100;

    const auto work = [](std::size_t) {
        mem::NvRam ram;
        mem::nv<std::uint64_t> x(ram, "perf.test.job");
        for (std::uint64_t i = 0; i < kStoresPerJob; ++i)
            x = i;
    };

    // Serial baseline: every store lands on this thread's block.
    perf::HotCounters before = perf::mergedCounters();
    {
        const sweep::JobPool pool(1);
        pool.run(kJobs, work);
    }
    const perf::HotCounters serial =
        perf::mergedCounters().delta(before);

    // Parallel: stores land on worker-thread blocks which are folded
    // into the retired aggregate when the pool's threads exit.
    before = perf::mergedCounters();
    {
        const sweep::JobPool pool(4);
        pool.run(kJobs, work);
    }
    const perf::HotCounters parallel =
        perf::mergedCounters().delta(before);

    EXPECT_EQ(serial.nvStores, kJobs * kStoresPerJob);
    EXPECT_EQ(parallel.nvStores, serial.nvStores);
    EXPECT_EQ(parallel.nvStoreBytes, serial.nvStoreBytes);
    EXPECT_EQ(serial.jobsExecuted, kJobs);
    EXPECT_EQ(parallel.jobsExecuted, kJobs);
}

// ---- host profiler ------------------------------------------------------

TEST(PerfProfiler, DisabledScopesReadNoClocks)
{
    perf::ScopedProfilerEnable off(false);
    ASSERT_FALSE(perf::profilerEnabled());

    const perf::HostProfiler before = perf::mergedProfiler();
    const std::uint64_t reads = perf::clockReads();
    for (int i = 0; i < 10'000; ++i) {
        perf::HostScope scope(perf::HostZone::Checkpoint);
        (void)scope;
    }
    // The disabled-mode overhead bound: zero steady-clock queries —
    // not a flaky wall-clock assertion.
    EXPECT_EQ(perf::clockReads(), reads);
    const perf::HostProfiler after = perf::mergedProfiler();
    for (int z = 0; z < perf::kHostZoneCount; ++z) {
        const auto zone = static_cast<perf::HostZone>(z);
        EXPECT_EQ(after.scopeCount(zone), before.scopeCount(zone))
            << perf::hostZoneName(zone);
    }
}

TEST(PerfProfiler, EnabledScopesSampleTheirZones)
{
    perf::ScopedProfilerEnable on;
    const perf::HostProfiler before = perf::mergedProfiler();
    const std::uint64_t reads = perf::clockReads();
    {
        perf::HostScope outer(perf::HostZone::Analysis);
        {
            perf::HostScope inner(perf::HostZone::CacheIo);
        }
    }
    const perf::HostProfiler after = perf::mergedProfiler();
    EXPECT_EQ(after.scopeCount(perf::HostZone::Analysis),
              before.scopeCount(perf::HostZone::Analysis) + 1);
    EXPECT_EQ(after.scopeCount(perf::HostZone::CacheIo),
              before.scopeCount(perf::HostZone::CacheIo) + 1);
    EXPECT_GT(perf::clockReads(), reads);
    // Exclusive accounting: both zone sums moved, and neither is
    // negative (the child's time is not double-charged to the parent).
    EXPECT_GE(after.zoneNs(perf::HostZone::Analysis),
              before.zoneNs(perf::HostZone::Analysis));
    EXPECT_GE(after.zoneNs(perf::HostZone::CacheIo),
              before.zoneNs(perf::HostZone::CacheIo));
}

TEST(PerfProfiler, MergeIsAdditivePerZone)
{
    perf::HostProfiler a;
    perf::HostProfiler b;
    a.sample(perf::HostZone::SimCore, 10.0);
    a.sample(perf::HostZone::SimCore, 30.0);
    a.sample(perf::HostZone::Report, 5.0);
    b.sample(perf::HostZone::SimCore, 20.0);
    b.sample(perf::HostZone::CacheIo, 7.0);

    perf::HostProfiler merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.scopeCount(perf::HostZone::SimCore), 3u);
    EXPECT_DOUBLE_EQ(merged.zoneNs(perf::HostZone::SimCore), 60.0);
    EXPECT_DOUBLE_EQ(merged.zone(perf::HostZone::SimCore).mean(), 20.0);
    EXPECT_EQ(merged.scopeCount(perf::HostZone::Report), 1u);
    EXPECT_EQ(merged.scopeCount(perf::HostZone::CacheIo), 1u);
    EXPECT_DOUBLE_EQ(merged.totalNs(), 72.0);
    // Merging an empty profile is the identity.
    perf::HostProfiler empty;
    perf::HostProfiler same = merged;
    same.merge(empty);
    EXPECT_DOUBLE_EQ(same.totalNs(), merged.totalNs());
    EXPECT_EQ(same.zone(perf::HostZone::SimCore).encode(),
              merged.zone(perf::HostZone::SimCore).encode());
}

TEST(PerfProfiler, ZoneNamesAreStableSnakeCase)
{
    std::set<std::string> names;
    for (int z = 0; z < perf::kHostZoneCount; ++z) {
        const std::string name =
            perf::hostZoneName(static_cast<perf::HostZone>(z));
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
        for (char ch : name)
            EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_')
                << name;
    }
    EXPECT_EQ(names.count("sim_core"), 1u);
    EXPECT_EQ(names.count("cache_io"), 1u);
}

// ---- observation-only: results are identical with observers live --------

sweep::SweepConfig
perfSweepConfig()
{
    sweep::SweepConfig cfg;
    cfg.grid.apps = {"BC"};
    cfg.grid.runtimes = {"TICS"};
    cfg.grid.seeds = {11, 12};
    cfg.useCache = false;
    return cfg;
}

void
expectSameCells(const sweep::SweepResult &a, const sweep::SweepResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].cell.canonical(),
                  b.cells[i].cell.canonical());
        EXPECT_EQ(a.cells[i].result.encode(),
                  b.cells[i].result.encode());
        EXPECT_EQ(a.cells[i].result.simMs.encode(),
                  b.cells[i].result.simMs.encode());
    }
}

TEST(PerfObservation, ResultsIdenticalWithProfilerOnOrOff)
{
    auto cfg = perfSweepConfig();
    cfg.jobs = 1;

    sweep::SweepResult off;
    {
        perf::ScopedProfilerEnable disable(false);
        off = sweep::runSweep(cfg);
    }
    sweep::SweepResult on;
    {
        perf::ScopedProfilerEnable enable;
        on = sweep::runSweep(cfg);
    }
    expectSameCells(off, on);
}

TEST(PerfObservation, ResultsIdenticalForAnyJobCountWithProfilerOn)
{
    auto cfg = perfSweepConfig();
    perf::ScopedProfilerEnable enable;
    cfg.jobs = 1;
    const auto serial = sweep::runSweep(cfg);
    cfg.jobs = 4;
    const auto parallel = sweep::runSweep(cfg);
    expectSameCells(serial, parallel);
}

} // namespace
} // namespace ticsim
