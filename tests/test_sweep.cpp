/**
 * @file
 * Tests for the ticssweep subsystem: the work-stealing JobPool, grid
 * enumeration and JobId stability, parallel Welford merging, the
 * content-addressed result cache, cross-thread isolation of the
 * trace hooks, and the sweep engine's determinism contract (identical
 * results for any job count and any cache state).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/bc/bc_legacy.hpp"
#include "harness/experiment.hpp"
#include "mem/trace.hpp"
#include "support/stats.hpp"
#include "sweep/cache.hpp"
#include "sweep/grid.hpp"
#include "sweep/job_pool.hpp"
#include "sweep/sweep.hpp"
#include "tics/runtime.hpp"

namespace ticsim {
namespace {

// ---- JobPool -----------------------------------------------------------

TEST(JobPool, RunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 257;
    const auto hits = std::make_unique<std::atomic<int>[]>(kCount);
    const sweep::JobPool pool(4);
    pool.run(kCount, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(JobPool, SingleJobRunsInline)
{
    const auto caller = std::this_thread::get_id();
    const sweep::JobPool pool(1);
    std::size_t ran = 0;
    pool.run(5, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++ran;
    });
    EXPECT_EQ(ran, 5u);
}

TEST(JobPool, PropagatesFirstException)
{
    const sweep::JobPool pool(4);
    EXPECT_THROW(pool.run(64,
                          [&](std::size_t i) {
                              if (i == 13)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
}

TEST(JobPool, ZeroCountIsANoop)
{
    const sweep::JobPool pool(4);
    bool ran = false;
    pool.run(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(JobPool, DefaultJobsIsPositive)
{
    EXPECT_GE(sweep::JobPool::defaultJobs(), 1u);
    EXPECT_GE(sweep::JobPool(0).jobs(), 1u);
}

// ---- grid enumeration --------------------------------------------------

/** Independent FNV-1a reimplementation pinning the hash function. */
std::uint64_t
refFnv(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

TEST(Grid, CanonicalStringAndJobIdAreStable)
{
    sweep::Cell c;
    c.app = "AR";
    c.runtime = "TICS";
    c.segmentBytes = 256;
    c.seed = 11;
    // The exact canonical rendering is a persistence format (cache
    // keys, report job_ids): changing it invalidates every cache and
    // must be deliberate.
    EXPECT_EQ(c.canonical(),
              "app=AR|rt=TICS|supply=pattern:30:0.59999999999999998"
              "|cap_uf=0|seg=256|seed=11");
    EXPECT_EQ(c.jobId(), refFnv(c.canonical()));
    EXPECT_EQ(c.groupKey(),
              "app=AR|rt=TICS|supply=pattern:30:0.59999999999999998"
              "|cap_uf=0|seg=256");
    EXPECT_EQ(c.jobIdHex().size(), 16u);
}

TEST(Grid, SeedChangesJobIdButNotGroupKey)
{
    sweep::Cell a;
    a.app = "BC";
    a.runtime = "TICS";
    a.segmentBytes = 256;
    a.seed = 11;
    sweep::Cell b = a;
    b.seed = 12;
    EXPECT_NE(a.jobId(), b.jobId());
    EXPECT_EQ(a.groupKey(), b.groupKey());
}

TEST(Grid, NormalizationCollapsesIrrelevantAxes)
{
    sweep::GridSpec spec;
    spec.apps = {"BC"};
    spec.runtimes = {"plain-C"};
    spec.segments = {128, 256, 512};
    spec.capsUf = {0.0, 47.0};
    spec.seeds = {11};
    // Segment size is TICS-only and capacitance is harvested-only, so
    // the 3x2 sub-grid collapses into one plain-C cell.
    EXPECT_EQ(spec.cells().size(), 1u);

    spec.runtimes = {"TICS"};
    const auto cells = spec.cells();
    EXPECT_EQ(cells.size(), 3u);
    for (const auto &c : cells)
        EXPECT_EQ(c.capUf, 0.0);
}

TEST(Grid, EnumerationOrderIsCanonical)
{
    sweep::GridSpec a;
    a.apps = {"AR", "BC", "CF"};
    a.runtimes = {"TICS", "plain-C"};
    a.seeds = {11, 12};
    sweep::GridSpec b;
    b.apps = {"CF", "BC", "AR"};
    b.runtimes = {"plain-C", "TICS"};
    b.seeds = {12, 11};

    const auto ca = a.cells();
    const auto cb = b.cells();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i)
        EXPECT_EQ(ca[i].canonical(), cb[i].canonical());
    for (std::size_t i = 1; i < ca.size(); ++i)
        EXPECT_LE(ca[i - 1].jobId(), ca[i].jobId());
}

TEST(Grid, ParseSupplyTokens)
{
    sweep::SupplyAxis a;
    EXPECT_TRUE(sweep::parseSupplyToken("continuous", a));
    EXPECT_EQ(a.kind, sweep::SupplyKind::Continuous);
    EXPECT_TRUE(sweep::parseSupplyToken("pattern:25:0.5", a));
    EXPECT_EQ(a.kind, sweep::SupplyKind::Pattern);
    EXPECT_DOUBLE_EQ(a.periodMs, 25.0);
    EXPECT_DOUBLE_EQ(a.onFraction, 0.5);
    EXPECT_TRUE(sweep::parseSupplyToken("rf", a));
    EXPECT_TRUE(a.harvested());

    EXPECT_FALSE(sweep::parseSupplyToken("pattern:0:0.5", a));
    EXPECT_FALSE(sweep::parseSupplyToken("pattern:30:1.5", a));
    EXPECT_FALSE(sweep::parseSupplyToken("pattern:30", a));
    EXPECT_FALSE(sweep::parseSupplyToken("pattern:30:nan", a));
    EXPECT_FALSE(sweep::parseSupplyToken("solar", a));
}

TEST(Grid, ParseAxisRejectsBadInput)
{
    sweep::GridSpec spec;
    std::string err;
    EXPECT_FALSE(sweep::parseAxis(spec, "voltage", "3.3", err));
    EXPECT_NE(err.find("unknown axis"), std::string::npos);
    EXPECT_FALSE(sweep::parseAxis(spec, "apps", "AR, quake", err));
    EXPECT_FALSE(sweep::parseAxis(spec, "segments", "0", err));
    EXPECT_FALSE(sweep::parseAxis(spec, "seeds", "eleven", err));
    // Numbers are strict: no sign on a count, nothing non-finite, no
    // hex, nothing past the axis bound.
    EXPECT_FALSE(sweep::parseAxis(spec, "seeds", "-3", err));
    EXPECT_FALSE(sweep::parseAxis(spec, "seeds", "+5", err));
    EXPECT_FALSE(sweep::parseAxis(spec, "caps_uf", "nan", err));
    EXPECT_FALSE(sweep::parseAxis(spec, "caps_uf", "inf", err));
    EXPECT_FALSE(sweep::parseAxis(spec, "caps_uf", "0x10", err));
    EXPECT_FALSE(sweep::parseAxis(spec, "segments", "1048577", err));
    EXPECT_TRUE(sweep::parseAxis(spec, "segments", "1048576", err));

    EXPECT_TRUE(sweep::parseAxis(spec, "apps", "ar, bc", err));
    ASSERT_EQ(spec.apps.size(), 2u);
    EXPECT_EQ(spec.apps[0], "AR");
    EXPECT_EQ(spec.apps[1], "BC");
}

TEST(Grid, ParseGridFile)
{
    const auto dir = std::filesystem::temp_directory_path();
    const auto path = dir / "ticssweep_test_grid.txt";
    {
        std::ofstream os(path);
        os << "# capacitor sweep\n"
           << "apps = bc\n"
           << "runtimes = tics, plain-c\n"
           << "supplies = rf\n"
           << "caps_uf = 10, 47\n"
           << "seeds = 11, 12\n";
    }
    sweep::GridSpec spec;
    std::string err;
    ASSERT_TRUE(sweep::parseGridFile(path.string(), spec, err)) << err;
    EXPECT_EQ(spec.apps, (std::vector<std::string>{"BC"}));
    EXPECT_EQ(spec.capsUf.size(), 2u);
    // 1 app x (TICS x 2 caps + plain-C x 2 caps) x 2 seeds.
    EXPECT_EQ(spec.cells().size(), 8u);

    {
        std::ofstream os(path);
        os << "apps bc\n";
    }
    sweep::GridSpec bad;
    EXPECT_FALSE(sweep::parseGridFile(path.string(), bad, err));
    EXPECT_NE(err.find(":1:"), std::string::npos);
    std::filesystem::remove(path);
}

// ---- Distribution::merge -----------------------------------------------

/** Deterministic LCG so the test needs no <random> seeding policy. */
double
lcgSample(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) /
           static_cast<double>(1ull << 53) * 40.0;
}

TEST(DistributionMerge, ShardsMatchSinglePass)
{
    constexpr int kSamples = 4000;
    std::uint64_t state = 42;
    std::vector<double> xs;
    for (int i = 0; i < kSamples; ++i)
        xs.push_back(lcgSample(state));

    Distribution whole;
    for (const double x : xs)
        whole.sample(x);

    Distribution merged;
    for (int shard = 0; shard < 4; ++shard) {
        Distribution part;
        for (int i = shard; i < kSamples; i += 4)
            part.sample(xs[static_cast<std::size_t>(i)]);
        merged.merge(part);
    }

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.stddev(), whole.stddev(), 1e-9);
    // The histogram is a bucket-wise sum, so the percentiles are
    // identical, not merely close.
    EXPECT_DOUBLE_EQ(merged.p50(), whole.p50());
    EXPECT_DOUBLE_EQ(merged.p95(), whole.p95());
    EXPECT_DOUBLE_EQ(merged.p99(), whole.p99());
}

TEST(DistributionMerge, EmptyShardsAreIdentity)
{
    Distribution a;
    Distribution empty;
    a.sample(1.0);
    a.sample(3.0);

    Distribution b = a;
    b.merge(empty);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), a.mean());

    Distribution c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), a.mean());
    EXPECT_DOUBLE_EQ(c.stddev(), a.stddev());

    Distribution d;
    d.merge(empty);
    EXPECT_EQ(d.count(), 0u);
}

TEST(DistributionMerge, EncodeDecodeRoundTripsBitExactly)
{
    std::uint64_t state = 7;
    Distribution d;
    for (int i = 0; i < 100; ++i)
        d.sample(lcgSample(state));

    Distribution back;
    ASSERT_TRUE(back.decode(d.encode()));
    EXPECT_EQ(back.count(), d.count());
    // Bit-exact doubles: the cache depends on %.17g round-tripping.
    EXPECT_EQ(back.mean(), d.mean());
    EXPECT_EQ(back.stddev(), d.stddev());
    EXPECT_EQ(back.min(), d.min());
    EXPECT_EQ(back.max(), d.max());
    EXPECT_EQ(back.p95(), d.p95());
    EXPECT_EQ(back.encode(), d.encode());
}

TEST(DistributionMerge, DecodeRejectsGarbage)
{
    Distribution d;
    EXPECT_FALSE(d.decode("not a distribution"));
    EXPECT_FALSE(d.decode(""));
    EXPECT_FALSE(d.decode("3 1 2"));
    EXPECT_EQ(d.count(), 0u);
}

// ---- ResultCache -------------------------------------------------------

class SweepCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (std::filesystem::temp_directory_path() /
                "ticssweep_test_cache")
                   .string();
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    static sweep::Cell testCell()
    {
        sweep::Cell c;
        c.app = "BC";
        c.runtime = "TICS";
        c.segmentBytes = 256;
        c.seed = 11;
        return c;
    }

    static sweep::CellResult testResult()
    {
        sweep::CellResult r;
        r.completed = true;
        r.verified = true;
        r.reboots = 17;
        r.cycles = 123456789;
        r.elapsedNs = 987654321;
        r.onTimeNs = 600000000;
        r.simMs.sample(r.simMsValue());
        return r;
    }

    std::string dir_;
};

TEST_F(SweepCacheTest, StoreThenLookupRoundTrips)
{
    const sweep::ResultCache cache(dir_);
    ASSERT_TRUE(cache.enabled());
    const auto cell = testCell();
    const auto r = testResult();

    sweep::CellResult out;
    EXPECT_FALSE(cache.lookup(cell, out));
    cache.store(cell, r);
    ASSERT_TRUE(cache.lookup(cell, out));
    EXPECT_EQ(out.encode(), r.encode());
    EXPECT_EQ(out.simMs.encode(), r.simMs.encode());
}

TEST_F(SweepCacheTest, SaltMismatchIsAMiss)
{
    const sweep::ResultCache v1(dir_, "salt-v1");
    v1.store(testCell(), testResult());
    // A different code-version salt hashes to a different key file;
    // even a colliding key would fail the entry's salt echo.
    const sweep::ResultCache v2(dir_, "salt-v2");
    sweep::CellResult out;
    EXPECT_FALSE(v2.lookup(testCell(), out));
    sweep::CellResult again;
    EXPECT_TRUE(v1.lookup(testCell(), again));
}

TEST_F(SweepCacheTest, CorruptEntryIsAMiss)
{
    const sweep::ResultCache cache(dir_);
    cache.store(testCell(), testResult());
    {
        std::ofstream os(cache.entryPath(testCell()));
        os << "ticssweep-cache 1\ngarbage\n";
    }
    sweep::CellResult out;
    EXPECT_FALSE(cache.lookup(testCell(), out));
}

TEST_F(SweepCacheTest, EmptyDirDisablesCache)
{
    const sweep::ResultCache cache("");
    EXPECT_FALSE(cache.enabled());
    cache.store(testCell(), testResult()); // must not crash
    sweep::CellResult out;
    EXPECT_FALSE(cache.lookup(testCell(), out));
}

// ---- cross-thread hook isolation (the thread_local conversion) ---------

/** Counts every trace callback it receives. */
struct CountingSink final : mem::AccessSink {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t versioned = 0;
    std::uint64_t boots = 0;
    std::uint64_t commits = 0;

    void memRead(const void *, std::uint32_t) override { ++reads; }
    void memWrite(const void *, std::uint32_t) override { ++writes; }
    void memVersioned(const void *, std::uint32_t) override
    {
        ++versioned;
    }
    void powerOn() override { ++boots; }
    void commit() override { ++commits; }

    std::string summary() const
    {
        return std::to_string(reads) + " " + std::to_string(writes) +
               " " + std::to_string(versioned) + " " +
               std::to_string(boots) + " " + std::to_string(commits);
    }
};

/** One traced BC/TICS run under a reset pattern on this thread. */
std::string
tracedBcRun(TimeNs periodNs)
{
    const auto spec = harness::patternSpec(periodNs, 0.6);
    auto board = harness::makeBoard(spec, 11);
    tics::TicsConfig cfg;
    cfg.segmentBytes = 256;
    cfg.policy = tics::PolicyKind::Timer;
    cfg.timerPeriod = 10 * kNsPerMs;
    tics::TicsRuntime rt(cfg);
    apps::BcLegacyApp app(*board, rt);

    CountingSink sink;
    mem::ScopedSink scoped(&sink);
    board->run(rt, [&app] { app.main(); }, 600 * kNsPerSec);
    return sink.summary();
}

TEST(SweepIsolation, ConcurrentBoardsDoNotCrossTalk)
{
    // Serial baselines first: what each configuration's sink must see
    // when it runs alone on a quiet process.
    const std::string ref1 = tracedBcRun(30 * kNsPerMs);
    const std::string ref2 = tracedBcRun(11 * kNsPerMs);
    EXPECT_NE(ref1, "0 0 0 0 0");
    // Different reset periods produce different boot/commit histories,
    // which is what makes cross-talk detectable below.
    EXPECT_NE(ref1, ref2);

    // Now both configurations concurrently, each with its own
    // thread-local sink. Any leakage of one board's events into the
    // other thread's sink perturbs at least one of the counts.
    std::string got1;
    std::string got2;
    std::thread t1([&] { got1 = tracedBcRun(30 * kNsPerMs); });
    std::thread t2([&] { got2 = tracedBcRun(11 * kNsPerMs); });
    t1.join();
    t2.join();
    EXPECT_EQ(got1, ref1);
    EXPECT_EQ(got2, ref2);
}

// ---- sweep engine determinism ------------------------------------------

sweep::SweepConfig
smallSweep()
{
    sweep::SweepConfig cfg;
    cfg.grid.apps = {"BC"};
    cfg.grid.runtimes = {"TICS", "plain-C"};
    cfg.grid.seeds = {11, 12};
    cfg.useCache = false;
    // plain C never finishes under the pattern; keep its time-box
    // small so the test stays fast.
    cfg.unprotectedBudget = 200 * kNsPerMs;
    return cfg;
}

void
expectSameResults(const sweep::SweepResult &a,
                  const sweep::SweepResult &b)
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
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
    for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
        EXPECT_EQ(a.aggregates[i].groupKey, b.aggregates[i].groupKey);
        EXPECT_EQ(a.aggregates[i].simMs.encode(),
                  b.aggregates[i].simMs.encode());
    }
}

TEST(SweepEngine, ResultsAreIdenticalForAnyJobCount)
{
    auto cfg = smallSweep();
    cfg.jobs = 1;
    const auto serial = sweep::runSweep(cfg);
    cfg.jobs = 4;
    const auto parallel = sweep::runSweep(cfg);

    ASSERT_EQ(serial.cells.size(), 4u);
    EXPECT_EQ(serial.cacheHits, 0u);
    EXPECT_EQ(serial.cacheMisses, 0u);
    expectSameResults(serial, parallel);

    // The TICS cells complete and verify; the plain-C baseline under
    // the interrupting pattern does not.
    for (const auto &out : serial.cells) {
        if (out.cell.runtime == "TICS") {
            EXPECT_TRUE(out.result.completed) << out.cell.label();
            EXPECT_TRUE(out.result.verified) << out.cell.label();
        } else {
            EXPECT_FALSE(out.result.completed) << out.cell.label();
        }
    }
    // Two seeds per (app, runtime) group merge into one aggregate.
    ASSERT_EQ(serial.aggregates.size(), 2u);
    for (const auto &agg : serial.aggregates)
        EXPECT_EQ(agg.cellsMerged, 2u);
}

TEST(SweepEngine, CacheHitsReproduceFreshResults)
{
    const std::string dir = (std::filesystem::temp_directory_path() /
                             "ticssweep_test_engine_cache")
                                .string();
    std::filesystem::remove_all(dir);

    auto cfg = smallSweep();
    cfg.grid.runtimes = {"TICS"};
    cfg.useCache = true;
    cfg.cacheDir = dir;
    cfg.jobs = 2;

    const auto cold = sweep::runSweep(cfg);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.cells.size());

    const auto warm = sweep::runSweep(cfg);
    EXPECT_EQ(warm.cacheHits, warm.cells.size());
    EXPECT_EQ(warm.cacheMisses, 0u);
    for (const auto &out : warm.cells)
        EXPECT_TRUE(out.fromCache);
    expectSameResults(cold, warm);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ticsim
