/**
 * @file
 * Tests for the memory-consistency analysis subsystem: the WAR
 * detector on hand-built interval traces (every boundary case of the
 * Surbatovich condition), the replay oracle's diff localization, both
 * of its diff paths against the original algorithm over seeded
 * synthetic arenas, and the end-to-end acceptance split — protected
 * runtimes report no materialized hazard and no divergence, the
 * unprotected plain-C baseline reports both.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "analysis/checker.hpp"
#include "analysis/replay_oracle.hpp"
#include "analysis/war_detector.hpp"
#include "mem/nvram.hpp"
#include "replay_reference.hpp"
#include "support/rng.hpp"

using namespace ticsim;
using namespace ticsim::analysis;

namespace {

struct DetectorFixture : ::testing::Test {
    mem::NvRam ram{4096};
    Addr g = ram.allocate("glob", 64, 8);
    WarHazardDetector det{ram};

    static IntervalTrace
    interval(std::uint64_t boot, IntervalEnd end,
             std::vector<AccessEvent> events)
    {
        IntervalTrace iv;
        iv.boot = boot;
        iv.end = end;
        iv.events = std::move(events);
        return iv;
    }
};

} // namespace

TEST_F(DetectorFixture, CoveredWarIsClean)
{
    // Read, then versioned before the write: the condition holds.
    const auto report = det.analyze({interval(
        1, IntervalEnd::PowerFailed,
        {{AccessKind::Read, g, 8},
         {AccessKind::Versioned, g, 8},
         {AccessKind::Write, g, 8}})});
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.intervalsAnalyzed, 1u);
}

TEST_F(DetectorFixture, UncoveredWarIsFlaggedAndAttributed)
{
    const auto report = det.analyze({interval(
        3, IntervalEnd::PowerFailed,
        {{AccessKind::Read, g + 4, 4}, {AccessKind::Write, g + 4, 4}})});
    ASSERT_EQ(report.hazards.size(), 1u);
    const WarHazard &h = report.hazards[0];
    EXPECT_EQ(h.region, "glob");
    EXPECT_EQ(h.offset, 4u);
    EXPECT_EQ(h.bytes, 4u);
    EXPECT_EQ(h.boot, 3u);
    EXPECT_TRUE(h.materialized);
    EXPECT_EQ(report.materialized(), 1u);
    EXPECT_EQ(report.latent(), 0u);
}

TEST_F(DetectorFixture, ReadOnlyIntervalIsClean)
{
    const auto report = det.analyze(
        {interval(1, IntervalEnd::PowerFailed,
                  {{AccessKind::Read, g, 8},
                   {AccessKind::Read, g + 8, 16}})});
    EXPECT_TRUE(report.clean());
}

TEST_F(DetectorFixture, WriteBeforeReadIsClean)
{
    // The read observes interval-local data; re-execution regenerates
    // it, so there is nothing stale to re-read.
    const auto report = det.analyze({interval(
        1, IntervalEnd::PowerFailed,
        {{AccessKind::Write, g, 4},
         {AccessKind::Read, g, 4},
         {AccessKind::Write, g, 4}})});
    EXPECT_TRUE(report.clean());
}

TEST_F(DetectorFixture, CommitBoundaryResetsCoverageAndReadSets)
{
    // Interval 1: covered WAR, committed (the undo log is cleared at
    // the commit). Interval 2 re-reads and re-writes the same bytes
    // WITHOUT fresh coverage: the cleared log no longer protects them.
    const auto report = det.analyze(
        {interval(1, IntervalEnd::Committed,
                  {{AccessKind::Read, g, 8},
                   {AccessKind::Versioned, g, 8},
                   {AccessKind::Write, g, 8}}),
         interval(1, IntervalEnd::PowerFailed,
                  {{AccessKind::Read, g, 8},
                   {AccessKind::Write, g, 8}})});
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].interval, 1u);
    EXPECT_TRUE(report.hazards[0].materialized);
}

TEST_F(DetectorFixture, VersionedAfterWriteIsTooLate)
{
    const auto report = det.analyze({interval(
        1, IntervalEnd::PowerFailed,
        {{AccessKind::Read, g, 4},
         {AccessKind::Write, g, 4},
         {AccessKind::Versioned, g, 4}})});
    ASSERT_EQ(report.hazards.size(), 1u);
}

TEST_F(DetectorFixture, PartialCoverageFlagsOnlyUncoveredBytes)
{
    const auto report = det.analyze({interval(
        1, IntervalEnd::PowerFailed,
        {{AccessKind::Read, g, 8},
         {AccessKind::Versioned, g, 4}, // first half only
         {AccessKind::Write, g, 8}})});
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].offset, 4u);
    EXPECT_EQ(report.hazards[0].bytes, 4u);
}

TEST_F(DetectorFixture, OverlappingNonIdenticalRangesFlagOverlapOnly)
{
    // The read and the write are different, overlapping ranges; only
    // the intersection was read-then-written. Per-byte evaluation must
    // flag exactly those bytes, not either access's full extent.
    const auto report = det.analyze({interval(
        1, IntervalEnd::PowerFailed,
        {{AccessKind::Read, g, 4},        // [0, 4)
         {AccessKind::Write, g + 2, 4}}   // [2, 6) -> overlap [2, 4)
        )});
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].offset, 2u);
    EXPECT_EQ(report.hazards[0].bytes, 2u);
}

TEST_F(DetectorFixture, StraddlingVersioningSplitsHazardRanges)
{
    // A wide read-then-write whose versioning covers a slice in the
    // middle: the hazard must split into the two uncovered flanks.
    const auto report = det.analyze({interval(
        1, IntervalEnd::PowerFailed,
        {{AccessKind::Read, g, 8},
         {AccessKind::Versioned, g + 3, 2}, // [3, 5) covered
         {AccessKind::Write, g, 8}})});
    ASSERT_EQ(report.hazards.size(), 2u);
    EXPECT_EQ(report.hazards[0].offset, 0u);
    EXPECT_EQ(report.hazards[0].bytes, 3u);
    EXPECT_EQ(report.hazards[1].offset, 5u);
    EXPECT_EQ(report.hazards[1].bytes, 3u);
}

TEST_F(DetectorFixture, StraddlingRegionBoundarySplitsAttribution)
{
    // One access straddling two adjacent NV regions: the contiguous
    // hazardous range must become one hazard per region, each with
    // in-region offsets, instead of a single range mis-attributed to
    // whichever region holds the first byte.
    mem::NvRam ram2{4096};
    const Addr a = ram2.allocate("left", 8, 8);
    const Addr b = ram2.allocate("right", 8, 8);
    ASSERT_EQ(b, a + 8); // adjacent by construction
    const auto report = WarHazardDetector(ram2).analyze({interval(
        1, IntervalEnd::PowerFailed,
        {{AccessKind::Read, a + 6, 4},   // left[6..8) + right[0..2)
         {AccessKind::Write, a + 6, 4}})});
    ASSERT_EQ(report.hazards.size(), 2u);
    EXPECT_EQ(report.hazards[0].region, "left");
    EXPECT_EQ(report.hazards[0].offset, 6u);
    EXPECT_EQ(report.hazards[0].bytes, 2u);
    EXPECT_EQ(report.hazards[1].region, "right");
    EXPECT_EQ(report.hazards[1].offset, 0u);
    EXPECT_EQ(report.hazards[1].bytes, 2u);
}

TEST_F(DetectorFixture, CommittedIntervalHazardIsLatent)
{
    const auto report = det.analyze(
        {interval(1, IntervalEnd::Committed,
                  {{AccessKind::Read, g, 4},
                   {AccessKind::Write, g, 4}})});
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_FALSE(report.hazards[0].materialized);
    EXPECT_EQ(report.materialized(), 0u);
    EXPECT_EQ(report.latent(), 1u);
}

// ---- replay oracle -------------------------------------------------------

TEST(ReplayOracle, DiffLocalizesDivergentRuns)
{
    mem::NvRam a{1024}, b{1024};
    a.allocate("app.x", 16, 8);
    b.allocate("app.x", 16, 8);
    a.hostPtr(0)[3] = 1;
    b.hostPtr(0)[3] = 2;
    b.hostPtr(0)[4] = 9; // adjacent: one run of 2 bytes
    b.hostPtr(0)[10] = 7;

    const auto filter = ReplayOracle::appStateFilter();
    const auto report = ReplayOracle::diff(
        ReplayOracle::capture(a, filter),
        ReplayOracle::capture(b, filter));
    ASSERT_EQ(report.divergences.size(), 2u);
    EXPECT_EQ(report.divergences[0].region, "app.x");
    EXPECT_EQ(report.divergences[0].offset, 3u);
    EXPECT_EQ(report.divergences[0].bytes, 2u);
    EXPECT_EQ(report.divergences[1].offset, 10u);
    EXPECT_EQ(report.divergentBytes, 3u);
    EXPECT_EQ(report.regionMismatches, 0u);
}

TEST(ReplayOracle, FilterDropsRuntimeInternalRegions)
{
    const auto filter = ReplayOracle::appStateFilter();
    const auto keep = [&](const char *name) {
        mem::NvRegion r;
        r.name = name;
        return filter(r);
    };
    EXPECT_FALSE(keep("app-stack"));
    EXPECT_FALSE(keep("tics.undo.pool"));
    EXPECT_FALSE(keep("chinchilla.versions.entries"));
    EXPECT_FALSE(keep("mementos.globals0"));
    EXPECT_FALSE(keep("chan.bc.total.s"));
    EXPECT_FALSE(keep("chan.bc.total.ts"));
    EXPECT_TRUE(keep("chan.bc.total.v"));
    EXPECT_TRUE(keep("bc.totalBits"));
    EXPECT_TRUE(keep("cf.table"));
}

TEST(ReplayOracle, LayoutMismatchIsReported)
{
    mem::NvRam a{1024}, b{1024};
    a.allocate("only.in.a", 8, 8);
    b.allocate("only.in.b", 8, 8);
    const auto filter = ReplayOracle::appStateFilter();
    const auto report = ReplayOracle::diff(
        ReplayOracle::capture(a, filter),
        ReplayOracle::capture(b, filter));
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.regionMismatches, 2u);
}

// ---- both diff paths against the original algorithm ---------------------

namespace {

/** One synthetic region's name and its size on the reference and the
 *  subject side; a size of 0 leaves the region out of that side. */
struct SynthRegion {
    std::string name;
    std::uint32_t refSize = 0;
    std::uint32_t subSize = 0;
};

/**
 * A reference and a subject arena laid out from one region list, each
 * region filled with the same seeded bytes on both sides. Cases then
 * flip subject bytes and check that ReplayOracle::diff and a bound
 * reference both report exactly what the original algorithm reports.
 */
class SynthArenas
{
  public:
    SynthArenas(const std::vector<SynthRegion> &layout, std::uint64_t seed)
        : rng_(seed)
    {
        for (const SynthRegion &r : layout) {
            std::vector<std::uint8_t> fill(std::max(r.refSize, r.subSize));
            for (std::uint8_t &b : fill)
                b = static_cast<std::uint8_t>(rng_.below(256));
            place(ref_, r.name, r.refSize, fill);
            place(sub_, r.name, r.subSize, fill);
        }
    }

    Rng &rng() { return rng_; }
    mem::NvRam &subject() { return sub_; }

    /** Change byte @p off of the @p nth subject region named @p name. */
    void
    flip(const std::string &name, std::uint32_t off, int nth = 0)
    {
        for (const mem::NvRegion &r : sub_.regions()) {
            if (r.name != name || nth-- > 0)
                continue;
            ASSERT_LT(off, r.size) << name;
            sub_.hostPtr(r.base)[off] ^=
                static_cast<std::uint8_t>(1 + rng_.below(255));
            return;
        }
        ADD_FAILURE() << "no subject region " << name;
    }

    /**
     * The original algorithm's report, after checking that diff() and
     * the subject-bound reference reproduce it, and that the mirrored
     * comparison (reference arena live, subject captured) agrees too.
     */
    ReplayReport
    check(const std::string &what)
    {
        const auto filter = ReplayOracle::appStateFilter();
        const ArenaSnapshot refSnap = ReplayOracle::capture(ref_, filter);
        const ArenaSnapshot subSnap = ReplayOracle::capture(sub_, filter);
        const ReplayReport want = testref::referenceDiff(refSnap, subSnap);
        testref::expectSameReport(
            want, ReplayOracle::diff(refSnap, subSnap), what + ": diff");
        testref::expectSameReport(
            want, ReplayOracle::bind(refSnap, sub_, filter).diff(),
            what + ": bound");
        testref::expectSameReport(
            testref::referenceDiff(subSnap, refSnap),
            ReplayOracle::bind(subSnap, ref_, filter).diff(),
            what + ": mirrored");
        return want;
    }

  private:
    static void
    place(mem::NvRam &ram, const std::string &name, std::uint32_t size,
          const std::vector<std::uint8_t> &fill)
    {
        if (size == 0)
            return;
        const Addr a = ram.allocate(name, size, 8);
        std::copy_n(fill.begin(), size, ram.hostPtr(a));
    }

    Rng rng_;
    mem::NvRam ref_{16384};
    mem::NvRam sub_{16384};
};

/** Application regions of assorted sizes, plus runtime-internal ones
 *  the filter drops. */
std::vector<SynthRegion>
baseLayout()
{
    return {{"app.a", 64, 64},       {"app.byte", 1, 1},
            {"tics.undo.pool", 32, 32}, {"app.b", 200, 200},
            {"chan.x.v", 8, 8},      {"chan.x.s", 8, 8},
            {"app.c", 13, 13}};
}

constexpr std::uint64_t kSynthSeeds = 16;

} // namespace

TEST(ReplayOracleDiff, IdenticalArenasAreClean)
{
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        SynthArenas a(baseLayout(), seed);
        EXPECT_TRUE(a.check("identical").clean()) << "seed " << seed;
    }
}

TEST(ReplayOracleDiff, FirstAndLastBytes)
{
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        SynthArenas a(baseLayout(), seed);
        a.flip("app.a", 0);
        a.flip("app.b", 199);
        a.flip("app.byte", 0);
        const ReplayReport r = a.check("first/last byte");
        EXPECT_EQ(r.divergences.size(), 3u) << "seed " << seed;
        EXPECT_EQ(r.divergentBytes, 3u) << "seed " << seed;
    }
}

TEST(ReplayOracleDiff, AdjacentAndSeparatedRuns)
{
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        SynthArenas a(baseLayout(), seed);
        // Fixed: one run of two, a lone byte, a run up to the end.
        a.flip("app.a", 3);
        a.flip("app.a", 4);
        a.flip("app.a", 10);
        a.flip("app.a", 62);
        a.flip("app.a", 63);
        // Seeded: up to 24 flips into app.b, overlaps included, so
        // runs touch, merge and re-split differently per seed.
        const std::uint64_t n = 1 + a.rng().below(24);
        for (std::uint64_t i = 0; i < n; ++i)
            a.flip("app.b", static_cast<std::uint32_t>(a.rng().below(200)));
        const ReplayReport r = a.check("runs");
        ASSERT_GE(r.divergences.size(), 3u) << "seed " << seed;
        EXPECT_EQ(r.divergences[0].offset, 3u);
        EXPECT_EQ(r.divergences[0].bytes, 2u);
        EXPECT_EQ(r.divergences[1].offset, 10u);
        EXPECT_EQ(r.divergences[2].offset, 62u);
    }
}

TEST(ReplayOracleDiff, WholeRegionDiverges)
{
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        SynthArenas a(baseLayout(), seed);
        for (std::uint32_t i = 0; i < 13; ++i)
            a.flip("app.c", i);
        const ReplayReport r = a.check("whole region");
        ASSERT_EQ(r.divergences.size(), 1u) << "seed " << seed;
        EXPECT_EQ(r.divergences[0].region, "app.c");
        EXPECT_EQ(r.divergences[0].bytes, 13u);
    }
}

TEST(ReplayOracleDiff, DuplicateRegionNames)
{
    // The first reference region of a name is the one every subject
    // region of that name tries to claim; a second subject duplicate
    // finds it taken and is a mismatch, its bytes never compared.
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        std::vector<SynthRegion> layout = baseLayout();
        layout.push_back({"app.dup", 16, 16});
        layout.push_back({"app.dup", 16, 16});
        SynthArenas a(layout, seed);
        a.flip("app.dup", 5, 0);
        a.flip("app.dup", 9, 1);
        const ReplayReport r = a.check("duplicates");
        EXPECT_EQ(r.regionMismatches, 1u) << "seed " << seed;
        EXPECT_EQ(r.divergentBytes, 1u) << "seed " << seed;
    }
}

TEST(ReplayOracleDiff, RegionOnOneSideOnly)
{
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        std::vector<SynthRegion> layout = baseLayout();
        layout.insert(layout.begin() + 1, {"app.refOnly", 24, 0});
        layout.push_back({"app.subOnly", 0, 8});
        SynthArenas a(layout, seed);
        a.flip("app.b", 7);
        const ReplayReport r = a.check("one side only");
        EXPECT_EQ(r.regionMismatches, 2u) << "seed " << seed;
        EXPECT_EQ(r.divergentBytes, 1u) << "seed " << seed;
    }
}

TEST(ReplayOracleDiff, SizeMismatch)
{
    // A size mismatch leaves the reference region unclaimed: it counts
    // once for the subject side and once more at the end.
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        std::vector<SynthRegion> layout = baseLayout();
        layout.push_back({"app.sized", 32, 40});
        SynthArenas a(layout, seed);
        a.flip("app.sized", 1);
        a.flip("app.a", 33);
        const ReplayReport r = a.check("size mismatch");
        EXPECT_EQ(r.regionMismatches, 2u) << "seed " << seed;
        EXPECT_EQ(r.divergentBytes, 1u) << "seed " << seed;
    }
}

TEST(ReplayOracleDiff, FilteredOutRegionsNeverCount)
{
    for (std::uint64_t seed = 1; seed <= kSynthSeeds; ++seed) {
        SynthArenas a(baseLayout(), seed);
        a.flip("tics.undo.pool", 0);
        a.flip("tics.undo.pool", 31);
        a.flip("chan.x.s", 2);
        EXPECT_TRUE(a.check("filtered out").clean()) << "seed " << seed;
        a.flip("chan.x.v", 2);
        EXPECT_EQ(a.check("kept channel copy").divergentBytes, 1u);
    }
}

TEST(ReplayOracleDiff, BoundReferenceReadsTheLiveArena)
{
    // Bound once, diffed after every change: the bound reference reads
    // the arena's current bytes, including changes undone again.
    SynthArenas a(baseLayout(), 7);
    const auto filter = ReplayOracle::appStateFilter();
    mem::NvRam &live = a.subject();
    const ArenaSnapshot ref = ReplayOracle::capture(live, filter);
    const BoundReference bound = ReplayOracle::bind(ref, live, filter);
    EXPECT_TRUE(bound.diff().clean());
    for (int step = 0; step < 32; ++step) {
        a.flip("app.b", static_cast<std::uint32_t>(a.rng().below(200)));
        testref::expectSameReport(
            testref::referenceDiff(ref, ReplayOracle::capture(live, filter)),
            bound.diff(), "step " + std::to_string(step));
    }
    EXPECT_GT(bound.diff().divergentBytes, 0u);
    for (const RegionImage &img : ref.regions)
        for (const mem::NvRegion &r : live.regions())
            if (r.name == img.name)
                std::copy_n(img.bytes.begin(), img.size,
                            live.hostPtr(r.base));
    EXPECT_TRUE(bound.diff().clean());
}

TEST(ReplayOracleDeathTest, AllocatingAfterBindTripsTheLayoutGuard)
{
    mem::NvRam ram{1024};
    ram.allocate("app.x", 16, 8);
    const auto filter = ReplayOracle::appStateFilter();
    const ArenaSnapshot ref = ReplayOracle::capture(ram, filter);
    const BoundReference bound = ReplayOracle::bind(ref, ram, filter);
    EXPECT_TRUE(bound.diff().clean());
    ram.allocate("app.late", 8, 8);
    EXPECT_DEATH(bound.diff(), "arena layout changed after bind");
}

// ---- end-to-end acceptance split -----------------------------------------

TEST(TicscheckMatrix, ProtectedRuntimesConsistentPlainCNot)
{
    const auto findings = checkMatrix(CheckConfig{});
    ASSERT_EQ(findings.size(), 10u);

    for (const auto &f : findings) {
        SCOPED_TRACE(f.app + " under " + f.runtime);
        ASSERT_TRUE(f.refCompleted);
        EXPECT_TRUE(scenarioOk(f));
        if (!f.isProtected) {
            // The unprotected baseline must demonstrably be
            // interrupted mid-interval and corrupt its state.
            EXPECT_GT(f.subject.reboots, 0u);
            EXPECT_GE(f.war.materialized(), 1u);
            EXPECT_GE(f.replay.divergentBytes, 1u);
            continue;
        }
        EXPECT_TRUE(f.subject.completed);
        EXPECT_TRUE(f.verified);
        EXPECT_EQ(f.war.materialized(), 0u);
        EXPECT_EQ(f.replay.divergentBytes, 0u);
        EXPECT_EQ(f.replay.regionMismatches, 0u);
        // Log- and task-based systems version eagerly; MementOS-like
        // used to carry latent-only findings from the uncovered
        // pre-first-checkpoint window, but the genesis-snapshot
        // hardening covers that window too, so every protected
        // runtime is now fully clean.
        EXPECT_TRUE(f.war.clean());
        // The subject must actually have been exercised: reboots
        // happened and intervals were traced.
        EXPECT_GT(f.subject.reboots, 0u);
        EXPECT_GT(f.intervals, 0u);
        EXPECT_GT(f.nvWriteBytes, 0u);
    }
}
