/**
 * @file
 * Fault-model and crash-consistency hardening tests: CRC-32 vectors,
 * reset-pattern supply edge cases, checkpoint-area negative paths
 * (torn and corrupted commit records), undo-log record validation,
 * fault-plan round-trips, end-to-end campaign/replay checks, and the
 * ticsfault CLI's modes.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "energy/supply.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "mem/nvram.hpp"
#include "support/crc32.hpp"
#include "sweep/job_pool.hpp"
#include "tics/checkpoint_area.hpp"
#include "tics/undo_log.hpp"

using namespace ticsim;

// ---- CRC-32 ----------------------------------------------------------------

TEST(Crc32, MatchesIeeeCheckValue)
{
    // The standard CRC-32/IEEE check vector.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, ChainingEqualsOneShot)
{
    const char buf[] = "intermittent computing";
    const std::size_t n = sizeof(buf) - 1;
    const std::uint32_t oneShot = crc32(buf, n);
    const std::uint32_t chained = crc32(buf + 5, n - 5, crc32(buf, 5));
    EXPECT_EQ(chained, oneShot);
    EXPECT_NE(crc32(buf, n - 1), oneShot);
}

namespace {

/** Bytewise reference CRC-32 (reflected 0xEDB88320), one bit at a
 *  time, against which both kernels are checked. */
std::uint32_t
referenceCrc32(const std::uint8_t *p, std::size_t n, std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t>
pseudoRandomBytes(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto &b : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x >> 24);
    }
    return v;
}

/** Both CRC kernels: crc32() (the carry-less fold from 64 bytes up,
 *  on hosts that have it) and the portable slicing-by-8 one. */
struct Crc32Kernel {
    const char *name;
    std::uint32_t (*fn)(const void *, std::size_t, std::uint32_t);
};

constexpr Crc32Kernel kCrc32Kernels[] = {
    {"crc32", &crc32},
    {"portable", &detail::crc32Portable},
};

} // namespace

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // Every length around the 8-byte step and its tail; every length
    // across the fold's 64-byte blocks, single 16-byte folds and tail
    // (65..272); the edges of a page; and a few multi-KiB ones. Each
    // at every start offset within a 16-byte lane.
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 272; ++n)
        lengths.push_back(n);
    for (std::size_t n : {2048u, 4095u, 4096u, 4097u, 4099u, 8191u})
        lengths.push_back(n);
    const auto buf = pseudoRandomBytes(8191 + 16);
    for (const Crc32Kernel &k : kCrc32Kernels)
        for (std::size_t off = 0; off < 16; ++off)
            for (std::size_t n : lengths)
                for (std::uint32_t seed : {0u, 0xDEADBEEFu})
                    EXPECT_EQ(k.fn(buf.data() + off, n, seed),
                              referenceCrc32(buf.data() + off, n, seed))
                        << k.name << " offset " << off << " length " << n;
}

TEST(Crc32, ChainingAtEverySplitPointEqualsOneShot)
{
    // Splits on either side of each 64-byte block and 16-byte lane
    // boundary hand the fold a partial head and a partial tail.
    const auto buf = pseudoRandomBytes(1024 + 3);
    for (const Crc32Kernel &k : kCrc32Kernels)
        for (std::size_t n : {64u, 65u, 129u, 200u, 1027u}) {
            const std::uint32_t oneShot = k.fn(buf.data(), n, 0);
            EXPECT_EQ(oneShot, referenceCrc32(buf.data(), n, 0))
                << k.name << " length " << n;
            for (std::size_t split = 0; split <= n; ++split)
                EXPECT_EQ(k.fn(buf.data() + split, n - split,
                               k.fn(buf.data(), split, 0)),
                          oneShot)
                    << k.name << " length " << n << " split " << split;
        }
}

// ---- Reset-pattern supply edges --------------------------------------------

TEST(ScheduledSupplyEdges, ChargeEndingExactlyAtCutCompletes)
{
    energy::ScheduledSupply s({{100}, 5});
    // Half-open window: the charge that ends exactly at the cut
    // instant completes...
    const auto r1 = s.drain(0, 100, 1e-3);
    EXPECT_FALSE(r1.died);
    EXPECT_EQ(s.cutsFired(), 0u);
    // ...and the death lands on the next drain with zero progress.
    const auto r2 = s.drain(100, 50, 1e-3);
    EXPECT_TRUE(r2.died);
    EXPECT_EQ(r2.ranFor, 0);
    EXPECT_EQ(s.offTimeAfterDeath(100), 5);
    EXPECT_EQ(s.cutsFired(), 1u);
    // After the last cut the supply is continuous.
    EXPECT_FALSE(s.drain(105, 3600 * kNsPerSec, 1e-3).died);
}

TEST(ScheduledSupplyEdges, ZeroLengthOnWindowDiesImmediately)
{
    // Two cuts at the same instant: the second on-window has zero
    // length, so the reboot's very first charge dies re-entrantly.
    energy::ScheduledSupply s({{100, 100}, 5});
    EXPECT_TRUE(s.drain(50, 60, 1e-3).died); // dies at 100, ranFor 50
    const auto r = s.drain(100, 10, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 0);
    EXPECT_EQ(s.cutsFired(), 2u);
}

TEST(ScheduledSupplyEdges, ReentrantDeathDuringBootWork)
{
    // The second cut is already past when the reboot's boot-side
    // charging probes the supply (boot work outlives the on-window).
    energy::ScheduledSupply s({{100, 130}, 5});
    EXPECT_TRUE(s.drain(0, 200, 1e-3).died);
    const auto r = s.drain(150, 20, 1e-3); // probe after the 130 cut
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 0);
}

TEST(PatternSupplyEdges, ChargeEndingExactlyAtWindowEndCompletes)
{
    energy::PatternSupply s(100 * kNsPerMs, 0.5);
    EXPECT_FALSE(s.drain(0, 50 * kNsPerMs, 1e-3).died);
    const auto r = s.drain(50 * kNsPerMs, 1, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 0);
}

TEST(FaultedSupplyEdges, FirstArmedBoundaryWins)
{
    fault::FaultedSupply s(std::make_unique<energy::ContinuousSupply>(),
                           7);
    s.armCutAfter(10);
    s.armCutAfter(3); // ignored: a cut is already pending
    const auto r = s.drain(100, 50, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 10);
    EXPECT_EQ(s.offTimeAfterDeath(110), 7);
    EXPECT_EQ(s.injectedDeaths(), 1u);
    ASSERT_EQ(s.firedAt().size(), 1u);
    EXPECT_EQ(s.firedAt()[0], 110);
}

TEST(FaultedSupplyEdges, OrganicInnerDeathBeforeCutWins)
{
    // The wrapped supply browns out at 100, before the injected cut at
    // 150: the organic death must be propagated with the inner supply's
    // own off time, not masked by the injected cut.
    fault::FaultedSupply s(
        std::make_unique<energy::ScheduledSupply>(
            energy::ResetPattern{{100}, 5}),
        777);
    s.scheduleAbsolute({150});
    const auto r = s.drain(0, 200, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 100);
    EXPECT_EQ(s.offTimeAfterDeath(100), 5); // inner off time, not 777
    EXPECT_EQ(s.injectedDeaths(), 0u);
    EXPECT_TRUE(s.firedAt().empty());
}

TEST(FaultedSupplyEdges, AbsoluteCutExactlyOnBoundaryIsHalfOpen)
{
    fault::FaultedSupply s(std::make_unique<energy::ContinuousSupply>(),
                           7);
    s.scheduleAbsolute({200});
    EXPECT_FALSE(s.drain(0, 200, 1e-3).died);
    const auto r = s.drain(200, 10, 1e-3);
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.ranFor, 0);
    EXPECT_FALSE(s.drain(207, 3600 * kNsPerSec, 1e-3).died);
}

// ---- CheckpointArea negative paths -----------------------------------------

namespace {

/** Commit one image into the area's write slot. */
void
commitImage(tics::CheckpointArea &area, std::uint8_t fill,
            std::uint32_t size)
{
    auto &slot = area.writeSlot();
    std::memset(slot.image, fill, size);
    slot.imgLow = 0x1000;
    slot.imgSize = size;
    area.commit();
}

} // namespace

TEST(CheckpointAreaFaults, CorruptedCrcFallsBackToOlderGeneration)
{
    mem::NvRam ram(64 * 1024);
    tics::CheckpointArea area(ram, "a", 256);
    EXPECT_EQ(area.valid(), nullptr); // fresh arena: no restore point

    commitImage(area, 0x11, 64); // generation 1 -> slot 0
    commitImage(area, 0x22, 64); // generation 2 -> slot 1
    ASSERT_NE(area.valid(), nullptr);
    EXPECT_EQ(area.validIndex(), 1);
    EXPECT_EQ(area.generation(1), 2u);

    // A retention flip in the stored CRC of the fresh header demotes
    // it; recovery falls back to the older but intact generation.
    area.headerHostPtr(1)[20] ^= 0x10;
    tics::CheckpointArea::Slot *slot = area.valid();
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(area.validIndex(), 0);
    EXPECT_EQ(slot->image[0], 0x11);
    EXPECT_GE(area.rejectedHeaders(), 1u);
}

TEST(CheckpointAreaFaults, ImageCorruptionFailsTheSealedCrc)
{
    mem::NvRam ram(64 * 1024);
    tics::CheckpointArea area(ram, "a", 256);
    commitImage(area, 0x33, 128);
    ASSERT_NE(area.valid(), nullptr);
    // The header CRC chains over the image bytes, so flipping an
    // image bit (not a header bit) also invalidates the slot.
    area.writeSlot(); // (no-op, documents that we corrupt the valid one)
    auto *v = area.valid();
    v->image[100] ^= 0x01;
    EXPECT_EQ(area.valid(), nullptr);
}

TEST(CheckpointAreaFaults, TornHeaderPrefixFailsValidation)
{
    mem::NvRam ram(64 * 1024);
    tics::CheckpointArea area(ram, "a", 256);
    commitImage(area, 0x44, 64); // gen 1 -> slot 0
    commitImage(area, 0x55, 64); // gen 2 -> slot 1

    // A prefix-torn commit record: magic + generation landed, the rest
    // is stale (zero). crc is last in the layout, so any prefix tear
    // leaves a CRC that cannot match.
    std::uint8_t *h = area.headerHostPtr(1);
    std::memset(h + 8, 0, 16);
    tics::CheckpointArea::Slot *slot = area.valid();
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(area.validIndex(), 0);
    EXPECT_EQ(slot->image[0], 0x44);
}

TEST(CheckpointAreaFaults, StaleGenerationNeverShadowsFresh)
{
    mem::NvRam ram(64 * 1024);
    tics::CheckpointArea area(ram, "a", 256);
    commitImage(area, 0x66, 64);
    commitImage(area, 0x77, 64);
    commitImage(area, 0x88, 64); // gen 3 -> slot 0; stale slot 1 has gen 2
    ASSERT_NE(area.valid(), nullptr);
    EXPECT_EQ(area.generation(0), 3u);
    EXPECT_EQ(area.generation(1), 2u);
    // Corrupting the stale slot must not disturb recovery at all.
    area.headerHostPtr(1)[4] ^= 0x40;
    tics::CheckpointArea::Slot *slot = area.valid();
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(area.validIndex(), 0);
    EXPECT_EQ(slot->image[0], 0x88);
    // And the generation counter keeps climbing from the NV maximum.
    commitImage(area, 0x99, 64);
    EXPECT_EQ(area.generation(1), 4u);
}

// ---- UndoLog record validation ---------------------------------------------

TEST(UndoLogFaults, CorruptPoolRecordIsSkippedNotApplied)
{
    mem::NvRam ram(64 * 1024);
    tics::UndoLog log(ram, "u", 1024, 16);

    std::uint8_t a[8], b[8];
    std::memset(a, 0xAA, sizeof a);
    std::memset(b, 0xBB, sizeof b);
    log.append(a, sizeof a);
    log.append(b, sizeof b);
    std::memset(a, 0x01, sizeof a); // mutate after saving
    std::memset(b, 0x02, sizeof b);

    // Retention flip in the first record's saved bytes (pool offset 0).
    const auto pool = std::find_if(
        ram.regions().begin(), ram.regions().end(),
        [](const mem::NvRegion &r) { return r.name == "u.pool"; });
    ASSERT_NE(pool, ram.regions().end());
    ram.hostPtr(pool->base)[0] ^= 0x40;

    const std::uint32_t applied = log.rollback();
    EXPECT_EQ(applied, 1u);
    EXPECT_EQ(log.corruptSkipped(), 1u);
    EXPECT_EQ(a[0], 0x01); // corrupt record skipped, target untouched
    EXPECT_EQ(b[0], 0xBB); // intact record rolled back
}

// ---- Torn stores -----------------------------------------------------------

TEST(TornStore, InterleavedSmallStoreFallsBackToTornTail)
{
    fault::TornWrite t;
    t.mode = fault::TearMode::Interleaved;
    t.keepBytes = 2;
    // A 4-byte store is one atomic word: interleaving degenerates to a
    // complete write, so the fallback must garble the tail instead.
    std::uint8_t dst[4] = {0x10, 0x11, 0x12, 0x13};
    const std::uint8_t src[4] = {0x20, 0x21, 0x22, 0x23};
    fault::applyTornStore(t, dst, src, sizeof dst);
    EXPECT_EQ(dst[0], 0x20);
    EXPECT_EQ(dst[1], 0x21);
    EXPECT_NE(std::memcmp(dst, src, sizeof dst), 0); // genuinely torn
}

TEST(TornStore, InterleavedWideStoreKeepsOddWordsOld)
{
    fault::TornWrite t;
    t.mode = fault::TearMode::Interleaved;
    t.keepBytes = 0;
    std::uint8_t dst[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    const std::uint8_t src[8] = {0xF0, 0xF1, 0xF2, 0xF3,
                                 0xF4, 0xF5, 0xF6, 0xF7};
    fault::applyTornStore(t, dst, src, sizeof dst);
    EXPECT_EQ(std::memcmp(dst, src, 4), 0); // word 0 committed
    EXPECT_EQ(dst[4], 4);                   // word 1 still old
    EXPECT_EQ(dst[7], 7);
}

// ---- FaultPlan parsing -----------------------------------------------------

TEST(FaultPlan, FormatParseRoundTrip)
{
    const std::string text =
        "cut@commit:3+5000;cut@t:123456;tear@hdr-store:2/prefix:8;"
        "flip@1:tics.ckpt.hdr0+4&0x40;off:9000000";
    fault::FaultPlan p;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(text, p, &err)) << err;
    EXPECT_EQ(p.cuts.size(), 2u);
    EXPECT_EQ(p.tears.size(), 1u);
    EXPECT_EQ(p.flips.size(), 1u);
    EXPECT_EQ(p.offNs, 9000000);
    EXPECT_FALSE(p.cuts[0].absolute);
    EXPECT_EQ(p.cuts[0].boundary, fault::Boundary::CommitEnd);
    EXPECT_EQ(p.cuts[0].occurrence, 3u);
    EXPECT_EQ(p.cuts[0].delayNs, 5000);
    EXPECT_TRUE(p.cuts[1].absolute);
    EXPECT_EQ(p.tears[0].site, mem::StoreSite::CkptHeader);
    EXPECT_EQ(p.flips[0].region, "tics.ckpt.hdr0");
    EXPECT_EQ(p.flips[0].mask, 0x40);
    EXPECT_EQ(p.format(), text);

    fault::FaultPlan q;
    ASSERT_TRUE(fault::FaultPlan::parse(p.format(), q, &err)) << err;
    EXPECT_EQ(q.format(), p.format());
}

TEST(FaultPlan, LongFlipRegionFormatsWhole)
{
    // A region name has no length bound; format() must keep the
    // "+offset&mask" after a long one, or its output would not parse.
    const std::string text =
        "flip@3:" + std::string(300, 'r') + "+7&0x01;off:12000000";
    fault::FaultPlan p;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(text, p, &err)) << err;
    EXPECT_EQ(p.format(), text);
}

TEST(FaultPlan, RejectsMalformedAtoms)
{
    fault::FaultPlan p;
    std::string err;
    EXPECT_FALSE(fault::FaultPlan::parse("cut@bogus:1", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("cut@commit:0", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("tear@store:1", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("flip@1:r+0&0x100", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("zap@x:1", p, &err));
    EXPECT_FALSE(err.empty());
    // Failed parses leave the output untouched.
    EXPECT_TRUE(p.empty());
}

TEST(FaultPlan, RejectsNonDigitNumbers)
{
    // strtoull would silently accept these (leading whitespace, sign
    // wrap-around); the plan grammar must not.
    fault::FaultPlan p;
    std::string err;
    EXPECT_FALSE(fault::FaultPlan::parse("cut@t:-5", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("cut@t: 5", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("cut@commit:+3", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("off:-1", p, &err));
    EXPECT_FALSE(
        fault::FaultPlan::parse("flip@1:r+0&-0x40", p, &err));
    EXPECT_TRUE(p.empty());
}

TEST(FaultPlan, RejectsOutOfRangeNumbers)
{
    // Each of these once parsed into a different fault: a truncated
    // offset or keepBytes, a value clamped at 2^64 - 1, or a time that
    // wrapped the simulator's clock arithmetic.
    fault::FaultPlan p;
    std::string err;
    for (const char *bad : {
             "flip@1:tics.ckpt.hdr0+4294967300&0x40",
             "tear@store:1/prefix:4294967297",
             "cut@t:999999999999999999999",
             "cut@commit:2+999999999999999999999",
             "cut@commit:2+18446744073709551000",
             "off:18446744073709551000",
             "off:9223372036854775808",
             "cut@t:4611686018427387904", // 2^62 ns
         }) {
        EXPECT_FALSE(fault::FaultPlan::parse(bad, p, &err)) << bad;
    }
    EXPECT_TRUE(p.empty());

    // The largest accepted values still round-trip.
    const std::string edge = "cut@t:4611686018427387903;"
                             "cut@commit:1+4611686018427387903;"
                             "tear@store:1/prefix:4294967295;"
                             "flip@1:r+4294967295&0x01;"
                             "off:4611686018427387903";
    ASSERT_TRUE(fault::FaultPlan::parse(edge, p, &err)) << err;
    EXPECT_EQ(p.format(), edge);
}

// ---- End-to-end replays ----------------------------------------------------

namespace {

fault::CampaignConfig
smallCampaign()
{
    fault::CampaignConfig cfg;
    cfg.randomSchedules = 4;
    return cfg;
}

std::string
replayVerdict(const std::string &pair, const std::string &planText)
{
    fault::FaultPlan plan;
    std::string err;
    EXPECT_TRUE(fault::FaultPlan::parse(planText, plan, &err)) << err;
    const fault::CampaignConfig cfg = smallCampaign();
    const auto spec = fault::pairNamed(cfg, pair);
    EXPECT_TRUE(spec.has_value()) << pair;
    if (!spec)
        return "";
    return fault::replayPlanDetailed(cfg, *spec, plan).verdict;
}

} // namespace

TEST(FaultReplay, TicsSurvivesTornCommitRecord)
{
    EXPECT_EQ(replayVerdict(
                  "BC/TICS", "tear@hdr-store:1/prefix:8;off:12000000"),
              "consistent");
    EXPECT_EQ(replayVerdict("BC/TICS",
                            "tear@hdr-store:1/garbage:4;off:12000000"),
              "consistent");
}

TEST(FaultReplay, TicsSurvivesStaleSlotFlipAfterCommit)
{
    // After commit #2 the stale slot is index 0; flipping its
    // generation bit during the outage must not disturb recovery.
    EXPECT_EQ(replayVerdict(
                  "BC/TICS",
                  "cut@commit:2;flip@1:tics.ckpt.hdr0+4&0x40;"
                  "off:12000000"),
              "consistent");
}

TEST(FaultReplay, MementosGenesisSurvivesPreCheckpointCut)
{
    // Death before the first checkpoint: the fresh boot must restore
    // the genesis snapshot instead of resuming dirty globals.
    EXPECT_EQ(replayVerdict("BC/MementOS-like",
                            "cut@boot:1+200000;off:12000000"),
              "consistent");
    EXPECT_EQ(replayVerdict("Cuckoo/MementOS-like",
                            "cut@boot:1+200000;off:12000000"),
              "consistent");
}

TEST(FaultReplay, TicsSurvivesInterleavedTearOnScalarStore)
{
    // With the small-store fallback the interleave schedule now tears
    // scalar app globals for real; TICS must still recover.
    EXPECT_EQ(replayVerdict("BC/TICS",
                            "tear@store:1/interleave:0;off:12000000"),
              "consistent");
}

TEST(FaultReplay, PlainCTornStoreViolates)
{
    EXPECT_NE(replayVerdict("BC/plain-C",
                            "tear@store:1/garbage:4;off:12000000"),
              "consistent");
}

TEST(FaultReplay, UnknownPairIsReported)
{
    EXPECT_FALSE(fault::pairNamed(smallCampaign(), "Nope/Nada"));
}

// ---- Campaign --------------------------------------------------------------

TEST(FaultCampaign, ProtectionSplitHoldsAndIsSeedDeterministic)
{
    const fault::CampaignConfig cfg = smallCampaign();
    const fault::CampaignReport r1 = fault::runCampaign(cfg);
    EXPECT_TRUE(r1.ok());
    EXPECT_FALSE(r1.truncated);
    ASSERT_EQ(r1.pairs.size(), 10u);
    for (const auto &p : r1.pairs) {
        EXPECT_TRUE(p.refCompleted) << p.app << "/" << p.runtime;
        if (p.isProtected) {
            EXPECT_EQ(p.violations, 0u) << p.app << "/" << p.runtime;
        } else {
            EXPECT_GT(p.violations, 0u) << p.app << "/" << p.runtime;
            EXPECT_FALSE(p.found.empty());
        }
        for (const auto &v : p.found) {
            EXPECT_TRUE(v.replayVerified) << v.plan;
            EXPECT_FALSE(v.kind.empty());
        }
    }

    // Same seed, same campaign — including every minimized schedule.
    const fault::CampaignReport r2 = fault::runCampaign(cfg);
    ASSERT_EQ(r2.pairs.size(), r1.pairs.size());
    EXPECT_EQ(r2.totalSchedules, r1.totalSchedules);
    EXPECT_EQ(r2.totalViolations, r1.totalViolations);
    for (std::size_t i = 0; i < r1.pairs.size(); ++i) {
        ASSERT_EQ(r2.pairs[i].found.size(), r1.pairs[i].found.size());
        for (std::size_t j = 0; j < r1.pairs[i].found.size(); ++j)
            EXPECT_EQ(r2.pairs[i].found[j].plan,
                      r1.pairs[i].found[j].plan);
    }
}

// ---- the ticsfault CLI ------------------------------------------------------

#ifdef TICSIM_TICSFAULT_BIN

namespace {

/** Run ticsfault with @p args, output discarded; @return its exit
 *  status (-1 if it did not exit normally). */
int
runTicsfault(const std::string &args)
{
    const std::string cmd = std::string("'") + TICSIM_TICSFAULT_BIN +
                            "' " + args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(FaultCli, ExploreJobsZeroRunsOnEveryHardwareThread)
{
    // --jobs 0 means every hardware thread in both modes; the report
    // records the resolved count, and the census does not depend on it.
    const std::string stem = ::testing::TempDir() + "ticsfault-jobs-" +
                             std::to_string(::getpid());
    const std::string all = stem + "-0.json";
    const std::string one = stem + "-1.json";
    ASSERT_EQ(runTicsfault("--explore --app BC --jobs 0 --json '" + all +
                           "'"),
              0);
    ASSERT_EQ(runTicsfault("--explore --app BC --jobs 1 --json '" + one +
                           "'"),
              0);
    const std::string docAll = slurp(all);
    const std::string docOne = slurp(one);
    std::remove(all.c_str());
    std::remove(one.c_str());
    EXPECT_NE(docAll.find("\"jobs\":" +
                          std::to_string(sweep::JobPool::defaultJobs()) +
                          ","),
              std::string::npos)
        << docAll;
    EXPECT_NE(docOne.find("\"jobs\":1,"), std::string::npos) << docOne;
    const auto rows = [](const std::string &doc) {
        const auto at = doc.find("\"pairs\":");
        return at == std::string::npos ? std::string() : doc.substr(at);
    };
    ASSERT_NE(rows(docAll).find("\"app\":\"BC\""), std::string::npos);
    EXPECT_EQ(rows(docAll), rows(docOne));
}

TEST(FaultCli, RejectsFlagsOfAnotherMode)
{
    // Each refusal happens while parsing, before any run starts.
    EXPECT_EQ(runTicsfault("--campaign --max-faults 2"), 2);
    EXPECT_EQ(runTicsfault("--explore --random 3"), 2);
    EXPECT_EQ(runTicsfault("--explore --patterns x"), 2);
    EXPECT_EQ(runTicsfault("--replay 'BC/plain-C:cut@commit:1;"
                           "off:12000000' --app BC"),
              2);
    EXPECT_EQ(runTicsfault("--explore --replay 'BC/plain-C:cut@commit:1;"
                           "off:12000000' --max-faults 2"),
              2);
    EXPECT_EQ(runTicsfault("--campaign --explore"), 2);
    EXPECT_EQ(runTicsfault("--explore --max-faults 0"), 2);
}

TEST(FaultCli, UnknownReplayPairExitsTwo)
{
    EXPECT_EQ(runTicsfault("--replay 'Nope/Nada:cut@commit:1;off:12000000'"),
              2);
    EXPECT_EQ(runTicsfault("--replay 'AR/TICS:cut@commit:1;off:12000000'"),
              2);
    EXPECT_EQ(runTicsfault("--replay 'CF:cut@commit:1;off:12000000'"), 2);
    // An empty --replay is a malformed replay, not a campaign.
    EXPECT_EQ(runTicsfault("--replay ''"), 2);
}

TEST(FaultCli, ReplayRunsTheProgramOfTheSelectedMode)
{
    // The campaign's BC (64 iterations) reaches a 33rd app store, and
    // plain C does not survive tearing it.
    const std::string plan =
        "'BC/plain-C:tear@store:33/prefix:4;off:12000000'";
    EXPECT_EQ(runTicsfault("--replay " + plan), 1);
    EXPECT_EQ(runTicsfault("--campaign --replay " + plan), 1);
    // The explorer's BC (2 iterations) has 5 decision points in all, so
    // the tear never fires: consistent, but unreliable.
    EXPECT_EQ(runTicsfault("--explore --replay " + plan), 3);
}

#endif // TICSIM_TICSFAULT_BIN
