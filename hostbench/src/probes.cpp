/**
 * @file
 * Outside-in layer microbenchmarks. Each one times calls into one
 * module's public functions with a fixed, seeded input so the work is
 * identical on every run and every workload; only the host time
 * varies. Times are the median of kReps repetitions.
 */

#include <malloc.h>

#include <cstring>
#include <memory>
#include <vector>

#include "energy/supply.hpp"
#include "harness/experiment.hpp"
#include "hostbench.hpp"
#include "mem/nv.hpp"
#include "mem/nvram.hpp"
#include "mem/store_gate.hpp"
#include "mem/trace.hpp"
#include "support/crc32.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "tics/checkpoint_area.hpp"
#include "tics/undo_log.hpp"

using namespace ticsim;

namespace hostbench {

namespace {

constexpr int kReps = 5;

/** Median ns per operation of @p body (which runs @p ops operations
 *  and returns a value folded into a sink so it cannot be elided). */
template <typename Body>
double
nsPerOp(std::uint64_t ops, const Body &body)
{
    std::vector<double> samples;
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        sink = sink + body();
        samples.push_back(secondsSince(t0) * 1e9 /
                          static_cast<double>(ops));
    }
    return median(samples);
}

/** Sink that only tallies deliveries. */
class CountingSink final : public mem::AccessSink
{
  public:
    void memRead(const void *, std::uint32_t) override {}
    void memWrite(const void *, std::uint32_t) override { ++writes; }
    void memVersioned(const void *, std::uint32_t) override {}
    void powerOn() override {}
    void commit() override {}

    std::uint64_t writes = 0;
};

/** Pass-through gate: the dispatch cost without a tear. */
class PassGate final : public mem::StoreGate
{
  public:
    void store(mem::StoreSite, void *dst, const void *src,
               std::uint32_t bytes) override
    {
        std::memcpy(dst, src, bytes);
    }
};

void
probeCrc(Metrics &out)
{
    constexpr std::uint64_t kKiB = 16'384;
    std::vector<std::uint8_t> buf(1024);
    Rng rng(0xC5C);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    putValue(out, "support.crc32_ns_per_kib",
             nsPerOp(kKiB,
                     [&] {
                         std::uint32_t c = 0;
                         for (std::uint64_t i = 0; i < kKiB; ++i)
                             c = crc32(buf.data(), buf.size(), c);
                         return std::uint64_t{c};
                     }),
             "ns");
}

void
probeUndoAndCheckpoint(Metrics &out)
{
    constexpr std::uint64_t kAppends = 200'000;
    putValue(out, "tics.undo_append_ns",
             nsPerOp(kAppends,
                     [] {
                         mem::NvRam ram;
                         tics::UndoLog log(ram, "hb.undo", 8192, 512);
                         std::uint8_t src[16] = {};
                         for (std::uint64_t i = 0; i < kAppends; ++i) {
                             std::memcpy(src, &i, sizeof(i));
                             log.append(src, sizeof(src));
                             if (log.entryCount() == 64)
                                 log.clear();
                         }
                         return std::uint64_t{log.entryCount()};
                     }),
             "ns");

    constexpr std::uint64_t kCommits = 10'000;
    putValue(out, "tics.ckpt_commit_ns",
             nsPerOp(kCommits,
                     [] {
                         mem::NvRam ram;
                         tics::CheckpointArea area(ram, "hb.ckpt", 4096);
                         for (std::uint64_t i = 0; i < kCommits; ++i) {
                             tics::CheckpointArea::Slot &slot =
                                 area.writeSlot();
                             slot.imgLow = 0;
                             slot.imgSize = 256;
                             std::memcpy(slot.image, &i, sizeof(i));
                             area.commit();
                         }
                         if (area.valid() == nullptr)
                             fatal("hostbench: checkpoint not recoverable");
                         return std::uint64_t{1};
                     }),
             "ns");
}

void
probeNvStores(Metrics &out)
{
    constexpr std::uint64_t kStores = 1'000'000;
    mem::NvRam ram;
    mem::nv<std::uint64_t> x(ram, "hb.x");
    const auto storeLoop = [&] {
        for (std::uint64_t i = 0; i < kStores; ++i)
            x = i;
        return static_cast<std::uint64_t>(x);
    };
    putValue(out, "mem.nv_store_ns", nsPerOp(kStores, storeLoop), "ns");
    {
        PassGate gate;
        mem::ScopedGate g(&gate);
        putValue(out, "mem.nv_store_gated_ns", nsPerOp(kStores, storeLoop),
                 "ns");
    }
    CountingSink sink;
    {
        mem::ScopedSink s(&sink);
        putValue(out, "mem.nv_store_sink_ns", nsPerOp(kStores, storeLoop),
                 "ns");
    }
    if (sink.writes != kStores * kReps)
        fatal("hostbench: sink saw %llu of %llu stores",
              static_cast<unsigned long long>(sink.writes),
              static_cast<unsigned long long>(kStores * kReps));
}

struct SupplyKindSpec {
    const char *name;
    harness::SupplySpec spec;
};

std::vector<SupplyKindSpec>
supplyKinds()
{
    harness::SupplySpec rf;
    rf.setup = harness::PowerSetup::RfHarvested;
    harness::SupplySpec stochastic;
    stochastic.setup = harness::PowerSetup::Stochastic;
    harness::SupplySpec trace;
    trace.setup = harness::PowerSetup::TraceEnv;
    trace.traceEnv = "solar_diurnal";
    return {
        {"continuous", harness::continuousSpec()},
        {"pattern", harness::patternSpec(30 * kNsPerMs, 0.6)},
        {"rf", rf},
        {"stochastic", stochastic},
        {"trace", trace},
    };
}

/**
 * Drive one supply with a fixed seeded sequence of load intervals, as
 * Board::drainCycles does, recharging through offTimeAfterDeath after
 * every brown-out. Reports ns per drain() (loop time minus the timed
 * off-time calls) and ns per offTimeAfterDeath().
 */
void
probeSupply(const SupplyKindSpec &k, Metrics &out, bool withOffTime)
{
    constexpr std::uint64_t kDrains = 100'000;
    std::vector<double> drainNs;
    std::vector<double> offNs;
    for (int r = 0; r < kReps; ++r) {
        const std::unique_ptr<energy::Supply> s = harness::makeSupply(k.spec);
        Rng rng(0xD7A1);
        TimeNs now = 0;
        double offSec = 0.0;
        std::uint64_t offCalls = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kDrains; ++i) {
            const auto dur = static_cast<TimeNs>(rng.range(1'000, 400'000));
            const energy::DrainResult d = s->drain(now, dur, 0.75e-3);
            now += d.ranFor;
            if (d.died) {
                const auto o0 = Clock::now();
                now += s->offTimeAfterDeath(now);
                offSec += secondsSince(o0);
                ++offCalls;
            }
        }
        const double loopSec = secondsSince(t0);
        drainNs.push_back((loopSec - offSec) * 1e9 /
                          static_cast<double>(kDrains));
        if (offCalls > 0)
            offNs.push_back(offSec * 1e9 / static_cast<double>(offCalls));
    }
    putValue(out, std::string("energy.drain_ns.") + k.name, median(drainNs),
             "ns");
    if (withOffTime) {
        if (offNs.empty())
            fatal("hostbench: %s supply never browned out", k.name);
        putValue(out, std::string("energy.off_time_ns.") + k.name,
                 median(offNs), "ns");
    }
}

/** Heap bytes in use, mmapped chunks included. */
std::size_t
heapBytes()
{
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

void
probeBoards(const std::vector<SupplyKindSpec> &kinds, Metrics &out)
{
    constexpr int kBoards = 40;
    for (const SupplyKindSpec &k : kinds) {
        std::vector<double> us;
        std::size_t bytes = 0;
        for (int r = 0; r < kReps; ++r) {
            const auto t0 = Clock::now();
            for (int i = 0; i < kBoards; ++i) {
                auto b = harness::makeBoard(k.spec, 11);
                if (!b)
                    fatal("hostbench: makeBoard(%s) failed", k.name);
            }
            us.push_back(secondsSince(t0) * 1e6 / kBoards);
        }
        const std::size_t before = heapBytes();
        {
            auto b = harness::makeBoard(k.spec, 11);
            const std::size_t live = heapBytes();
            bytes = live > before ? live - before : 0;
        }
        putValue(out, std::string("board.construct_us.") + k.name,
                 median(us), "us");
        putCount(out, std::string("board.construct_bytes.") + k.name, bytes,
                 "bytes");
    }
}

} // namespace

void
runLayerProbes(Metrics &out)
{
    probeCrc(out);
    probeUndoAndCheckpoint(out);
    probeNvStores(out);
    const std::vector<SupplyKindSpec> kinds = supplyKinds();
    for (const SupplyKindSpec &k : kinds) {
        const std::string n = k.name;
        if (n == "continuous")
            continue; // drain is O(1) by construction
        probeSupply(k, out, n == "trace");
    }
    probeBoards(kinds, out);
}

} // namespace hostbench
