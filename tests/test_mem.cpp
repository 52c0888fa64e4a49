/**
 * @file
 * Unit tests for the memory substrate: arena allocation/alignment,
 * typed nv<> accessors, the NV port's store order and per-thread
 * slots, and the Table 3 footprint ledger.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "mem/footprint.hpp"
#include "mem/journal.hpp"
#include "mem/nv.hpp"
#include "mem/nvram.hpp"
#include "runtimes/plainc.hpp"
#include "tics/checkpoint_area.hpp"
#include "tics/undo_log.hpp"

using namespace ticsim;
using namespace ticsim::mem;

TEST(NvRam, AllocatesAlignedRegions)
{
    NvRam ram(4096);
    const Addr a = ram.allocate("a", 3, 1);
    const Addr b = ram.allocate("b", 8, 8);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_GT(b, a);
    EXPECT_EQ(ram.regions().size(), 2u);
    EXPECT_EQ(ram.regions()[0].name, "a");
    EXPECT_GE(ram.used(), 11u);
}

TEST(NvRam, AllocatedBytesAndPaddingStartZero)
{
    // The arena is not cleared at construction; allocate() zeroes each
    // region and the padding before it. Dirty the unallocated space
    // before every allocation, so stale bytes would show if it didn't.
    NvRam ram(4096);
    const auto scribble = [&ram] {
        for (Addr a = ram.used(); a < ram.size(); ++a)
            *ram.hostPtr(a) = 0xA5;
    };
    const std::pair<std::uint32_t, std::uint32_t> sizeAlign[] = {
        {3, 1}, {5, 64}, {1, 8}, {100, 16}, {0, 256}, {7, 2}, {24, 8}};
    for (const auto &[size, align] : sizeAlign) {
        scribble();
        const std::uint32_t before = ram.used();
        const Addr a = ram.allocate("r" + std::to_string(before), size,
                                    align);
        EXPECT_EQ(a % align, 0u);
        for (Addr x = 0; x < ram.used(); ++x)
            ASSERT_EQ(*ram.hostPtr(x), 0u) << "byte " << x;
    }
    // The padding cases above really padded.
    EXPECT_GT(ram.used(), 3u + 5 + 1 + 100 + 0 + 7 + 24);
}

TEST(NvRam, HostPointerRoundTrip)
{
    NvRam ram(1024);
    const Addr a = ram.allocate("x", 16);
    auto *p = ram.hostPtr(a);
    EXPECT_TRUE(ram.contains(p));
    EXPECT_TRUE(ram.contains(p + 15));
    EXPECT_EQ(ram.addrOf(p), a);
    int onStack = 0;
    EXPECT_FALSE(ram.contains(&onStack));
}

namespace {

/** Recording hooks for interception tests. */
struct SpyHooks : MemHooks {
    std::vector<std::pair<void *, std::uint32_t>> writes;

    void
    preWrite(void *p, std::uint32_t n) override
    {
        writes.emplace_back(p, n);
    }
};

} // namespace

TEST(Nv, WritesRouteThroughHooks)
{
    NvRam ram(1024);
    nv<int> x(ram, "x");
    SpyHooks spy;
    {
        ScopedHooks sh(&spy);
        x = 42;
        EXPECT_EQ(static_cast<int>(x), 42);
    }
    ASSERT_EQ(spy.writes.size(), 1u);
    EXPECT_EQ(spy.writes[0].first, x.raw());
    EXPECT_EQ(spy.writes[0].second, sizeof(int));
}

TEST(Nv, HooksCapturePreWriteState)
{
    NvRam ram(1024);
    nv<int> x(ram, "x", 7);

    struct UndoingHooks : MemHooks {
        int captured = -1;
        void
        preWrite(void *p, std::uint32_t n) override
        {
            ASSERT_EQ(n, sizeof(int));
            std::memcpy(&captured, p, n); // must see the OLD value
        }
    } hooks;
    ScopedHooks sh(&hooks);
    x = 9;
    EXPECT_EQ(hooks.captured, 7);
    EXPECT_EQ(x.get(), 9);
}

TEST(Nv, CompoundOperators)
{
    NvRam ram(1024);
    nv<int> x(ram, "x", 10);
    x += 5;
    EXPECT_EQ(x.get(), 15);
    x -= 3;
    EXPECT_EQ(x.get(), 12);
    ++x;
    EXPECT_EQ(x.get(), 13);
}

TEST(Nv, ScopedHooksRestorePrevious)
{
    NvRam ram(1024);
    nv<int> x(ram, "x");
    SpyHooks outer;
    SpyHooks inner;
    {
        ScopedHooks a(&outer);
        x = 1;
        {
            ScopedHooks b(&inner);
            x = 2;
        }
        x = 3;
    }
    x = 4; // no barrier installed any more
    EXPECT_EQ(outer.writes.size(), 2u);
    EXPECT_EQ(inner.writes.size(), 1u);
    EXPECT_EQ(x.get(), 4);
}

TEST(NvArray, ElementAccessAndHooks)
{
    NvRam ram(2048);
    nvArray<std::uint16_t, 8> arr(ram, "arr");
    SpyHooks spy;
    {
        ScopedHooks sh(&spy);
        arr.set(3, 77);
        EXPECT_EQ(arr.get(3), 77);
    }
    ASSERT_EQ(spy.writes.size(), 1u);
    EXPECT_EQ(spy.writes[0].first, arr.raw() + 3);
    EXPECT_EQ(arr.size(), 8u);
}

// ---- the NV port ----------------------------------------------------------

namespace {

std::string
hexOf(const void *p, std::uint32_t n)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto b = static_cast<const std::uint8_t *>(p)[i];
        out += kDigits[b >> 4];
        out += kDigits[b & 0xF];
    }
    return out;
}

/** Barrier that logs each call with the bytes it found in place. */
struct LoggingBarrier : MemHooks {
    std::vector<std::string> &log;
    explicit LoggingBarrier(std::vector<std::string> &l) : log(l) {}

    void
    preWrite(void *p, std::uint32_t n) override
    {
        log.push_back("barrier old=" + hexOf(p, n));
    }
};

/** Sink that logs memWrite and store(), then lands the plain copy. */
struct LoggingSink : AccessSink {
    std::vector<std::string> &log;
    explicit LoggingSink(std::vector<std::string> &l) : log(l) {}

    void
    memWrite(const void *, std::uint32_t n) override
    {
        log.push_back("memWrite " + std::to_string(n));
    }

    void
    store(StoreSite site, void *dst, const void *src,
          std::uint32_t bytes) override
    {
        log.push_back(std::string("store ") + storeSiteName(site) + " " +
                      std::to_string(bytes));
        AccessSink::store(site, dst, src, bytes);
    }
};

using Calls = std::vector<std::string>;

} // namespace

TEST(NvPort, StoreOrder)
{
    NvRam ram(8192);
    nv<std::uint32_t> x(ram, "x", 0x11223344u);
    nvArray<std::uint16_t, 4> arr(ram, "arr");
    std::uint64_t raw = 0;
    runtimes::PlainCRuntime rt;
    tics::UndoLog undo(ram, "undo", 256, 8);
    tics::CheckpointArea area(ram, "ckpt", 64);
    tics::CheckpointArea::Slot &slot = area.writeSlot();
    slot.imgLow = 0;
    slot.imgSize = 16;

    Calls log;
    LoggingBarrier barrier(log);
    LoggingSink sink(log);
    ScopedHooks hb(&barrier);
    ScopedSink hs(&sink);

    // Application stores: barrier (old bytes still in place), then
    // memWrite, then store(AppGlobal), for every front end.
    const std::uint32_t oldX = x.get();
    x = 0xAABBCCDDu;
    EXPECT_EQ(log, (Calls{"barrier old=" + hexOf(&oldX, 4), "memWrite 4",
                          "store store 4"}));
    EXPECT_EQ(x.get(), 0xAABBCCDDu);

    log.clear();
    arr.set(2, 0x5A5A);
    const std::uint16_t zero16 = 0;
    EXPECT_EQ(log, (Calls{"barrier old=" + hexOf(&zero16, 2),
                          "memWrite 2", "store store 2"}));
    EXPECT_EQ(arr.get(2), 0x5A5A);

    log.clear();
    const std::uint64_t v = 0x0102030405060708ull;
    rt.storeBytes(&raw, &v, sizeof v);
    const std::uint64_t zero64 = 0;
    EXPECT_EQ(log, (Calls{"barrier old=" + hexOf(&zero64, 8),
                          "memWrite 8", "store store 8"}));
    EXPECT_EQ(raw, v);

    // Protocol stores reach only store(): no barrier, no memWrite.
    log.clear();
    std::uint8_t saved[6] = {1, 2, 3, 4, 5, 6};
    undo.append(saved, sizeof saved);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], "store undo-store 6");
    EXPECT_EQ(log[1].rfind("store undo-store ", 0), 0u) << log[1];

    log.clear();
    area.commit();
    EXPECT_EQ(log, (Calls{"store hdr-store " +
                          std::to_string(sizeof(
                              tics::CheckpointArea::SlotHeader))}));
}

TEST(NvPort, SlotsArePerThread)
{
    struct Tally : MemHooks, AccessSink {
        std::vector<const void *> barrierAt;
        std::vector<const void *> memWriteAt;
        std::vector<const void *> storeAt;

        void
        preWrite(void *p, std::uint32_t) override
        {
            barrierAt.push_back(p);
        }
        void
        memWrite(const void *p, std::uint32_t) override
        {
            memWriteAt.push_back(p);
        }
        void
        store(StoreSite, void *dst, const void *src,
              std::uint32_t bytes) override
        {
            storeAt.push_back(dst);
            journalNote(dst, bytes); // as the explorer's sinks do
            std::memcpy(dst, src, bytes);
        }
    };
    struct Outcome {
        Tally tally;
        const void *slot = nullptr;
        std::size_t journalRecords = 0;
        std::uint64_t afterUndo = 0;
    };

    std::atomic<int> ready{0};
    const auto work = [&ready](std::uint64_t stores, Outcome &out) {
        NvRam ram(1024);
        nv<std::uint64_t> x(ram, "x", 1000 + stores);
        out.slot = x.raw();
        WriteJournal journal;
        ScopedHooks hb(&out.tally);
        ScopedSink hs(&out.tally);
        ScopedWriteJournal hj(&journal);
        // Both threads hold installed slots before either stores.
        ++ready;
        while (ready.load() < 2)
            std::this_thread::yield();
        for (std::uint64_t i = 0; i < stores; ++i)
            x = i;
        out.journalRecords = journal.records();
        journal.undoTo(0);
        out.afterUndo = x.get();
    };

    Outcome a;
    Outcome b;
    std::thread ta(work, 300, std::ref(a));
    std::thread tb(work, 700, std::ref(b));
    ta.join();
    tb.join();

    for (const auto *o : {&a, &b}) {
        const std::size_t n = o == &a ? 300 : 700;
        EXPECT_EQ(o->tally.barrierAt, std::vector<const void *>(n, o->slot));
        EXPECT_EQ(o->tally.memWriteAt,
                  std::vector<const void *>(n, o->slot));
        EXPECT_EQ(o->tally.storeAt, std::vector<const void *>(n, o->slot));
        EXPECT_EQ(o->journalRecords, n);
        EXPECT_EQ(o->afterUndo, 1000 + n); // every note was this x's
    }
    // The main thread's port was never touched.
    EXPECT_EQ(mem::detail::g_port.barrier, nullptr);
    EXPECT_EQ(mem::detail::g_port.sink, nullptr);
    EXPECT_EQ(mem::detail::g_port.journal, nullptr);
}

TEST(Footprint, TotalsHonorExclusions)
{
    Footprint f;
    f.add("code", 1000, 0);
    f.add("buffers", 0, 256);
    f.add("segment array", 0, 4096, /*excluded=*/true);
    EXPECT_EQ(f.textTotal(), 1000u);
    EXPECT_EQ(f.dataTotal(), 256u);
    EXPECT_EQ(f.items().size(), 3u);
    f.clear();
    EXPECT_EQ(f.dataTotal(), 0u);
}
