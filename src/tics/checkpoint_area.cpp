#include "checkpoint_area.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "board/board.hpp"
#include "mem/journal.hpp"
#include "mem/trace.hpp"
#include "perf/counters.hpp"
#include "perf/host_profiler.hpp"
#include "support/crc32.hpp"
#include "support/logging.hpp"

namespace ticsim::tics {

static_assert(sizeof(CheckpointArea::SlotHeader) == 24,
              "slot header must be packed: the fault model addresses "
              "its exact NV bytes");

CheckpointArea::CheckpointArea(mem::NvRam &ram, const std::string &name,
                               std::uint32_t imageCapacity)
    : imageCapacity_(imageCapacity)
{
    for (int i = 0; i < 2; ++i) {
        const auto a = ram.allocate(
            name + ".image" + std::to_string(i), imageCapacity, 16);
        slots_[i].image = ram.hostPtr(a);
        const auto h = ram.allocate(
            name + ".hdr" + std::to_string(i),
            static_cast<std::uint32_t>(sizeof(SlotHeader)), 8);
        hdr_[i] = reinterpret_cast<SlotHeader *>(ram.hostPtr(h));
        // NvRam zeroes each region as it allocates it, so fresh
        // headers fail the magic check and the area starts with no
        // restore point.
    }
}

std::uint32_t
CheckpointArea::headerCrc(const SlotHeader &h,
                          const std::uint8_t *image) const
{
    const std::uint32_t fields =
        crc32(&h, offsetof(SlotHeader, crc));
    return crc32(image, h.imgSize, fields);
}

bool
CheckpointArea::headerValid(int i, SlotHeader &out)
{
    std::memcpy(&out, hdr_[i], sizeof(SlotHeader));
    if (out.magic != kMagic)
        return false; // never committed (or explicitly invalidated)
    if (out.imgSize > imageCapacity_ || out.generation == 0 ||
        headerCrc(out, slots_[i].image) != out.crc) {
        // Looked committed but fails validation: a torn header store
        // or a retention bit flip in the header or the image.
        ++rejected_;
        return false;
    }
    return true;
}

CheckpointArea::Slot *
CheckpointArea::valid()
{
    // Boot-time slot validation (CRC over both images) is the host
    // cost of a restore; the image copy itself must stay scope-free
    // because it runs on — and overwrites — the fiber stack.
    perf::HostScope scope(perf::HostZone::Restore);
    SlotHeader h;
    int best = -1;
    std::uint32_t bestGen = 0;
    SlotHeader bestHdr;
    for (int i = 0; i < 2; ++i) {
        if (headerValid(i, h) && h.generation > bestGen) {
            bestGen = h.generation;
            bestHdr = h;
            best = i;
        }
    }
    validIdx_ = static_cast<std::int8_t>(best);
    if (best < 0)
        return nullptr;
    // Restore geometry from the committed header, not from whatever
    // the host slot fields last held (a later, uncommitted capture may
    // have scribbled on the write slot before dying).
    Slot &s = slots_[best];
    s.imgLow = static_cast<std::uintptr_t>(bestHdr.imgLow);
    s.imgSize = bestHdr.imgSize;
    return &s;
}

std::uint32_t
CheckpointArea::generation(int i)
{
    SlotHeader h;
    return headerValid(i, h) ? h.generation : 0;
}

std::uint8_t *
CheckpointArea::headerHostPtr(int i)
{
    return reinterpret_cast<std::uint8_t *>(hdr_[i]);
}

void
CheckpointArea::commit()
{
    perf::HostScope scope(perf::HostZone::Checkpoint);
    const int w = writeIndex();
    const Slot &s = slots_[w];
    SlotHeader h;
    h.magic = kMagic;
    // Derive the next generation from the NV headers themselves, so a
    // torn previous commit can never fork or rewind the counter.
    SlotHeader cur;
    std::uint32_t maxGen = 0;
    for (int i = 0; i < 2; ++i) {
        if (headerValid(i, cur))
            maxGen = std::max(maxGen, cur.generation);
    }
    h.generation = maxGen + 1;
    h.imgLow = static_cast<std::uint64_t>(s.imgLow);
    h.imgSize = s.imgSize;
    h.crc = headerCrc(h, s.image);
    // The commit point: one gated NV store. Power can fail before it,
    // tear it, or flip its bits later — every such outcome fails
    // validation and recovery falls back to the other slot.
    mem::gatedStore(mem::StoreSite::CkptHeader, hdr_[w], &h,
                    static_cast<std::uint32_t>(sizeof(SlotHeader)));
    validIdx_ = static_cast<std::int8_t>(w);
    {
        perf::HotCounters &c = perf::hot();
        ++c.ckptCommits;
        c.ckptBytesMoved += sizeof(SlotHeader);
    }
}

void
CheckpointArea::invalidate()
{
    for (auto *h : hdr_) {
        mem::journalNote(h, sizeof(SlotHeader));
        *h = SlotHeader{}; // all-zero = fails the magic check
    }
    validIdx_ = -1;
}

bool
captureStackImage(board::Board &b, CheckpointArea::Slot &slot,
                  std::uint32_t redzoneBytes)
{
    auto &ctx = b.ctx();
    ctx.armResumedCheck();
    context::save(slot.regs);
    if (ctx.wasResumed())
        return false;

    const auto base = reinterpret_cast<std::uintptr_t>(ctx.stackBase());
    std::uintptr_t low = context::ExecContext::probeSp();
    low = low > redzoneBytes ? low - redzoneBytes : 0;
    low = std::max(low, base);
    slot.imgLow = low;
    slot.imgSize = static_cast<std::uint32_t>(ctx.stackTop() - low);
    // Journal the image pool overwrite (raw NV write); the stack
    // source itself is exempt from journaling by design.
    mem::journalNote(slot.image, slot.imgSize);
    context::copyStack(slot.image, reinterpret_cast<void *>(low),
                       slot.imgSize);
    // Count on the capture path only (the resume path bailed above);
    // perf::hot() is re-resolved here on purpose — no cached pointer
    // may live across the save() boundary.
    perf::hot().ckptBytesMoved += slot.imgSize;
    return true;
}

void
restoreStackImage(const CheckpointArea::Slot &slot)
{
    {
        perf::HotCounters &c = perf::hot();
        ++c.ckptRestores;
        c.ckptRestoreBytes += slot.imgSize;
    }
    context::copyStack(reinterpret_cast<void *>(slot.imgLow), slot.image,
                       slot.imgSize);
}

} // namespace ticsim::tics
