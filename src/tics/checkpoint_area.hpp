/**
 * @file
 * Double-buffered checkpoint storage with a failure-atomic,
 * NV-validated commit (paper Section 4 "Automatic Checkpoints",
 * hardened per DESIGN.md Section 8).
 *
 * Two slots alternate as write target and valid restore point. Commit
 * persists a small NV header — magic, generation counter, image
 * geometry, CRC-32 over the header fields and the live image bytes —
 * as the *last* store of the protocol, so the header is the commit
 * point: a power failure at any instant before or during the header
 * store (including a torn multi-byte header write) leaves the previous
 * generation's header intact and recovery falls back to it.
 *
 * Validity is derived from the NV headers on every boot, not from host
 * bookkeeping: valid() revalidates both headers (magic, geometry
 * bounds, CRC over the current image bytes) and restores from the
 * highest surviving generation. Retention bit flips in a header or an
 * image therefore demote that slot instead of restoring garbage.
 *
 * Each slot additionally holds the machine-register snapshot and the
 * stack-segmentation bookkeeping. The *modeled* checkpoint payload is
 * registers + one working segment (what the cost model charges); the
 * host image covers the live stack region for bit-exact resume
 * mechanics (see DESIGN.md Section 4). The CRC computation is modeled
 * at zero extra cycles — on FRAM hardware it rides along the
 * sequential image write/read the checkpoint and restore costs
 * already charge.
 */

#ifndef TICSIM_TICS_CHECKPOINT_AREA_HPP
#define TICSIM_TICS_CHECKPOINT_AREA_HPP

#include <cstdint>
#include <string>

#include "context/exec_context.hpp"
#include "mem/nvram.hpp"
#include "support/statebuf.hpp"
#include "tics/segmentation.hpp"

namespace ticsim::board {
class Board;
}

namespace ticsim::tics {

class CheckpointArea
{
  public:
    struct Slot {
        context::RegSlot regs;
        Segmentation seg;
        std::uintptr_t imgLow = 0;
        std::uint32_t imgSize = 0;
        std::uint8_t *image = nullptr; ///< NV pool of imageCapacity bytes
    };

    /**
     * NV-resident per-slot commit record. The layout is part of the
     * fault model: tears and bit flips land on these exact bytes.
     * No padding (4+4+8+4+4 = 24 bytes); crc is last so a prefix-torn
     * header always fails validation.
     */
    struct SlotHeader {
        std::uint32_t magic = 0;
        std::uint32_t generation = 0; ///< 1-based, monotonic across slots
        std::uint64_t imgLow = 0;
        std::uint32_t imgSize = 0;
        std::uint32_t crc = 0; ///< over the fields above + image bytes
    };

    static constexpr std::uint32_t kMagic = 0x54434B31u; // "TCK1"

    /**
     * @param ram Arena for the image pools and headers.
     * @param name Region-name prefix.
     * @param imageCapacity Host bytes reserved per slot (the full app
     *                      stack buffer size; actual images are the
     *                      live region only).
     */
    CheckpointArea(mem::NvRam &ram, const std::string &name,
                   std::uint32_t imageCapacity);

    /** The slot the next checkpoint writes into (never the valid one). */
    Slot &writeSlot() { return slots_[writeIndex()]; }

    /**
     * The committed restore point, or nullptr before the first commit
     * or after every header failed validation. Revalidates both NV
     * headers (magic, bounds, CRC against the current image bytes),
     * picks the highest valid generation, and refreshes the slot's
     * image geometry from the committed header.
     */
    Slot *valid();

    /**
     * Commit the write slot: derive the next generation from the NV
     * headers and persist the slot's header (a gated NV store — the
     * single commit point) with a CRC sealing the image bytes.
     */
    void commit();

    /** Drop both restore points (fresh-start experiments). */
    void invalidate();

    /** Index of the slot writeSlot() returns (for parallel buffers). */
    int writeIndex() const { return validIdx_ == 0 ? 1 : 0; }

    /** Index of the committed slot as of the last valid()/commit(),
     *  or -1. NV headers are the ground truth; this is a cache. */
    int validIndex() const { return validIdx_; }

    std::uint32_t imageCapacity() const { return imageCapacity_; }

    // ---- fault-injection / test surface ----------------------------------

    /** Committed generation recorded in slot @p i's header, or 0 when
     *  the header fails validation. */
    std::uint32_t generation(int i);

    /** Raw NV bytes of slot @p i's header (tests corrupt these). */
    std::uint8_t *headerHostPtr(int i);

    /** Headers that carried the magic but failed CRC/bounds validation
     *  (torn commits and retention flips detected and demoted). */
    std::uint64_t rejectedHeaders() const { return rejected_; }

    /**
     * Host-side snapshot/restore for the failure-space explorer. The
     * NV headers and image pools are restored by the write journal;
     * this covers the host fields: both slots' register snapshots,
     * segmentation copies and image geometry, plus the validity cache
     * and rejection counter.
     */
    void
    saveHostState(StateWriter &w) const
    {
        for (const Slot &s : slots_) {
            w.put(s.regs);
            w.put(s.seg);
            w.put(s.imgLow);
            w.put(s.imgSize);
        }
        w.put(validIdx_);
        w.put(rejected_);
    }
    void
    loadHostState(StateReader &r)
    {
        for (Slot &s : slots_) {
            s.regs = r.get<context::RegSlot>();
            s.seg = r.get<Segmentation>();
            s.imgLow = r.get<std::uintptr_t>();
            s.imgSize = r.get<std::uint32_t>();
        }
        validIdx_ = r.get<std::int8_t>();
        rejected_ = r.get<std::uint64_t>();
    }

  private:
    /** Parse + validate header @p i; true iff restorable. */
    bool headerValid(int i, SlotHeader &out);

    std::uint32_t headerCrc(const SlotHeader &h,
                            const std::uint8_t *image) const;

    Slot slots_[2];
    SlotHeader *hdr_[2] = {nullptr, nullptr}; ///< in NvRam
    std::int8_t validIdx_ = -1;
    std::uint32_t imageCapacity_;
    std::uint64_t rejected_ = 0;
};

/**
 * Capture the machine registers and the live host stack image into
 * @p slot. The context::save() and the image copy happen in this one
 * frame, *in that order*, so every stack byte the resume path can read
 * — including this function's own spill slots — is part of the image.
 * Callers on the capture path then fill the slot's remaining fields
 * and commit; on the resume path they must return immediately.
 *
 * @return true on the capture path; false when execution re-entered
 *         the capture point through ExecContext::prepareResume().
 */
bool captureStackImage(board::Board &b, CheckpointArea::Slot &slot,
                       std::uint32_t redzoneBytes);

/** Restore the stack image saved in @p slot (reboot path). */
void restoreStackImage(const CheckpointArea::Slot &slot);

} // namespace ticsim::tics

#endif // TICSIM_TICS_CHECKPOINT_AREA_HPP
