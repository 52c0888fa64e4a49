/**
 * @file
 * Simulated byte-addressable non-volatile memory (FRAM).
 *
 * All modeled persistent state lives in one NvRam arena: the segmented
 * stack array, checkpoint double buffers, undo log, runtime control
 * blocks and application globals. Contents survive simulated power
 * failures by construction (the arena is ordinary host memory that the
 * Board never clears), exactly like FRAM on an MSP430FR5969. Volatility
 * is modeled the other way around: anything *not* in the arena —
 * machine registers and abandoned execution contexts — is what a power
 * failure destroys.
 *
 * Zero on allocate: the arena's host memory is left uninitialised at
 * construction, and allocate() zeroes each new region together with
 * the alignment padding before it. Every byte in [0, used()) therefore
 * starts at zero, as if the whole arena had been cleared; bytes at or
 * above used() are unspecified. No model reads them: every reader —
 * the app stack (the first region, at address 0), runtime NV state,
 * the replay oracle, the fault injector's flips, the write journal —
 * goes through allocated regions. A Board builds its arena once per
 * cell and typically allocates a fifth to three fifths of it, so this
 * keeps the host from clearing bytes nothing will touch.
 */

#ifndef TICSIM_MEM_NVRAM_HPP
#define TICSIM_MEM_NVRAM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/units.hpp"

namespace ticsim::mem {

/** A named allocation inside the arena. */
struct NvRegion {
    std::string name;
    Addr base = 0;
    std::uint32_t size = 0;
};

/**
 * Bump-allocated non-volatile arena with named regions. Region layout
 * is fixed for the lifetime of an experiment (embedded firmware has a
 * static memory map).
 */
class NvRam
{
  public:
    /** @param size Arena size in bytes (MSP430FR5969: 64 KiB). */
    explicit NvRam(std::uint32_t size = 64 * 1024);

    /**
     * Allocate a named region, zeroed along with the padding that
     * aligns it.
     * @param align Alignment of the region base (power of two).
     * @return base address of the region.
     */
    Addr allocate(const std::string &name, std::uint32_t size,
                  std::uint32_t align = 8);

    /** Host pointer to a modeled address. */
    std::uint8_t *hostPtr(Addr a);
    const std::uint8_t *hostPtr(Addr a) const;

    /** Modeled address of a host pointer into the arena. */
    Addr addrOf(const void *hostPtr) const;

    /** Whether a host pointer points into the arena. */
    bool contains(const void *hostPtr) const;

    std::uint32_t size() const { return size_; }
    std::uint32_t used() const { return next_; }
    std::uint32_t remaining() const { return size_ - next_; }

    const std::vector<NvRegion> &regions() const { return regions_; }

    /**
     * The named region covering modeled address @p a, or nullptr for
     * addresses in unallocated arena space. Regions are bump-allocated
     * in address order, so this is a binary search.
     */
    const NvRegion *regionAt(Addr a) const;

  private:
    std::uint32_t size_;
    std::uint32_t next_ = 0;
    std::unique_ptr<std::uint8_t[]> data_; ///< zeroed below next_ only
    std::vector<NvRegion> regions_;
};

} // namespace ticsim::mem

#endif // TICSIM_MEM_NVRAM_HPP
