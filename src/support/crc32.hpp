/**
 * @file
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte
 * ranges. Used by the crash-consistency machinery to seal and validate
 * checkpoint slot headers and undo-log records after torn writes or
 * retention bit flips.
 *
 * Two kernels compute the same sum. On x86-64 hosts with PCLMULQDQ and
 * SSE4.1 (checked once, at run time), inputs of 64 bytes or more are
 * folded with carry-less multiplies: four 16-byte lanes per 64-byte
 * step, then one lane per 16-byte step, then a Barrett reduction to 32
 * bits. Everything else — inputs under 64 bytes (undo-log records,
 * slot headers), the sub-16-byte tail of a folded input, and hosts
 * without the instruction — runs the portable slicing-by-8 kernel:
 * eight constexpr 256-entry tables fold eight input bytes per step,
 * with a bytewise tail. Both compute exactly the bytewise CRC (same
 * polynomial, same seed chaining), so every stored CRC is
 * bit-identical whichever kernel sealed it. Neither is the SSE4.2
 * `crc32` instruction, which computes CRC-32C.
 */

#ifndef TICSIM_SUPPORT_CRC32_HPP
#define TICSIM_SUPPORT_CRC32_HPP

#include <cstddef>
#include <cstdint>

namespace ticsim {

/** CRC-32 of [p, p+n), continuing from @p seed (pass the previous
 *  result to chain discontiguous ranges; 0 starts a fresh sum). */
std::uint32_t crc32(const void *p, std::size_t n, std::uint32_t seed = 0);

namespace detail {

/** crc32() on the portable slicing-by-8 kernel alone, whatever the
 *  host supports; exposed so tests cover it on every host. */
std::uint32_t crc32Portable(const void *p, std::size_t n,
                            std::uint32_t seed = 0);

} // namespace detail

} // namespace ticsim

#endif // TICSIM_SUPPORT_CRC32_HPP
