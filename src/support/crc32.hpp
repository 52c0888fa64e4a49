/**
 * @file
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte
 * ranges. Used by the crash-consistency machinery to seal and validate
 * checkpoint slot headers and undo-log records after torn writes or
 * retention bit flips. The implementation is slicing-by-8: eight
 * constexpr 256-entry tables fold eight input bytes per step, with a
 * bytewise tail, so sealing every undo-log record and revalidating
 * both checkpoint images on each boot stays cheap on the host. It
 * computes exactly the bytewise CRC (same polynomial, same seed
 * chaining), so every stored CRC is bit-identical. It is deliberately
 * not the SSE4.2 `crc32` instruction, which computes CRC-32C.
 */

#ifndef TICSIM_SUPPORT_CRC32_HPP
#define TICSIM_SUPPORT_CRC32_HPP

#include <cstddef>
#include <cstdint>

namespace ticsim {

/** CRC-32 of [p, p+n), continuing from @p seed (pass the previous
 *  result to chain discontiguous ranges; 0 starts a fresh sum). */
std::uint32_t crc32(const void *p, std::size_t n, std::uint32_t seed = 0);

} // namespace ticsim

#endif // TICSIM_SUPPORT_CRC32_HPP
