#include "crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace ticsim {

namespace {

static_assert(std::endian::native == std::endian::little,
              "crc32's slicing-by-8 loop assumes a little-endian host");

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/** Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k]
 *  advances a byte's contribution past k further zero bytes. */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr Tables kTables = makeTables();

} // namespace

std::uint32_t
crc32(const void *p, std::size_t n, std::uint32_t seed)
{
    const auto *s = static_cast<const std::uint8_t *>(p);
    const auto &t = kTables;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 8; s += 8, n -= 8) {
        std::uint32_t lo, hi;
        std::memcpy(&lo, s, 4);
        std::memcpy(&hi, s + 4, 4);
        lo ^= c;
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++s, --n)
        c = t[0][(c ^ *s) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace ticsim
