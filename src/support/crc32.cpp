#include "crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define TICSIM_CRC32_CLMUL 1
#endif

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

/** Advances the register (inverted) form @p c of a sum over [s, s+n)
 *  with the slicing-by-8 tables. Inlined into both entry points, so a
 *  short input (an undo-log record, a slot header) pays no extra call. */
__attribute__((always_inline)) inline std::uint32_t
sliceBy8(const std::uint8_t *s, std::size_t n, std::uint32_t c)
{
    const auto &t = kTables;
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
    return c;
}

#if defined(TICSIM_CRC32_CLMUL)

#define TICSIM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/** Whether this host has the carry-less fold's instructions; asked
 *  once per process. */
bool
hostHasClmul()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return has;
}

inline __m128i
load16(const std::uint8_t *s)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(s));
}

/** Lane @p x carried forward by the multiplier pair @p k (low qword
 *  times k.lo, high qword times k.hi), plus the lane @p next. */
TICSIM_CLMUL_TARGET inline __m128i
fold16(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/**
 * Advances the register form @p c of a sum over [s, s+n) by
 * carry-less folding; @p n is a multiple of 16 and at least 64. The
 * multipliers are x^k mod P, bit-reflected, for P = 0x104C11DB7:
 * k1/k2 carry a lane 512 bits forward, k3/k4 128 bits, k5 narrows 64
 * bits to 32, and mu/P' drive the final Barrett reduction.
 */
TICSIM_CLMUL_TARGET std::uint32_t
foldClmul(const std::uint8_t *s, std::size_t n, std::uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i muP = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    // Four independent lanes over each 64-byte block.
    __m128i x0 =
        _mm_xor_si128(load16(s), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load16(s + 16);
    __m128i x2 = load16(s + 32);
    __m128i x3 = load16(s + 48);
    for (s += 64, n -= 64; n >= 64; s += 64, n -= 64) {
        x0 = fold16(x0, k1k2, load16(s));
        x1 = fold16(x1, k1k2, load16(s + 16));
        x2 = fold16(x2, k1k2, load16(s + 32));
        x3 = fold16(x3, k1k2, load16(s + 48));
    }

    // The four lanes into one, then one lane per remaining 16 bytes.
    x0 = fold16(x0, k3k4, x1);
    x0 = fold16(x0, k3k4, x2);
    x0 = fold16(x0, k3k4, x3);
    for (; n >= 16; s += 16, n -= 16)
        x0 = fold16(x0, k3k4, load16(s));

    // 128 bits to 64, then 64 to 32 plus a 32-bit remainder.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

    // Barrett reduction to the 32-bit remainder.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), muP, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), muP, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

/**
 * The register form @p c advanced over an input of 64 bytes or more:
 * folded where the host can, the sub-16-byte tail sliced. Kept out of
 * line so that crc32()'s short-input path saves no registers for it.
 */
__attribute__((noinline)) std::uint32_t
crc32Long(const std::uint8_t *s, std::size_t n, std::uint32_t c)
{
    if (hostHasClmul()) {
        const std::size_t folded = n & ~std::size_t{15};
        c = foldClmul(s, folded, c);
        s += folded;
        n -= folded;
    }
    return sliceBy8(s, n, c);
}

#endif // TICSIM_CRC32_CLMUL

} // namespace

std::uint32_t
crc32(const void *p, std::size_t n, std::uint32_t seed)
{
    const auto *s = static_cast<const std::uint8_t *>(p);
    const std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(TICSIM_CRC32_CLMUL)
    if (n >= 64)
        return crc32Long(s, n, c) ^ 0xFFFFFFFFu;
#endif
    return sliceBy8(s, n, c) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t
crc32Portable(const void *p, std::size_t n, std::uint32_t seed)
{
    return sliceBy8(static_cast<const std::uint8_t *>(p), n,
                    seed ^ 0xFFFFFFFFu) ^
           0xFFFFFFFFu;
}

} // namespace detail

} // namespace ticsim
