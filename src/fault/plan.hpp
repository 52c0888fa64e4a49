/**
 * @file
 * Fault plans: machine-checkable descriptions of adversarial power
 * behaviour (DESIGN.md Section 8).
 *
 * A FaultPlan is the unit the campaign driver sweeps, the shrinker
 * minimizes, and `ticsfault --replay` re-executes. It composes three
 * fault kinds:
 *
 *  - PowerCut: cut power either at an absolute virtual time or a fixed
 *    delay after the Nth occurrence of an instrumented boundary event
 *    (checkpoint-commit start/end, boot restore, peripheral send,
 *    persistent-time read, boot). Boundary anchoring is what makes the
 *    systematic sweep adversarial: the cuts land exactly around the
 *    protocol steps a runtime must make failure-atomic.
 *  - TornWrite: abort the Nth gated NV store of a given site partway
 *    through (prefix kept, garbage tail, or interleaved old/new
 *    words), then fail power immediately.
 *  - BitFlip: flip one bit of a named NV region during the Nth off
 *    window (retention corruption between charge windows).
 *
 * Plans serialize to a compact one-line string so a minimized failing
 * schedule travels through CI artifacts and bug reports verbatim:
 *
 *   cut@commit:3+5000;tear@hdr-store:2/prefix:8;flip@1:tics.ckpt.hdr0+4&0x40;off:12000000
 */

#ifndef TICSIM_FAULT_PLAN_HPP
#define TICSIM_FAULT_PLAN_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/trace.hpp"
#include "support/units.hpp"

namespace ticsim::fault {

/** Instrumented boundary events a PowerCut can anchor to. */
enum class Boundary : std::uint8_t {
    Boot,          ///< power-on (AccessSink::powerOn)
    CommitStart,   ///< checkpoint commit protocol begins
    CommitEnd,     ///< forward progress committed (AccessSink::commit)
    BootRestore,   ///< boot-time restore from a checkpoint begins
    PeripheralSend,///< externally visible transmission
    TimeRead,      ///< persistent-clock read
};

constexpr int kBoundaryCount = 6;

/** Stable short name used in plan strings ("boot", "commit-start",
 *  "commit", "restore", "send", "time"). */
const char *boundaryName(Boundary b);

/** Inverse of boundaryName(); false when @p s names no boundary. */
bool parseBoundary(const std::string &s, Boundary &out);

/** The boundary a sink's side event marks, if any: commit start, boot
 *  restore, peripheral send or time read. */
std::optional<Boundary> boundaryOf(mem::SideEventKind k);

/** One power cut: absolute, or delayNs after boundary occurrence N. */
struct PowerCut {
    bool absolute = false;
    TimeNs atNs = 0;             ///< absolute mode: cut instant
    Boundary boundary = Boundary::CommitEnd;
    std::uint64_t occurrence = 1;///< 1-based, cumulative across the run
    TimeNs delayNs = 0;
};

/** How a torn multi-byte NV store leaves its destination. */
enum class TearMode : std::uint8_t {
    Prefix,      ///< first keepBytes new, tail untouched (old bytes)
    GarbageTail, ///< first keepBytes new, tail filled with garbage
    Interleaved, ///< even 4-byte words new, odd words old
};

const char *tearModeName(TearMode m);
bool parseTearMode(const std::string &s, TearMode &out);

/** Abort the Nth gated store of @p site partway, then fail power. */
struct TornWrite {
    mem::StoreSite site = mem::StoreSite::AppGlobal;
    std::uint64_t occurrence = 1; ///< 1-based, per site, cumulative
    TearMode mode = TearMode::Prefix;
    std::uint32_t keepBytes = 0;  ///< faithful prefix length
};

/** Flip @p mask at @p region+offset during off window @p outageIndex. */
struct BitFlip {
    std::uint64_t outageIndex = 1; ///< 1-based off-window ordinal
    std::string region;            ///< NV region name (NvRam::regions)
    std::uint32_t offset = 0;
    std::uint8_t mask = 0x01;
};

/**
 * A complete fault schedule. Empty plans inject nothing (the campaign
 * reference runs use one in observe mode to count boundary events).
 */
struct FaultPlan {
    std::vector<PowerCut> cuts;
    std::vector<TornWrite> tears;
    std::vector<BitFlip> flips;
    /** Off time after every injected death (cut or tear). */
    TimeNs offNs = 12 * kNsPerMs;

    bool empty() const
    {
        return cuts.empty() && tears.empty() && flips.empty();
    }
    /** Number of individually removable faults (shrinker granularity). */
    std::size_t atomCount() const
    {
        return cuts.size() + tears.size() + flips.size();
    }

    /** Canonical one-line serialization (';'-joined atoms + "off:"). */
    std::string format() const;

    /**
     * Parse a plan string produced by format() (or hand-written).
     * @return false (with *err set when non-null) on malformed input,
     *         including out-of-range numbers (times of 2^62 ns or
     *         more, offsets or keepBytes above 2^32 - 1); @p out is
     *         untouched on failure.
     */
    static bool parse(const std::string &s, FaultPlan &out,
                      std::string *err = nullptr);
};

} // namespace ticsim::fault

#endif // TICSIM_FAULT_PLAN_HPP
