/**
 * @file
 * Differential replay oracle: run the same application twice — once
 * failure-free on a continuous supply, once under a reset pattern —
 * and byte-diff the final contents of the application's non-volatile
 * regions. Any divergence means intermittency changed the program's
 * observable result, and the diff localizes it to region+offset so it
 * can be matched against the WAR hazards the detector reported for the
 * same run.
 *
 * Runtime-internal regions (checkpoint buffers, undo-log pools,
 * channel shadows and commit timestamps, the simulated stack buffer)
 * legitimately differ between a failure-free and an intermittent run,
 * so the default filter compares application state only.
 *
 * Two ways to diff, one result. diff() compares two captured
 * snapshots. A BoundReference (bind()) resolves the same region
 * matching once against a live arena and then diffs that arena's
 * bytes in place: the failure-space explorer judges every leaf of a
 * pair against one reference, so it binds once per board and pays no
 * capture, no name lookup and no allocation per leaf. Both paths run
 * one compare kernel — memcmp per region, and the byte walk that
 * emits Divergences only where memcmp found a difference — so their
 * reports are equal field by field.
 */

#ifndef TICSIM_ANALYSIS_REPLAY_ORACLE_HPP
#define TICSIM_ANALYSIS_REPLAY_ORACLE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/nvram.hpp"

namespace ticsim::analysis {

/** Final contents of one captured region. */
struct RegionImage {
    std::string name;
    std::uint32_t size = 0;
    std::vector<std::uint8_t> bytes;
};

/** Point-in-time copy of the (filtered) arena regions. */
struct ArenaSnapshot {
    std::vector<RegionImage> regions;
};

/** One contiguous byte range that differs between two snapshots. */
struct Divergence {
    std::string region;
    std::uint32_t offset = 0;
    std::uint32_t bytes = 0;
};

/** Result of diffing a subject snapshot against a reference. */
struct ReplayReport {
    std::vector<Divergence> divergences;
    std::uint64_t divergentBytes = 0;
    /** Regions present in one snapshot but not the other (layout
     *  mismatch — the two runs were not set up identically). */
    std::uint32_t regionMismatches = 0;

    bool clean() const
    {
        return divergences.empty() && regionMismatches == 0;
    }
};

/**
 * A reference snapshot bound to one live arena (ReplayOracle::bind).
 * diff() equals ReplayOracle::diff(reference, capture(ram, filter))
 * for the arena's current contents. It holds pointers into both the
 * reference and the arena, so both must outlive it; NvRam never moves
 * its storage. The arena's region layout must not change after
 * binding — regions are allocated when the runtime attaches — and
 * diff() asserts that it has not.
 */
class BoundReference
{
  public:
    ReplayReport diff() const;

  private:
    friend class ReplayOracle;

    /** A reference region and the live bytes it was matched to. */
    struct Match {
        const RegionImage *ref = nullptr;
        const std::uint8_t *live = nullptr;
    };

    const mem::NvRam *ram_ = nullptr;
    std::size_t layoutRegions_ = 0;
    std::vector<Match> matches_;
    std::uint32_t mismatches_ = 0;
};

class ReplayOracle
{
  public:
    using RegionFilter = std::function<bool(const mem::NvRegion &)>;

    /**
     * Filter selecting application state: everything except the stack
     * buffer, runtime-internal regions ("tics.", "chinchilla.",
     * "mementos." prefixes) and channel shadows / commit timestamps
     * ("chan.*.s", "chan.*.ts"). Channel committed copies ("chan.*.v")
     * are application state and are kept.
     */
    static RegionFilter appStateFilter();

    /** Copy the selected regions' current contents out of @p ram. */
    static ArenaSnapshot capture(const mem::NvRam &ram,
                                 const RegionFilter &filter);

    /** Byte-diff @p subject against @p reference (region by name). */
    static ReplayReport diff(const ArenaSnapshot &reference,
                             const ArenaSnapshot &subject);

    /** Match @p reference to the regions of @p ram that @p filter
     *  selects, exactly as diff() would match a capture of them. */
    static BoundReference bind(const ArenaSnapshot &reference,
                               const mem::NvRam &ram,
                               const RegionFilter &filter);
};

} // namespace ticsim::analysis

#endif // TICSIM_ANALYSIS_REPLAY_ORACLE_HPP
