#include "war_detector.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace ticsim::analysis {

namespace {

/** Per-byte state flags within one interval. */
constexpr std::uint8_t kRead = 1u;      ///< read before any write
constexpr std::uint8_t kWritten = 2u;   ///< overwritten at least once
constexpr std::uint8_t kVersioned = 4u; ///< original value recoverable
constexpr std::uint8_t kHazard = 8u;    ///< already reported this byte

} // namespace

WarReport
WarHazardDetector::analyze(
    const std::vector<IntervalTrace> &intervals) const
{
    WarReport report;
    report.intervalsAnalyzed = intervals.size();

    std::unordered_map<Addr, std::uint8_t> state;
    std::vector<Addr> hazardBytes;

    for (std::size_t idx = 0; idx < intervals.size(); ++idx) {
        const IntervalTrace &iv = intervals[idx];
        state.clear();
        hazardBytes.clear();

        for (const AccessEvent &ev : iv.events) {
            for (std::uint32_t i = 0; i < ev.bytes; ++i) {
                const Addr a = ev.addr + i;
                std::uint8_t &s = state[a];
                switch (ev.kind) {
                  case AccessKind::Versioned:
                    s |= kVersioned;
                    break;
                  case AccessKind::Read:
                    // Only a read of the *original* value arms the
                    // hazard; a read after the byte was overwritten
                    // sees interval-local data.
                    if (!(s & kWritten))
                        s |= kRead;
                    break;
                  case AccessKind::Write:
                    if ((s & kRead) && !(s & kVersioned) &&
                        !(s & kHazard)) {
                        s |= kHazard;
                        hazardBytes.push_back(a);
                    }
                    s |= kWritten;
                    break;
                }
            }
        }

        if (hazardBytes.empty())
            continue;

        // Merge contiguous hazardous bytes into ranges and attribute
        // them to named regions.
        std::sort(hazardBytes.begin(), hazardBytes.end());
        const bool materialized = iv.end == IntervalEnd::PowerFailed;
        std::size_t i = 0;
        while (i < hazardBytes.size()) {
            // Merge a contiguous run, but never across an NV-region
            // boundary: a range straddling two regions must yield one
            // correctly-attributed hazard per region.
            const mem::NvRegion *runRegion =
                ram_.regionAt(hazardBytes[i]);
            std::size_t j = i + 1;
            while (j < hazardBytes.size() &&
                   hazardBytes[j] == hazardBytes[j - 1] + 1 &&
                   ram_.regionAt(hazardBytes[j]) == runRegion)
                ++j;
            WarHazard h;
            h.addr = hazardBytes[i];
            h.bytes = static_cast<std::uint32_t>(j - i);
            const mem::NvRegion *r = ram_.regionAt(h.addr);
            const std::string_view name =
                r != nullptr ? std::string_view(r->name) : "?";
            // assign() instead of operator= sidesteps GCC 12's bogus
            // -Wrestrict on string assignment at -O3 (PR105329).
            h.region.assign(name.data(), name.size());
            h.offset = r != nullptr ? h.addr - r->base : 0;
            h.boot = iv.boot;
            h.interval = idx;
            h.materialized = materialized;
            report.hazards.push_back(std::move(h));
            i = j;
        }
    }
    return report;
}

} // namespace ticsim::analysis
