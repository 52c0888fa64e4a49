#include "replay_oracle.hpp"

#include <cstring>
#include <unordered_map>

#include "perf/host_profiler.hpp"
#include "support/logging.hpp"

namespace ticsim::analysis {

namespace {

bool
hasPrefix(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
hasSuffix(const std::string &s, const char *suffix)
{
    const std::size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/**
 * diff()'s region matching, shared by bind(). Each subject region
 * claims the first reference region of its name when the sizes agree;
 * a claimed reference region cannot be claimed again. Every subject
 * region that claims nothing and every reference name left unclaimed
 * is a layout mismatch.
 */
class RegionMatcher
{
  public:
    explicit RegionMatcher(const ArenaSnapshot &reference)
    {
        for (const RegionImage &r : reference.regions)
            byName_.emplace(r.name, &r);
    }

    /** The reference region @p name / @p size claims, or nullptr. */
    const RegionImage *
    claim(const std::string &name, std::uint32_t size)
    {
        const auto it = byName_.find(name);
        if (it == byName_.end() || it->second->size != size) {
            ++mismatches_;
            return nullptr;
        }
        const RegionImage *ref = it->second;
        byName_.erase(it);
        return ref;
    }

    std::uint32_t
    mismatches() const
    {
        return mismatches_ + static_cast<std::uint32_t>(byName_.size());
    }

  private:
    std::unordered_map<std::string, const RegionImage *> byName_;
    std::uint32_t mismatches_ = 0;
};

/**
 * The compare kernel: append @p ref's divergent runs against the
 * @p ref.size bytes at @p subject to @p report. memcmp decides; only a
 * region that differs is walked byte by byte.
 */
void
diffRegion(const RegionImage &ref, const std::uint8_t *subject,
           ReplayReport &report)
{
    const std::uint32_t n = ref.size;
    const std::uint8_t *r = ref.bytes.data();
    if (n == 0 || std::memcmp(r, subject, n) == 0)
        return;
    std::uint32_t i = 0;
    while (i < n) {
        if (subject[i] == r[i]) {
            ++i;
            continue;
        }
        std::uint32_t j = i + 1;
        while (j < n && subject[j] != r[j])
            ++j;
        report.divergences.push_back({ref.name, i, j - i});
        report.divergentBytes += j - i;
        i = j;
    }
}

} // namespace

ReplayOracle::RegionFilter
ReplayOracle::appStateFilter()
{
    return [](const mem::NvRegion &r) {
        if (r.name == "app-stack")
            return false;
        if (hasPrefix(r.name, "tics.") ||
            hasPrefix(r.name, "chinchilla.") ||
            hasPrefix(r.name, "mementos."))
            return false;
        if (hasPrefix(r.name, "chan.") &&
            (hasSuffix(r.name, ".s") || hasSuffix(r.name, ".ts")))
            return false;
        return true;
    };
}

ArenaSnapshot
ReplayOracle::capture(const mem::NvRam &ram, const RegionFilter &filter)
{
    perf::HostScope scope(perf::HostZone::Analysis);
    ArenaSnapshot snap;
    for (const mem::NvRegion &r : ram.regions()) {
        if (!filter(r))
            continue;
        RegionImage img;
        img.name = r.name;
        img.size = r.size;
        const std::uint8_t *p = ram.hostPtr(r.base);
        img.bytes.assign(p, p + r.size);
        snap.regions.push_back(std::move(img));
    }
    return snap;
}

ReplayReport
ReplayOracle::diff(const ArenaSnapshot &reference,
                   const ArenaSnapshot &subject)
{
    perf::HostScope scope(perf::HostZone::Analysis);
    ReplayReport report;
    RegionMatcher match(reference);
    for (const RegionImage &s : subject.regions)
        if (const RegionImage *ref = match.claim(s.name, s.size))
            diffRegion(*ref, s.bytes.data(), report);
    report.regionMismatches = match.mismatches();
    return report;
}

BoundReference
ReplayOracle::bind(const ArenaSnapshot &reference, const mem::NvRam &ram,
                   const RegionFilter &filter)
{
    BoundReference b;
    b.ram_ = &ram;
    b.layoutRegions_ = ram.regions().size();
    RegionMatcher match(reference);
    for (const mem::NvRegion &r : ram.regions()) {
        if (!filter(r))
            continue;
        if (const RegionImage *ref = match.claim(r.name, r.size))
            b.matches_.push_back({ref, ram.hostPtr(r.base)});
    }
    b.mismatches_ = match.mismatches();
    return b;
}

ReplayReport
BoundReference::diff() const
{
    perf::HostScope scope(perf::HostZone::Analysis);
    TICSIM_ASSERT(ram_->regions().size() == layoutRegions_,
                  "replay oracle: arena layout changed after bind "
                  "(%zu regions, bound to %zu)",
                  ram_->regions().size(), layoutRegions_);
    ReplayReport report;
    report.regionMismatches = mismatches_;
    for (const Match &m : matches_)
        diffRegion(*m.ref, m.live, report);
    return report;
}

} // namespace ticsim::analysis
