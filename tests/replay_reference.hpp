/**
 * @file
 * Reference for the replay oracle's differential tests: the original
 * capture-and-diff algorithm, kept verbatim (a by-name map rebuilt per
 * call and a plain byte walk, no memcmp), and a field-by-field report
 * comparison. ReplayOracle::diff and BoundReference::diff must both
 * reproduce it exactly.
 */

#ifndef TICSIM_TESTS_REPLAY_REFERENCE_HPP
#define TICSIM_TESTS_REPLAY_REFERENCE_HPP

#include <gtest/gtest.h>
#include <string>
#include <unordered_map>

#include "analysis/replay_oracle.hpp"

namespace ticsim::testref {

inline analysis::ReplayReport
referenceDiff(const analysis::ArenaSnapshot &reference,
              const analysis::ArenaSnapshot &subject)
{
    using namespace analysis;
    ReplayReport report;
    std::unordered_map<std::string, const RegionImage *> refByName;
    for (const RegionImage &r : reference.regions)
        refByName.emplace(r.name, &r);

    for (const RegionImage &s : subject.regions) {
        const auto it = refByName.find(s.name);
        if (it == refByName.end() || it->second->size != s.size) {
            ++report.regionMismatches;
            continue;
        }
        const RegionImage &ref = *it->second;
        refByName.erase(it);
        std::uint32_t i = 0;
        while (i < s.size) {
            if (s.bytes[i] == ref.bytes[i]) {
                ++i;
                continue;
            }
            std::uint32_t j = i + 1;
            while (j < s.size && s.bytes[j] != ref.bytes[j])
                ++j;
            report.divergences.push_back({s.name, i, j - i});
            report.divergentBytes += j - i;
            i = j;
        }
    }
    report.regionMismatches +=
        static_cast<std::uint32_t>(refByName.size());
    return report;
}

/** Every field of @p got equals @p want; @p what names the case. */
inline void
expectSameReport(const analysis::ReplayReport &want,
                 const analysis::ReplayReport &got, const std::string &what)
{
    EXPECT_EQ(want.divergentBytes, got.divergentBytes) << what;
    EXPECT_EQ(want.regionMismatches, got.regionMismatches) << what;
    ASSERT_EQ(want.divergences.size(), got.divergences.size()) << what;
    for (std::size_t i = 0; i < want.divergences.size(); ++i) {
        EXPECT_EQ(want.divergences[i].region, got.divergences[i].region)
            << what << " [" << i << "]";
        EXPECT_EQ(want.divergences[i].offset, got.divergences[i].offset)
            << what << " [" << i << "]";
        EXPECT_EQ(want.divergences[i].bytes, got.divergences[i].bytes)
            << what << " [" << i << "]";
    }
}

} // namespace ticsim::testref

#endif // TICSIM_TESTS_REPLAY_REFERENCE_HPP
