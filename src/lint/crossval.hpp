#pragma once

#include <string>
#include <vector>

#include "lint/program.hpp"
#include "support/table.hpp"
#include "verify/verifier.hpp"

namespace ticsim::lint {

/**
 * Source-vs-model cross-validation: the source-level analysis must
 * over-approximate the dynamic-model analysis. For every (app,
 * runtime) verdict of verify::verifyMatrix, the source file its
 * catalog row names is analyzed from the row's entry class under the
 * pair's runtime traits, and each dynamic finding must be covered by a
 * source-level finding:
 *
 *   war-possibility  <-> war           (same NV region)
 *   timeliness       <-> timeliness    (same timed variable)
 *   io-idempotency   <-> io            (kind-level: one peripheral)
 *   energy-progress  <-> segmentation  (kind-level: dynamic regions
 *                                       have no source line)
 *
 * Static findings with no dynamic counterpart are the pair's false
 * positives — expected for a path-insensitive over-approximation
 * (e.g. a WAR span on a path calibration never executed) — and are
 * reported per pair and gated against the committed baseline.
 */
struct LintCrossValRow {
    std::string app;
    std::string runtime;
    std::string file;
    std::string entryClass;
    std::size_t dynamicCount = 0;   ///< dynamic findings for the pair
    std::size_t matchedCount = 0;   ///< ... covered by a static finding
    std::size_t staticCount = 0;    ///< static findings for the pair
    std::size_t confirmedCount = 0; ///< ... matching a dynamic finding
    std::vector<std::string> unmatched; ///< "analysis|subject" misses
    std::vector<StaticFinding> extras;  ///< static-only (FPs)

    double coverage() const
    {
        return dynamicCount == 0
                   ? 1.0
                   : static_cast<double>(matchedCount) /
                         static_cast<double>(dynamicCount);
    }
    double fpRate() const
    {
        return staticCount == 0
                   ? 0.0
                   : static_cast<double>(staticCount - confirmedCount) /
                         static_cast<double>(staticCount);
    }
};

struct LintCrossVal {
    std::vector<LintCrossValRow> rows;
    bool fullCoverage = true; ///< every dynamic finding matched
};

/** Whether one dynamic finding is covered by one static finding. */
bool coversDynamic(const StaticFinding &s, const verify::Finding &d);

/**
 * Cross-validate @p verdicts against the sources under @p sourceDir.
 * Pairs with no catalog row or whose source file cannot be read come
 * back with dynamicCount set and nothing matched (so coverage gates
 * fail loudly instead of vacuously passing).
 */
LintCrossVal crossValidate(const std::vector<verify::AppVerdict> &verdicts,
                           const std::string &sourceDir);

/** Per-pair summary table for the CLI. */
Table crossValTable(const LintCrossVal &cv);

} // namespace ticsim::lint
