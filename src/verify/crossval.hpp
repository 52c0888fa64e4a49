/**
 * @file
 * Cross-validation of the static verifier against the dynamic checker
 * — the soundness argument, machine-checked:
 *
 *  - every *dynamic* detection (a WAR hazard the checker's detector
 *    found in a real intermittent run, an expiration violation the
 *    ViolationMonitor observed, a duplicate transmission the radio
 *    log recorded) must be covered by a static ticsverify finding on
 *    the same (app, runtime) pair — 100% coverage or the harness
 *    fails;
 *  - the reverse gap is *reported, not failed*: static findings with
 *    no dynamic counterpart are the false-positive rate, the price of
 *    verifying every region instead of the failure schedule one run
 *    happened to see.
 *
 * Dynamic evidence comes from analysis::checkMatrix (BC/Cuckoo under
 * every runtime) plus pattern-supply probe runs of the pairs the
 * checker's matrix excludes (AR, GHM, Study, SensorRelay), traced
 * with the same AccessTracer + WarHazardDetector pipeline.
 */

#ifndef TICSIM_VERIFY_CROSSVAL_HPP
#define TICSIM_VERIFY_CROSSVAL_HPP

#include <string>
#include <vector>

#include "support/table.hpp"
#include "verify/verifier.hpp"

namespace ticsim::verify {

/** Coverage accounting for one (app, runtime) pair. */
struct CrossValRow {
    std::string app;
    std::string runtime;
    /** Dynamic detections: WAR hazards + observed expirations +
     *  duplicate transmissions. */
    std::size_t dynamicDetections = 0;
    /** Matched by a static finding with overlapping byte range. */
    std::size_t matchedExact = 0;
    /** Matched at NV-region / subject granularity. */
    std::size_t matched = 0;
    std::size_t staticFindings = 0;
    std::size_t confirmed = 0; ///< static findings with dynamic proof

    double coverage() const
    {
        return dynamicDetections == 0
                   ? 1.0
                   : static_cast<double>(matched) /
                         static_cast<double>(dynamicDetections);
    }

    double falsePositiveRate() const
    {
        return staticFindings == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(confirmed) /
                               static_cast<double>(staticFindings);
    }
};

struct CrossValReport {
    std::vector<CrossValRow> rows;
    std::size_t totalDynamic = 0;
    std::size_t totalMatched = 0;
    std::size_t totalStatic = 0;
    std::size_t totalConfirmed = 0;

    bool fullCoverage() const { return totalMatched == totalDynamic; }
};

/** Run static + dynamic matrices and match their findings. */
CrossValReport crossValidate(const VerifyConfig &cfg = {});

/** Per-pair coverage / false-positive table. */
Table crossValTable(const CrossValReport &report);

} // namespace ticsim::verify

#endif // TICSIM_VERIFY_CROSSVAL_HPP
