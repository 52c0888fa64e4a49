/**
 * @file
 * Shared pieces of the TICSim host-throughput benchmark (see
 * hostbench/README.md): metric collection, timing helpers, the
 * workload driver and the per-layer probes.
 *
 * The benchmark stands outside the simulator. It only calls public
 * entry points (sweep::runSweep/runCell, fault::exploreMatrix,
 * harness::makeBoard/makeSupply, the tics/mem/support primitives) and
 * reads the existing perf::HotCounters and perf::HostProfiler zones.
 */

#ifndef HOSTBENCH_HOSTBENCH_HPP
#define HOSTBENCH_HOSTBENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One named measurement. Counts print as integers. */
struct Metric {
    double value = 0.0;
    std::string unit;
    bool count = false;
};

/** Name -> measurement, printed in name order. */
using Metrics = std::map<std::string, Metric>;

inline void
putValue(Metrics &m, const std::string &name, double v,
         const std::string &unit)
{
    m[name] = Metric{v, unit, false};
}

inline void
putCount(Metrics &m, const std::string &name, std::uint64_t v,
         const std::string &unit = "count")
{
    m[name] = Metric{static_cast<double>(v), unit, true};
}

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in (0, 1]. */
double percentile(std::vector<double> v, double q);

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string goldenDir; ///< hostbench/goldens
    std::string workDir;   ///< build dir: report files land here
};

/** What one run measured. */
struct RunOutput {
    /** The gated end-to-end metrics (BENCHMARK.json end_to_end). */
    Metrics endToEnd;
    /** Every end-to-end quantity the workload defines, by its own
     *  name (cells_per_s, parallel_efficiency, failed_frac, ...). */
    Metrics report;
    /** Traced run only: the BENCHMARK.json per_layer metrics. */
    Metrics perLayer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = false;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload per @p opt. Exits via fatal() on bad input. */
RunOutput runWorkload(const Options &opt);

/** Regenerate every golden file under @p goldenDir. */
void recordGoldens(const std::string &goldenDir);

/**
 * Outside-in layer microbenchmarks (crc32, undo-log append,
 * checkpoint commit, supply drain/off-time per kind, board
 * construction time and bytes, nv<T> stores raw/gated/observed).
 * Fixed iteration counts; times are medians over repetitions.
 */
void runLayerProbes(Metrics &out);

} // namespace hostbench

#endif // HOSTBENCH_HOSTBENCH_HPP
