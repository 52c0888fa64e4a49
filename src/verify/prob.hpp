/**
 * @file
 * Probabilistic energy-aware timing analysis (the ETAP direction of
 * the ROADMAP): derives per-region completion-time *distributions* and
 * per-timed-variable freshness-violation *probabilities* statically
 * from the recovered ProgramModel and a probabilistic environment
 * model, instead of the boolean reachability verdicts of analyses.hpp.
 *
 * The Pmf type is a discrete distribution over the exact log-bucketed
 * layout of support/stats.hpp::Distribution. Sharing the layout is
 * what makes cross-validation meaningful: a statically derived
 * percentile and a ticssweep-simulated one are compared bucket-to-
 * bucket, so agreement is not an artifact of interpolation. Each
 * bucket additionally carries its first two weighted moments, so
 * means and variances stay exact under convolution even though the
 * support is bucketed.
 *
 * Completion-time model (per region, composed sequentially):
 *
 *   T_region = work + sum_{i=1..K} (outage_i + waste_i)
 *
 * where K is the number of power failures hitting the region. Runs
 * start at the top of a fresh window (the simulator boots at pattern
 * phase zero with the capacitor charged), so the analysis tracks the
 * window *position* distribution across regions: a region entered at
 * position v fits with the hazard-conditioned probability
 * P[W >= v + need | W >= v], retries restart at a fresh window top
 * and fail with the renewal probability P[W < need + re-entry] — an
 * outage draws from the environment's off-time distribution, and
 * waste accounts for the partial execution lost to the failed
 * attempt plus the boot/restore/rollback re-entry charge. Regions
 * whose retries can never fit a window contribute their mass to
 * pNonterm instead (the probabilistic face of the energy-progress
 * finding).
 */

#ifndef TICSIM_VERIFY_PROB_HPP
#define TICSIM_VERIFY_PROB_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/costs.hpp"
#include "support/stats.hpp"
#include "verify/model.hpp"

namespace ticsim::verify {

struct EnvModel; // envmodel.hpp

/**
 * Sparse probability mass function over Distribution's bucket layout.
 * Invariant: total mass stays in [0, 1]; operations that drop mass
 * (truncation, pruning) leave it sub-normalized — callers that need a
 * proper distribution call normalize().
 */
class Pmf
{
  public:
    /** Per-bucket mass and weighted moments: sum p, sum v*p, sum v^2*p. */
    struct Bucket {
        double mass = 0.0;
        double m1 = 0.0;
        double m2 = 0.0;
    };

    /** Point mass at @p v. */
    static Pmf delta(double v, double p = 1.0);

    /**
     * Truncated geometric count of failures before a success: P[K=k] =
     * (1-s)^k * s for k < maxCount, with the remaining tail mass at
     * maxCount. Untruncated mean (1-s)/s, variance (1-s)/s^2.
     */
    static Pmf geometric(double successProb, std::uint64_t maxCount);

    /**
     * Exponential with mean @p meanV, discretized into @p atoms
     * equal-mass quantile atoms (atom i sits at the conditional
     * median of its probability slice).
     */
    static Pmf exponential(double meanV, int atoms = 64);

    /** Exponential conditioned on v <= @p cap (same discretization). */
    static Pmf truncatedExponential(double meanV, double cap,
                                    int atoms = 64);

    /** Accumulate point mass @p p at value @p v. */
    void add(double v, double p);

    /** Distribution of the sum of independent draws (this + other). */
    Pmf convolve(const Pmf &o) const;

    /** Values scaled by @p k > 0 (unit conversion); masses unchanged. */
    Pmf scaled(double k) const;

    /** this += w * other (mixture accumulation). */
    void mixIn(const Pmf &o, double w);

    /** Rescale masses so totalMass() == 1 (no-op when empty). */
    void normalize();

    /** Drop buckets lighter than @p eps * totalMass(). */
    void prune(double eps = 1e-12);

    double totalMass() const;
    double mean() const;
    double variance() const;

    /**
     * Quantile by cumulative mass, reported as the bucket midpoint
     * clamped to the exact [min, max] envelope — the same reduction
     * Distribution::percentile applies, so the two agree whenever
     * their per-bucket masses agree.
     */
    double percentile(double fraction) const;
    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }
    double p99() const { return percentile(0.99); }

    /** P[X <= v], resolving each bucket at its own mean value. */
    double cdfAt(double v) const;

    double minValue() const { return any_ ? min_ : 0.0; }
    double maxValue() const { return any_ ? max_ : 0.0; }
    bool empty() const { return b_.empty(); }
    const std::map<int, Bucket> &buckets() const { return b_; }

  private:
    std::map<int, Bucket> b_;
    double min_ = 0.0;
    double max_ = 0.0;
    bool any_ = false;
};

/** One region's contribution to the completion-time model. */
struct RegionTiming {
    std::size_t index = 0;
    std::string anchor;
    double needCycles = 0.0;      ///< calibrated work, overhead-scaled
    double reentryCycles = 0.0;   ///< boot + restore + rollback
    double pFirstFail = 0.0;      ///< P[first attempt hits an outage]
    double pRetryFail = 0.0;      ///< P[fresh window still too small]
    double meanOutages = 0.0;
};

/** Statically derived completion-time distribution of one pair. */
struct TimingEstimate {
    std::string app;
    std::string runtime;
    std::string env;            ///< environment model name
    Pmf completionNs;           ///< elapsed (powered + off) time
    double pNonterm = 0.0;      ///< P[program never completes]
    double meanOutages = 0.0;   ///< expected reboot count
    std::vector<RegionTiming> regions;
};

/** Whole-program completion-time distribution under @p env. */
TimingEstimate completionTime(const ProgramModel &m, const EnvModel &env,
                              const device::CostModel &costs);

/** One timed variable's freshness-violation probability. */
struct FreshnessEstimate {
    std::string app;
    std::string runtime;
    std::string env;
    std::string subject;       ///< timed variable
    std::string anchor;        ///< region of the worst use
    double lifetimeNs = 0.0;
    double pViolation = 0.0;   ///< P[age at use > lifetime]
    std::size_t sites = 0;     ///< unguarded use sites considered
};

/**
 * P[age at use > lifetime] for every unguarded cross-region timed use
 * (the same taint/guard walk as analyzeTimeliness, quantified): age =
 * on-path time between the timed assignment and the use, plus the
 * off-time of every outage the spanned regions can suffer.
 */
std::vector<FreshnessEstimate>
freshnessViolations(const ProgramModel &m, const EnvModel &env,
                    const device::CostModel &costs);

/** An SLO query: "at least @p slo of completions within deadline". */
struct SloQuery {
    double slo = 0.95;
    double deadlineNs = 0.0;
};

/** Result of the inverse capacitor-sizing query. */
struct CapacitorSizing {
    bool feasible = false;
    double capacitanceF = 0.0;  ///< smallest step meeting the SLO
    double pOnTime = 0.0;       ///< P[on time] at that capacitance
    /** (capacitance, P[on time]) for every step probed, ascending. */
    std::vector<std::pair<double, double>> curve;
};

/** Probed capacitance grid: geometric steps over [minF, maxF]. */
struct CapacitorGrid {
    double minF = 0.5e-6;
    double maxF = 512e-6;
    double stepFactor = 1.5;
};

} // namespace ticsim::verify

#endif // TICSIM_VERIFY_PROB_HPP
