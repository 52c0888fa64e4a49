/**
 * @file
 * Lightweight statistics package in the spirit of gem5's stats: named
 * counters, scalars and histograms grouped per component, dumpable in a
 * human-readable listing. Benchmark harnesses read stats by name to
 * build the paper's tables, and the run-report exporter serializes
 * whole groups to JSON.
 */

#ifndef TICSIM_SUPPORT_STATS_HPP
#define TICSIM_SUPPORT_STATS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ticsim {

/** Monotonic event counter. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running scalar statistic: min/max/mean, a numerically stable
 * standard deviation (Welford's online recurrence — the naive
 * sum-of-squares form cancels catastrophically for tight clusters of
 * large samples, e.g. nanosecond timestamps), and a log-bucketed
 * histogram for percentile queries.
 *
 * The histogram has a fixed bucket layout: one bucket for values
 * <= 0 plus kSubBuckets buckets per power of two across a wide
 * exponent range, giving a bounded relative error of about
 * 1/(2*kSubBuckets) per query. Only non-empty buckets are stored, as
 * (index, count) pairs in ascending index order, so an empty
 * distribution allocates nothing and copying one costs a few bytes
 * per occupied bucket instead of the whole layout.
 */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    /**
     * Fold another distribution's samples into this one, as if every
     * sample() call on @p other had been made here instead. Uses the
     * parallel Welford combination (Chan et al.) for the mean and
     * squared-deviation sum, so sweep shards merged in any order give
     * the same mean/stddev as a single-pass accumulation up to
     * floating-point rounding, and bucket-wise histogram addition so
     * percentiles are exact with respect to the shared bucket layout.
     */
    void merge(const Distribution &other);

    /**
     * Serialize the full state (moments plus non-empty histogram
     * buckets) to a compact text form for the sweep result cache.
     * Doubles use %.17g so decode() round-trips bit-exactly and a
     * cache-hit replay emits byte-identical JSON reports.
     */
    std::string encode() const;

    /** Rebuild from encode() output. @return false on malformed text
     *  (the distribution is reset in that case). */
    bool decode(const std::string &text);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Sample standard deviation (0 for < 2 samples). */
    double stddev() const;

    /**
     * Approximate quantile for @p fraction in [0, 1] from the bucketed
     * histogram, clamped to the exact [min, max] envelope. 0 with no
     * samples.
     */
    double percentile(double fraction) const;

    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }
    double p99() const { return percentile(0.99); }

    /**
     * The bucket layout is public so the static analyses' discrete
     * PMFs (verify/prob) can share it: a statically derived percentile
     * and a simulated one land in the same bucket when they agree, so
     * cross-validation compares like with like.
     */

    /** Histogram bucket resolution (buckets per power of two). */
    static constexpr int kSubBuckets = 8;
    static constexpr int kMinExp = -20; ///< ~1e-6 lower edge
    static constexpr int kMaxExp = 49;  ///< ~5.6e14 upper edge
    static constexpr int kBuckets =
        1 + (kMaxExp - kMinExp + 1) * kSubBuckets;

    /** Bucket index of @p v (0: the <= 0 underflow bucket). */
    static int bucketIndex(double v);
    /** Representative midpoint of bucket @p idx. */
    static double bucketMid(int idx);

  private:
    /** One non-empty histogram bucket. */
    struct Bucket {
        std::uint32_t index;
        std::uint64_t count;
    };

    /** First stored bucket whose index is not below @p idx. */
    std::vector<Bucket>::iterator lowerBound(std::uint32_t idx);
    /** Set bucket @p idx to @p c (0 removes it). */
    void setBucket(int idx, std::uint64_t c);

    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0; ///< Welford's sum of squared deviations
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<Bucket> hist_; ///< non-empty buckets, ascending index
};

/**
 * A named bag of statistics owned by a component. Components bump
 * their counters/distributions through StatHandles; the group formats
 * them on dump() and exposes them for programmatic lookup.
 *
 * Storage is flat: one vector of named slots, each appended on a
 * name's first use and never removed or reordered, so a handle can keep
 * its slot's index. A slot is listed only once it was touched (bumped,
 * sampled, set or fetched by name), so reports list only touched stats,
 * in name order whatever the touch order.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}
    StatGroup(const StatGroup &) = default;
    StatGroup(StatGroup &&) = default;
    /**
     * Copy @p o's stats into this group. When the two slot lists agree
     * on their common prefix (every restore of a snapshot of the same
     * group does), values are copied in place, this group's later slots
     * are reset to untouched and @p o's later slots are appended:
     * every slot keeps its index, nothing is freed and generation()
     * stays. Otherwise the slot list is replaced and generation()
     * moves, so every handle looks its stat up again.
     */
    StatGroup &operator=(const StatGroup &o);

    Counter &counter(const std::string &name);
    Distribution &distribution(const std::string &name);

    /** Scalar slot for values computed by the component itself. */
    void setScalar(const std::string &name, double value);

    bool hasCounter(const std::string &name) const;
    std::uint64_t counterValue(const std::string &name) const;
    double scalarValue(const std::string &name) const;

    const std::string &name() const { return name_; }

    // Name-ordered listings of the touched stats of one kind, built on
    // each call for exporters (JSON run reports) and tests.
    std::map<std::string, Counter> counters() const;
    std::map<std::string, Distribution> distributions() const;
    std::map<std::string, double> scalars() const;

    /** Zero every statistic. Counters and distributions stay listed;
     *  scalars are dropped. */
    void resetAll();

    /** Human-readable listing (one stat per line, gem5-style). */
    void dump(std::ostream &os) const;

    /** Changes whenever an assignment may have moved a name to another
     *  slot index (never 0). */
    std::uint64_t generation() const { return generation_; }

  private:
    template <typename> friend class StatHandle;

    /** What a slot holds. */
    enum class Kind : std::uint8_t { Counter, Distribution, Scalar };

    struct Slot {
        std::string name;
        Kind kind = Kind::Counter;
        bool touched = false;
        Counter counter;
        double scalar = 0.0;
        Distribution dist;

        /** Copy @p o's value and touched flag (same name and kind). */
        void copyValue(const Slot &o);
        /** Back to untouched and zero. */
        void clear();
    };

    /** Index of the slot for (@p kind, @p name), appended untouched if
     *  there is none yet (StatHandle's lookup). */
    std::uint32_t slotOf(Kind kind, std::string_view name);

    /** Mark slot @p i touched and return its stat. */
    template <typename Stat>
    Stat &
    touch(std::uint32_t i)
    {
        Slot &s = slots_[i];
        s.touched = true;
        if constexpr (std::is_same_v<Stat, Counter>)
            return s.counter;
        else
            return s.dist;
    }

    /** The touched slot for (@p kind, @p name), or null. */
    const Slot *find(Kind kind, std::string_view name) const;
    /** The touched slots of @p kind, in name order. */
    std::vector<const Slot *> listed(Kind kind) const;

    std::string name_;
    std::vector<Slot> slots_;
    std::uint64_t generation_ = 1;
};

/**
 * One named counter or distribution of a StatGroup, for the paths that
 * bump it per operation. The slot lookup runs on the first bump, so a
 * stat that is never touched never appears in the group's listings,
 * and again after an assignment moved the group's generation. Every
 * other bump is a compare, a flag store and an add. Handles are
 * members of the group's owner and point into it, so they are neither
 * copied nor moved.
 */
template <typename Stat>
class StatHandle
{
    static_assert(std::is_same_v<Stat, Counter> ||
                  std::is_same_v<Stat, Distribution>);

  public:
    StatHandle(StatGroup &group, const char *name)
        : group_(&group), name_(name)
    {
    }
    StatHandle(const StatHandle &) = delete;
    StatHandle &operator=(const StatHandle &) = delete;

    Stat &
    get()
    {
        if (gen_ != group_->generation()) {
            slot_ = group_->slotOf(std::is_same_v<Stat, Counter>
                                       ? StatGroup::Kind::Counter
                                       : StatGroup::Kind::Distribution,
                                   name_);
            gen_ = group_->generation();
        }
        return group_->touch<Stat>(slot_);
    }

    StatHandle &operator++() { ++get(); return *this; }
    StatHandle &operator+=(std::uint64_t n) { get() += n; return *this; }
    void sample(double v) { get().sample(v); }

  private:
    StatGroup *group_;
    const char *name_;
    std::uint32_t slot_ = 0;
    std::uint64_t gen_ = 0; ///< group generation slot_ was resolved at
};

using CounterHandle = StatHandle<Counter>;
using DistributionHandle = StatHandle<Distribution>;

} // namespace ticsim

#endif // TICSIM_SUPPORT_STATS_HPP
