/**
 * @file
 * Reference for the sparse histogram's differential tests: the dense
 * Distribution it replaced, kept verbatim (one uint64 per bucket of
 * the shared layout, every bucket walked by merge, encode and
 * percentile). Distribution must reproduce its percentile(), encode(),
 * merge() and decode() exactly.
 */

#ifndef TICSIM_TESTS_DISTRIBUTION_REFERENCE_HPP
#define TICSIM_TESTS_DISTRIBUTION_REFERENCE_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace ticsim::testref {

class DenseDistribution
{
  public:
    static constexpr int kBuckets = Distribution::kBuckets;

    DenseDistribution() : hist_(kBuckets, 0) {}

    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            if (v < min_) min_ = v;
            if (v > max_) max_ = v;
        }
        ++count_;
        sum_ += v;
        const double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
        ++hist_[static_cast<std::size_t>(Distribution::bucketIndex(v))];
    }

    void reset() { *this = DenseDistribution(); }

    void
    merge(const DenseDistribution &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        const double na = static_cast<double>(count_);
        const double nb = static_cast<double>(other.count_);
        const double n = na + nb;
        const double delta = other.mean_ - mean_;
        mean_ += delta * (nb / n);
        m2_ += other.m2_ + delta * delta * (na * nb / n);
        count_ += other.count_;
        sum_ += other.sum_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        for (int i = 0; i < kBuckets; ++i)
            hist_[static_cast<std::size_t>(i)] +=
                other.hist_[static_cast<std::size_t>(i)];
    }

    std::string
    encode() const
    {
        std::ostringstream os;
        os << count_ << ' ' << fmtDouble(sum_) << ' ' << fmtDouble(mean_)
           << ' ' << fmtDouble(m2_) << ' ' << fmtDouble(min_) << ' '
           << fmtDouble(max_);
        for (int i = 0; i < kBuckets; ++i) {
            const std::uint64_t c = hist_[static_cast<std::size_t>(i)];
            if (c != 0)
                os << ' ' << i << ':' << c;
        }
        return os.str();
    }

    bool
    decode(const std::string &text)
    {
        reset();
        std::istringstream is(text);
        if (!(is >> count_ >> sum_ >> mean_ >> m2_ >> min_ >> max_)) {
            reset();
            return false;
        }
        std::string tok;
        while (is >> tok) {
            const auto colon = tok.find(':');
            if (colon == std::string::npos) {
                reset();
                return false;
            }
            int idx = -1;
            std::uint64_t c = 0;
            try {
                idx = std::stoi(tok.substr(0, colon));
                c = std::stoull(tok.substr(colon + 1));
            } catch (...) {
                reset();
                return false;
            }
            if (idx < 0 || idx >= kBuckets) {
                reset();
                return false;
            }
            hist_[static_cast<std::size_t>(idx)] = c;
        }
        return true;
    }

    std::uint64_t count() const { return count_; }

    double
    percentile(double fraction) const
    {
        if (count_ == 0)
            return 0.0;
        fraction = std::clamp(fraction, 0.0, 1.0);
        const auto rank = static_cast<std::uint64_t>(std::max(
            1.0, std::ceil(fraction * static_cast<double>(count_))));
        std::uint64_t seen = 0;
        for (int i = 0; i < kBuckets; ++i) {
            seen += hist_[static_cast<std::size_t>(i)];
            if (seen >= rank)
                return std::clamp(Distribution::bucketMid(i), min_, max_);
        }
        return max_;
    }

  private:
    static std::string
    fmtDouble(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<std::uint64_t> hist_;
};

} // namespace ticsim::testref

#endif // TICSIM_TESTS_DISTRIBUTION_REFERENCE_HPP
