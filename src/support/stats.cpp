#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "logging.hpp"

namespace {

/** Bit-exact double-to-text for the cache encoding. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

namespace ticsim {

int
Distribution::bucketIndex(double v)
{
    if (!(v > 0.0))
        return 0; // zero, negative and NaN share the underflow bucket
    int exp = 0;
    const double m = std::frexp(v, &exp); // m in [0.5, 1)
    exp = std::clamp(exp, kMinExp, kMaxExp);
    int sub = static_cast<int>((m - 0.5) * 2.0 * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    return 1 + (exp - kMinExp) * kSubBuckets + sub;
}

double
Distribution::bucketMid(int idx)
{
    if (idx <= 0)
        return 0.0;
    const int rel = idx - 1;
    const int exp = kMinExp + rel / kSubBuckets;
    const int sub = rel % kSubBuckets;
    const double lo =
        std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exp);
    const double hi =
        std::ldexp(0.5 + (sub + 1) / (2.0 * kSubBuckets), exp);
    return 0.5 * (lo + hi);
}

void
Distribution::sample(double v)
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
    const auto idx = static_cast<std::uint32_t>(bucketIndex(v));
    const auto it = lowerBound(idx);
    if (it != hist_.end() && it->index == idx)
        ++it->count;
    else
        hist_.insert(it, Bucket{idx, 1});
}

std::vector<Distribution::Bucket>::iterator
Distribution::lowerBound(std::uint32_t idx)
{
    return std::lower_bound(
        hist_.begin(), hist_.end(), idx,
        [](const Bucket &b, std::uint32_t i) { return b.index < i; });
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = mean_ = m2_ = min_ = max_ = 0.0;
    hist_.clear();
}

void
Distribution::setBucket(int idx, std::uint64_t c)
{
    const auto i = static_cast<std::uint32_t>(idx);
    const auto it = lowerBound(i);
    const bool found = it != hist_.end() && it->index == i;
    if (c == 0) {
        if (found)
            hist_.erase(it);
    } else if (found) {
        it->count = c;
    } else {
        hist_.insert(it, Bucket{i, c});
    }
}

void
Distribution::merge(const Distribution &other)
{
    if (other.count_ == 0)
        return; // empty shard: nothing to fold in
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double n = na + nb;
    const double delta = other.mean_ - mean_;
    // Chan et al. parallel update: the cross term accounts for the two
    // shards' means disagreeing.
    mean_ += delta * (nb / n);
    m2_ += other.m2_ + delta * delta * (na * nb / n);
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    // Bucket-wise addition over the two ascending lists. A sum that
    // wraps to zero leaves the bucket out, so only non-empty ones stay.
    std::vector<Bucket> sum;
    sum.reserve(hist_.size() + other.hist_.size());
    auto a = hist_.begin();
    auto b = other.hist_.begin();
    while (a != hist_.end() || b != other.hist_.end()) {
        Bucket next;
        if (b == other.hist_.end() ||
            (a != hist_.end() && a->index < b->index)) {
            next = *a++;
        } else if (a == hist_.end() || b->index < a->index) {
            next = *b++;
        } else {
            next = Bucket{a->index, a->count + b->count};
            ++a;
            ++b;
        }
        if (next.count != 0)
            sum.push_back(next);
    }
    hist_.swap(sum);
}

std::string
Distribution::encode() const
{
    std::ostringstream os;
    os << count_ << ' ' << fmtDouble(sum_) << ' ' << fmtDouble(mean_)
       << ' ' << fmtDouble(m2_) << ' ' << fmtDouble(min_) << ' '
       << fmtDouble(max_);
    // Sparse histogram: "index:count" for non-empty buckets only.
    for (const Bucket &b : hist_)
        os << ' ' << b.index << ':' << b.count;
    return os.str();
}

bool
Distribution::decode(const std::string &text)
{
    reset();
    // count_ and the bucket tokens are unsigned: >> and stoull would
    // wrap "-3" to 2^64 - 3, so a '-' there is malformed.
    std::istringstream is(text);
    if ((is >> std::ws).peek() == '-' ||
        !(is >> count_ >> sum_ >> mean_ >> m2_ >> min_ >> max_)) {
        reset();
        return false;
    }
    std::string tok;
    while (is >> tok) {
        const auto colon = tok.find(':');
        if (colon == std::string::npos ||
            tok.find('-') != std::string::npos) {
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
        setBucket(idx, c); // a repeated index: the last token wins
    }
    return true;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double var = m2_ / static_cast<double>(count_ - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Distribution::percentile(double fraction) const
{
    if (count_ == 0)
        return 0.0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    // Nearest-rank over the bucket counts.
    const auto rank = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(fraction * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (const Bucket &b : hist_) {
        seen += b.count;
        if (seen >= rank)
            return std::clamp(bucketMid(static_cast<int>(b.index)), min_,
                              max_);
    }
    return max_;
}

StatGroup &
StatGroup::operator=(const StatGroup &o)
{
    name_ = o.name_;
    counters_ = o.counters_;
    distributions_ = o.distributions_;
    scalars_ = o.scalars_;
    ++generation_;
    return *this;
}

StatGroup &
StatGroup::operator=(StatGroup &&o) noexcept
{
    name_ = std::move(o.name_);
    counters_ = std::move(o.counters_);
    distributions_ = std::move(o.distributions_);
    scalars_ = std::move(o.scalars_);
    ++generation_;
    return *this;
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

Distribution &
StatGroup::distribution(const std::string &name)
{
    return distributions_[name];
}

void
StatGroup::setScalar(const std::string &name, double value)
{
    scalars_[name] = value;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counters_.count(name) != 0;
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
StatGroup::scalarValue(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
}

void
StatGroup::resetAll()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : distributions_)
        kv.second.reset();
    scalars_.clear();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &kv : counters_)
        os << name_ << '.' << kv.first << "  " << kv.second.value() << '\n';
    for (const auto &kv : scalars_)
        os << name_ << '.' << kv.first << "  " << kv.second << '\n';
    for (const auto &kv : distributions_) {
        const auto &d = kv.second;
        os << name_ << '.' << kv.first << "  n=" << d.count()
           << " mean=" << d.mean() << " min=" << d.min()
           << " max=" << d.max() << " sd=" << d.stddev()
           << " p50=" << d.p50() << " p95=" << d.p95()
           << " p99=" << d.p99() << '\n';
    }
}

} // namespace ticsim
