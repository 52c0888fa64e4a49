#include "trace_supply.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "support/logging.hpp"
#include "support/parse.hpp"

#ifndef TICSIM_TRACE_DIR
#define TICSIM_TRACE_DIR ""
#endif

namespace ticsim::energy {

namespace {

std::mutex g_traceMutex;
std::map<std::string, std::shared_ptr<const EnvTrace>> g_traceCache;

std::string
traceDir()
{
    if (const char *env = std::getenv("TICSIM_TRACE_DIR");
        env && *env)
        return env;
    return TICSIM_TRACE_DIR;
}

std::string
trimmed(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

EnvTrace::EnvTrace(std::vector<Sample> samples)
    : samples_(std::move(samples))
{
}

std::shared_ptr<const EnvTrace>
EnvTrace::parse(const std::string &text, const std::string &origin,
                std::string &err)
{
    std::vector<Sample> samples;
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trimmed(line);
        if (line.empty())
            continue;
        const auto comma = line.find(',');
        const auto bad = [&](const char *what) {
            err = origin + ":" + std::to_string(lineNo) + ": " + what;
            return nullptr;
        };
        if (comma == std::string::npos)
            return bad("expected 'time_s,power_w'");
        // Plain decimals only: no hex, inf or nan, and no negative
        // value, not even -0.
        double timeS = 0.0;
        double powerW = 0.0;
        if (!parseDouble(trimmed(line.substr(0, comma)), timeS) ||
            !parseDouble(trimmed(line.substr(comma + 1)), powerW))
            return bad("malformed number");
        if (std::signbit(timeS) || std::signbit(powerW))
            return bad("time and power must be finite and >= 0");
        // Before the cast, which is undefined out of range; the bound
        // leaves headroom for startOffset + deathTime + off.
        if (timeS * 1e9 >= 0x1p62)
            return bad("time must be below 2^62 ns (~146 years)");
        Sample s;
        s.time = static_cast<TimeNs>(timeS * 1e9);
        s.power = powerW;
        samples.push_back(s);
    }
    if (samples.size() < 2) {
        err = origin + ": a trace needs at least 2 samples";
        return nullptr;
    }
    if (samples.front().time != 0) {
        err = origin + ": the first sample must be at t=0";
        return nullptr;
    }
    for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i].time <= samples[i - 1].time) {
            err = origin + ": sample times must be strictly ascending";
            return nullptr;
        }
    }
    return std::shared_ptr<const EnvTrace>(
        new EnvTrace(std::move(samples)));
}

std::shared_ptr<const EnvTrace>
EnvTrace::load(const std::string &path, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open trace '" + path + "'";
        return nullptr;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path, err);
}

std::shared_ptr<const EnvTrace>
EnvTrace::forEnv(const std::string &name, std::string &err)
{
    std::lock_guard<std::mutex> lock(g_traceMutex);
    const auto it = g_traceCache.find(name);
    if (it != g_traceCache.end())
        return it->second;
    const std::string dir = traceDir();
    if (dir.empty()) {
        err = "no trace directory configured (set TICSIM_TRACE_DIR)";
        return nullptr;
    }
    auto trace = load(dir + "/" + name + ".csv", err);
    if (trace)
        g_traceCache.emplace(name, trace);
    return trace;
}

Watts
EnvTrace::power(TimeNs t, bool wrap) const
{
    const TimeNs dur = duration();
    if (t >= dur) {
        if (!wrap)
            return samples_.back().power;
        t %= dur;
    }
    // Segment [i, i+1) with times[i] <= t < times[i+1]: exact sample
    // hits return the sample's own power (interpolation weight 0).
    const auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t,
        [](TimeNs v, const Sample &s) { return v < s.time; });
    const Sample &hi = *it;
    const Sample &lo = *(it - 1);
    const double w = static_cast<double>(t - lo.time) /
                     static_cast<double>(hi.time - lo.time);
    return lo.power + (hi.power - lo.power) * w;
}

EnvTrace::SegmentView
EnvTrace::segmentAt(TimeNs t, bool wrap, TimeNs horizon) const
{
    const TimeNs dur = duration();
    SegmentView v;
    if (t >= dur && !wrap) {
        // Clamped tail: constant power forever, bounded by horizon.
        v.end = t + horizon;
        v.maxPower = samples_.back().power;
        v.powerAtEnd = v.maxPower;
        v.index = samples_.size() - 1;
        v.start = dur;
        return v;
    }
    const TimeNs base = (t >= dur) ? (t / dur) * dur : 0;
    const TimeNs local = t - base;
    const auto it = std::upper_bound(
        samples_.begin(), samples_.end(), local,
        [](TimeNs lv, const Sample &s) { return lv < s.time; });
    const Sample &hi = *it;
    const Sample &lo = *(it - 1);
    v.end = base + hi.time;
    v.maxPower = std::max(lo.power, hi.power);
    v.powerAtEnd = hi.power;
    v.index = static_cast<std::size_t>(it - 1 - samples_.begin());
    v.start = base + lo.time;
    if (v.end > t + horizon) {
        v.end = t + horizon;
        v.powerAtEnd = power(v.end, wrap);
        // maxPower stays the segment-wide bound: conservative.
    }
    return v;
}

std::array<std::uint64_t, 6>
EnvTrace::RampKey::bits() const
{
    return {segment,
            std::bit_cast<std::uint64_t>(capacitance),
            std::bit_cast<std::uint64_t>(vMax),
            std::bit_cast<std::uint64_t>(vOn),
            std::bit_cast<std::uint64_t>(leakage),
            step};
}

std::optional<EnvTrace::Ramp>
EnvTrace::findRamp(const RampKey &key) const
{
    std::lock_guard<std::mutex> lock(rampMutex_);
    const auto it = ramps_.find(key.bits());
    if (it == ramps_.end())
        return std::nullopt;
    return it->second;
}

void
EnvTrace::recordRamp(const RampKey &key, const Ramp &ramp) const
{
    std::lock_guard<std::mutex> lock(rampMutex_);
    ramps_.emplace(key.bits(), ramp); // equal keys give equal ramps
}

TraceSupply::TraceSupply(Config cfg,
                         std::shared_ptr<const EnvTrace> trace)
    : cfg_(cfg), trace_(std::move(trace)),
      cap_(cfg.capacitance, cfg.vMax, cfg.vOn, cfg.leakage)
{
    if (!trace_)
        fatal("trace supply: null trace");
    if (cfg.vOff >= cfg.vOn)
        fatal("trace supply: vOff %g must be below vOn %g", cfg.vOff,
              cfg.vOn);
    if (cfg.integrationStep == 0)
        fatal("trace supply: zero integration step");
}

Watts
TraceSupply::harvestAt(TimeNs now) const
{
    return trace_->power(cfg_.startOffset + now, cfg_.wrap);
}

DrainResult
TraceSupply::drain(TimeNs now, TimeNs dur, Watts load)
{
    TimeNs done = 0;
    while (done < dur) {
        const TimeNs step =
            std::min<TimeNs>(cfg_.integrationStep, dur - done);
        const double dt = nsToSec(step);
        cap_.charge(harvestAt(now + done) * dt);
        cap_.discharge((load + cfg_.leakage) * dt);
        done += step;
        if (cap_.voltage() < cfg_.vOff) {
            ++deaths_;
            return {true, done};
        }
    }
    return {false, dur};
}

TimeNs
TraceSupply::offTimeAfterDeath(TimeNs deathTime)
{
    TimeNs off = 0;
    while (cap_.voltage() < cfg_.vOn) {
        if (off >= cfg_.maxOffTime) {
            // A gap longer than maxOffTime (a site that never gets
            // light again): report the cap and let the board's
            // starvation detector conclude the run. This is expected
            // for trace cells, so no per-death log noise.
            ++darkGiveUps_;
            return cfg_.maxOffTime;
        }
        const TimeNs t = cfg_.startOffset + deathTime + off;
        const TimeNs horizon = cfg_.maxOffTime - off;
        const EnvTrace::SegmentView seg =
            trace_->segmentAt(t, cfg_.wrap, horizon);
        if (seg.maxPower <= cfg_.leakage &&
            seg.end - t > cfg_.integrationStep) {
            // Harvest never exceeds leakage anywhere in this segment,
            // so the voltage is non-increasing across it: skipping to
            // its end in one trapezoid step cannot miss a Von
            // crossing.
            const TimeNs skip = seg.end - t;
            const double dt = nsToSec(skip);
            cap_.charge(0.5 * (trace_->power(t, cfg_.wrap) +
                               seg.powerAtEnd) *
                        dt);
            cap_.discharge(cfg_.leakage * dt);
            off += skip;
            continue;
        }
        off += stepSegment(seg, t, off);
    }
    offTimeUs_.sample(static_cast<double>(nsToUs(off)));
    return off;
}

TimeNs
TraceSupply::stepSegment(const EnvTrace::SegmentView &seg, TimeNs t,
                         TimeNs off)
{
    const TimeNs step = cfg_.integrationStep;
    const std::vector<EnvTrace::Sample> &samples = trace_->samples();
    const EnvTrace::Sample &lo = samples[seg.index];
    // Past the end of a clamped trace there is no next sample: power
    // holds at the last one's and the segment never ends.
    const bool tail = seg.index + 1 == samples.size();
    const EnvTrace::Sample &hi = tail ? lo : samples[seg.index + 1];
    const TimeNs end = tail ? std::numeric_limits<TimeNs>::max()
                            : seg.start + (hi.time - lo.time);

    const EnvTrace::RampKey key{seg.index, cfg_.capacitance, cfg_.vMax,
                                cfg_.vOn,  cfg_.leakage,     step};
    const bool fromEmpty = seg.maxPower > cfg_.leakage &&
                           t == seg.start &&
                           std::bit_cast<std::uint64_t>(
                               cap_.voltage()) == 0;
    if (fromEmpty) {
        const std::optional<EnvTrace::Ramp> ramp = trace_->findRamp(key);
        // Replay only if offTimeAfterDeath()'s give-up check could not
        // have fired before the ramp's last step.
        if (ramp && off + (ramp->duration - step) < cfg_.maxOffTime) {
            cap_.setVoltage(ramp->voltage);
            return ramp->duration;
        }
    }

    const double dt = nsToSec(step);
    TimeNs stepped = 0;
    while (cap_.voltage() < cfg_.vOn && t + stepped < end &&
           off + stepped < cfg_.maxOffTime) {
        Watts p = lo.power;
        if (!tail) {
            // EnvTrace::power()'s expression, term for term.
            const double w =
                static_cast<double>(t + stepped - seg.start) /
                static_cast<double>(hi.time - lo.time);
            p = lo.power + (hi.power - lo.power) * w;
        }
        cap_.charge(p * dt);
        cap_.discharge(cfg_.leakage * dt);
        stepped += step;
    }
    // Not a ramp cut short by maxOffTime, and a voltage that
    // setVoltage() (which clamps at vMax) reproduces bit for bit.
    const bool cut = cap_.voltage() < cfg_.vOn && t + stepped < end;
    if (fromEmpty && !cut && cap_.voltage() <= cfg_.vMax)
        trace_->recordRamp(key, {stepped, cap_.voltage()});
    return stepped;
}

void
TraceSupply::reset()
{
    cap_.setVoltage(cfg_.vOn);
    stats_.resetAll();
}

TimeNs
TraceSupply::offsetForSeed(std::uint64_t seed, const EnvTrace &trace)
{
    // splitmix64: cheap, well-mixed, and stable across platforms (a
    // persisted contract — offsets feed canonical cell results).
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<TimeNs>(z % trace.duration());
}

} // namespace ticsim::energy
