#include "injector.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "mem/journal.hpp"
#include "support/logging.hpp"

namespace ticsim::fault {

// ---- FaultedSupply ---------------------------------------------------------

FaultedSupply::FaultedSupply(std::unique_ptr<energy::Supply> inner,
                             TimeNs offNs)
    : inner_(std::move(inner)), offNs_(offNs)
{
    if (!inner_)
        fatal("fault: null inner supply");
}

void
FaultedSupply::scheduleAbsolute(std::vector<TimeNs> cutsAt)
{
    for (std::size_t i = 1; i < cutsAt.size(); ++i) {
        if (cutsAt[i] < cutsAt[i - 1])
            fatal("fault: absolute cuts must be ascending");
    }
    abs_ = std::move(cutsAt);
    nextAbs_ = 0;
    horizon_ = 0;
}

bool
FaultedSupply::armCutAfter(TimeNs delay)
{
    if (havePending_ || haveArmed_)
        return false; // first armed boundary wins
    havePending_ = true;
    pendingDelay_ = delay;
    horizon_ = 0; // the next drain must turn the delay into a deadline
    return true;
}

energy::DrainResult
FaultedSupply::drain(TimeNs now, TimeNs dur, Watts load)
{
    if (havePending_) {
        haveArmed_ = true;
        armedAt_ = now + pendingDelay_;
        havePending_ = false;
    }
    constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();
    const TimeNs absCut = nextAbs_ < abs_.size() ? abs_[nextAbs_] : kNever;
    const TimeNs armCut = haveArmed_ ? armedAt_ : kNever;
    const TimeNs cut = std::min(absCut, armCut);
    // After an inner drain at `now`, charges ending before both the
    // inner horizon and the next cut complete untouched. An injected
    // death leaves the horizon at 0: the inner may not have been
    // drained at this time.
    horizon_ = 0;
    if (cut == kNever || now + dur <= cut) {
        if (cut != kNever && cut <= now) {
            // Past-due cut (armed during off/boot work): re-entrant
            // death before any of this charge runs.
        } else {
            const energy::DrainResult r = inner_->drain(now, dur, load);
            horizon_ = std::min(inner_->safeUntil(), cut);
            return r;
        }
    }
    const TimeNs ranFor = cut > now ? cut - now : 0;
    if (ranFor > 0) {
        const energy::DrainResult pre = inner_->drain(now, ranFor, load);
        if (pre.died) {
            // The inner supply browned out organically before the cut
            // instant: that death wins and keeps the inner off time.
            // The cut stays scheduled and fires past-due on the next
            // drain, like any cut landing in an off window.
            horizon_ = std::min(inner_->safeUntil(), cut);
            return pre;
        }
    }
    if (cut == armCut) {
        haveArmed_ = false;
    } else {
        absFired_.push_back(abs_[nextAbs_]);
        ++nextAbs_;
    }
    forced_ = true;
    ++injected_;
    fired_.push_back(cut > now ? cut : now);
    ++injectedCuts_;
    return {true, ranFor};
}

TimeNs
FaultedSupply::offTimeAfterDeath(TimeNs deathTime)
{
    if (forced_) {
        forced_ = false;
        return offNs_;
    }
    return inner_->offTimeAfterDeath(deathTime);
}

void
FaultedSupply::reset()
{
    inner_->reset();
    horizon_ = 0;
    nextAbs_ = 0;
    havePending_ = false;
    haveArmed_ = false;
    forced_ = false;
    injected_ = 0;
    fired_.clear();
    absFired_.clear();
}

void
FaultedSupply::saveState(StateWriter &w) const
{
    w.put(nextAbs_);
    w.put(havePending_);
    w.put(pendingDelay_);
    w.put(haveArmed_);
    w.put(armedAt_);
    w.put(forced_);
    w.put(injected_);
    w.put(fired_.size());
    for (const TimeNs t : fired_)
        w.put(t);
    w.put(absFired_.size());
    for (const TimeNs t : absFired_)
        w.put(t);
    inner_->saveState(w);
}

void
FaultedSupply::loadState(StateReader &r)
{
    nextAbs_ = r.get<std::size_t>();
    havePending_ = r.get<bool>();
    pendingDelay_ = r.get<TimeNs>();
    haveArmed_ = r.get<bool>();
    armedAt_ = r.get<TimeNs>();
    forced_ = r.get<bool>();
    injected_ = r.get<std::uint64_t>();
    fired_.resize(r.get<std::size_t>());
    for (TimeNs &t : fired_)
        t = r.get<TimeNs>();
    absFired_.resize(r.get<std::size_t>());
    for (TimeNs &t : absFired_)
        t = r.get<TimeNs>();
    inner_->loadState(r);
    horizon_ = 0;
}

// ---- FaultInjector ---------------------------------------------------------

std::vector<TimeNs>
absoluteCuts(const FaultPlan &plan)
{
    std::vector<TimeNs> abs;
    for (const auto &c : plan.cuts)
        if (c.absolute)
            abs.push_back(c.atNs);
    std::sort(abs.begin(), abs.end());
    return abs;
}

bool
atomsAhead(const FaultPlan &plan, const InjectorState &s, TimeNs now)
{
    for (const auto &c : plan.cuts) {
        if (c.absolute ? now >= c.atNs
                       : s.census.boundary[static_cast<int>(c.boundary)] >=
                             c.occurrence)
            return false;
    }
    for (const auto &t : plan.tears)
        if (s.census.stores[static_cast<int>(t.site)] >= t.occurrence)
            return false;
    for (const auto &f : plan.flips)
        if (s.boots >= f.outageIndex + 1)
            return false;
    return true;
}

FaultInjector::FaultInjector(board::Board &board, FaultedSupply &supply,
                             const FaultPlan &plan)
    : board_(board), supply_(supply), plan_(&plan)
{
    resizeFirings();
}

void
FaultInjector::resizeFirings()
{
    cutFired_.assign(plan_->cuts.size(), AtomFiring{});
    tearFired_.assign(plan_->tears.size(), AtomFiring{});
    flipFired_.assign(plan_->flips.size(), AtomFiring{});
}

void
FaultInjector::rebind(const FaultPlan &plan)
{
    plan_ = &plan;
    tears_ = 0;
    flips_ = 0;
    flipsUnmatched_ = 0;
    resizeFirings();
}

void
FaultInjector::note(Boundary b)
{
    const std::uint64_t occ = ++st_.census.boundary[static_cast<int>(b)];
    if (hook_)
        hook_(CountedEvent{.boundary = b});
    for (std::size_t i = 0; i < plan_->cuts.size(); ++i) {
        const auto &c = plan_->cuts[i];
        if (!c.absolute && c.boundary == b && c.occurrence == occ &&
            supply_.armCutAfter(c.delayNs)) {
            cutFired_[i].fired = true;
            cutFired_[i].occurrence = occ;
            cutFired_[i].at = board_.now();
        }
    }
}

void
FaultInjector::powerOn()
{
    st_.started = true;
    ++st_.boots;
    if (st_.boots >= 2) {
        // Off window N separates powerOn N from powerOn N+1.
        for (std::size_t i = 0; i < plan_->flips.size(); ++i) {
            if (plan_->flips[i].outageIndex + 1 == st_.boots)
                applyFlip(plan_->flips[i], i);
        }
    }
    note(Boundary::Boot);
}

void
FaultInjector::commit()
{
    note(Boundary::CommitEnd);
}

void
FaultInjector::sideEvent(const mem::SideEvent &ev)
{
    if (const auto b = boundaryOf(ev.kind))
        note(*b);
}

void
FaultInjector::store(mem::StoreSite site, void *dst, const void *src,
                     std::uint32_t bytes)
{
    if (!st_.started) {
        // Construction-time stores happen at "programming time", before
        // the first power-on; they are not part of the fault universe.
        std::memcpy(dst, src, bytes);
        return;
    }
    const int s = static_cast<int>(site);
    const std::uint64_t occ = ++st_.census.stores[s];
    st_.census.maxStoreBytes[s] =
        std::max(st_.census.maxStoreBytes[s], bytes);
    if (hook_)
        hook_(CountedEvent{.isStore = true, .site = site, .dst = dst,
                           .src = src, .bytes = bytes});
    for (std::size_t i = 0; i < plan_->tears.size(); ++i) {
        const auto &t = plan_->tears[i];
        if (t.site == site && t.occurrence == occ) {
            tearFired_[i].fired = true;
            tearFired_[i].occurrence = occ;
            tearFired_[i].at = board_.now();
            mem::journalNote(dst, bytes);
            applyTornStore(t, dst, src, bytes);
            ++tears_;
            supply_.noteForcedDeath();
            // In-context this abandons execution and never returns —
            // the torn bytes are the last thing before lights out.
            // Outside a context it marks the boot dead.
            board_.forcePowerFail();
            return;
        }
    }
    mem::journalNote(dst, bytes);
    std::memcpy(dst, src, bytes);
}

void
applyTornStore(const TornWrite &t, void *dst, const void *src,
               std::uint32_t bytes)
{
    auto *d = static_cast<std::uint8_t *>(dst);
    const auto *sp = static_cast<const std::uint8_t *>(src);
    const std::uint32_t keep = std::min(t.keepBytes, bytes);
    switch (t.mode) {
      case TearMode::Prefix:
        std::memcpy(d, sp, keep);
        break;
      case TearMode::GarbageTail:
        std::memcpy(d, sp, keep);
        // Deterministic garbage: FRAM rails collapsing mid-write leave
        // neither old nor new data in the tail.
        for (std::uint32_t i = keep; i < bytes; ++i)
            d[i] = static_cast<std::uint8_t>(0xA5u ^ (i * 29u));
        break;
      case TearMode::Interleaved:
        if (bytes <= 4) {
            // A single aligned word commits atomically, so word-granular
            // interleaving cannot tear it. Garble the tail instead so
            // small scalar stores still land in a genuinely torn state.
            const std::uint32_t k =
                bytes > 0 ? std::min(keep, bytes - 1) : 0;
            std::memcpy(d, sp, k);
            for (std::uint32_t i = k; i < bytes; ++i)
                d[i] = static_cast<std::uint8_t>(0xA5u ^ (i * 29u));
            break;
        }
        // Word-granular out-of-order commit: even 4-byte words carry
        // the new value, odd words keep the old.
        for (std::uint32_t w = 0; w * 4 < bytes; w += 2) {
            const std::uint32_t off = w * 4;
            std::memcpy(d + off, sp + off,
                        std::min<std::uint32_t>(4, bytes - off));
        }
        break;
    }
}

void
FaultInjector::applyFlip(const BitFlip &f, std::size_t atomIdx)
{
    auto &ram = board_.nvram();
    for (const auto &r : ram.regions()) {
        if (r.name == f.region) {
            if (f.offset >= r.size) {
                ++flipsUnmatched_;
                return;
            }
            std::uint8_t *cell = ram.hostPtr(r.base) + f.offset;
            mem::journalNote(cell, 1);
            *cell ^= f.mask;
            ++flips_;
            flipFired_[atomIdx].fired = true;
            flipFired_[atomIdx].occurrence = st_.boots;
            flipFired_[atomIdx].at = board_.now();
            return;
        }
    }
    ++flipsUnmatched_;
}

} // namespace ticsim::fault
