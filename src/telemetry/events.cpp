#include "events.hpp"

#include <algorithm>

#include "perf/counters.hpp"
#include "support/logging.hpp"

namespace ticsim::telemetry {

const char *
eventName(EventKind k)
{
    switch (k) {
      case EventKind::Boot:             return "boot";
      case EventKind::BrownOut:         return "brown_out";
      case EventKind::InjectedFail:     return "injected_fail";
      case EventKind::Outage:           return "outage";
      case EventKind::CheckpointCommit: return "checkpoint_commit";
      case EventKind::Restore:          return "restore";
      case EventKind::Rollback:         return "rollback";
      case EventKind::Violation:        return "violation";
      case EventKind::RadioSend:        return "radio_send";
      case EventKind::SupplyState:      return "supply_state";
      case EventKind::PhaseSlice:       return "phase";
    }
    return "?";
}

EventRing::EventRing(std::uint32_t capacity)
    : capacity_(capacity > 0 ? capacity : 1)
{
}

void
EventRing::grow()
{
    // Doubling keeps emit() amortised O(1); the first step is small
    // because a grid cell records about a hundred events.
    constexpr std::size_t kFirstStep = 256;
    const std::size_t want = std::max(kFirstStep, 2 * buf_.size());
    buf_.resize(std::min<std::size_t>(want, capacity_));
}

void
EventRing::emit(EventKind kind, TimeNs at, std::uint64_t arg0,
                std::uint64_t arg1)
{
    ++perf::hot().eventPushes;
    const Event e{at, arg0, arg1, kind};
    if (count_ < capacity_) {
        if (count_ == buf_.size())
            grow();
        buf_[count_++] = e;  // not full, so head_ == 0
        return;
    }
    buf_[head_] = e;  // overwrite the oldest
    head_ = head_ + 1 < capacity_ ? head_ + 1 : 0;
    ++dropped_;
    ++perf::hot().eventDrops;
}

std::vector<Event>
EventRing::snapshot() const
{
    std::vector<Event> out;
    out.reserve(count_);
    for (std::uint32_t i = 0; i < count_; ++i)
        out.push_back(buf_[(head_ + i) % capacity_]);
    return out;
}

void
EventRing::clear()
{
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
}

bool
EventRing::rewind(const Mark &m)
{
    // emit() and snapshot() rely on this: storage never shrinks, and
    // a ring short of full has not wrapped.
    TICSIM_ASSERT(m.count <= buf_.size() &&
                      (m.head == 0 || m.count == capacity_),
                  "EventRing::rewind: mark from another ring");
    const bool exact = dropped_ == m.dropped;
    head_ = m.head;
    count_ = m.count;
    dropped_ = m.dropped;
    return exact;
}

} // namespace ticsim::telemetry
