/**
 * @file
 * Bounded virtual-time event timeline.
 *
 * A bounded ring of typed events, each stamped with the board's true
 * virtual time at emission. The capacity is a maximum, not an upfront
 * allocation: the ring starts with no storage and emit() grows it
 * geometrically until it holds `capacity()` events, so a short run
 * (one grid cell) pays for the events it records rather than for a
 * zeroed 2 MiB buffer. Once the ring is full, the oldest
 * events are overwritten and a drop counter records how many were
 * lost (the exporter reports it); drop accounting, snapshot() order
 * and Mark/rewind() do not depend on how far the storage has grown.
 *
 * emit() may therefore allocate while the app fiber runs. That does
 * not break the "heap-free on the simulated stack" rule: the buffer
 * belongs to the Board, not to the simulated stack, and emit()
 * contains no charge point, which is the only place a power failure
 * abandons a context, so a growth step always completes.
 *
 * Events are host-side observability only — emitting charges no
 * cycles, so enabling the timeline cannot change modeled results.
 */

#ifndef TICSIM_TELEMETRY_EVENTS_HPP
#define TICSIM_TELEMETRY_EVENTS_HPP

#include <cstdint>
#include <vector>

#include "support/units.hpp"

namespace ticsim::telemetry {

/** Timeline event types. */
enum class EventKind : std::uint8_t {
    Boot,             ///< power restored, runtime boot begins
    BrownOut,         ///< supply died (instant)
    InjectedFail,     ///< injected death (fault campaign / explorer),
                      ///< emitted just before the matching BrownOut
    Outage,           ///< off interval; at = death time, arg1 = off ns
    CheckpointCommit, ///< a checkpoint committed (arg0 = cause)
    Restore,          ///< a restore re-armed the application
    Rollback,         ///< boot-time rollback applied (arg0 = entries)
    Violation,        ///< consistency violation observed (arg0 = kind)
    RadioSend,        ///< radio packet sent (arg0 = bytes)
    SupplyState,      ///< supply regime change (arg0 = new state)
    PhaseSlice,       ///< coarse phase; at = start, arg0 = phase,
                      ///< arg1 = duration ns
};

/** Stable lower-case name ("boot", "checkpoint_commit", ...). */
const char *eventName(EventKind k);

/** One timeline record (fixed-size, trivially copyable). */
struct Event {
    TimeNs at = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    EventKind kind = EventKind::Boot;
};

class EventRing
{
  public:
    /** A ring holding at most @p capacity events (0 is taken as 1);
     *  no storage is allocated until the first emit(). */
    explicit EventRing(std::uint32_t capacity = 1 << 16);

    /** Append an event, growing the storage while below capacity;
     *  overwrites the oldest when full. */
    void emit(EventKind kind, TimeNs at, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0);

    /** Events currently held, oldest first. */
    std::vector<Event> snapshot() const;

    std::uint32_t size() const { return count_; }
    /** Maximum number of events held (the configured capacity,
     *  however much storage has been allocated so far). */
    std::uint32_t capacity() const { return capacity_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    void clear();

    /**
     * Position marker for snapshot/rewind. rewind() truncates the
     * ring back to a mark taken earlier, making a restored run's
     * timeline identical to a from-scratch run's. Truncation is only
     * exact while no events have been overwritten since the mark;
     * rewind() reports that as its return value (and restores the
     * counters regardless, so a subsequent snapshot() is still
     * consistent with the mark's view of the ring).
     */
    struct Mark {
        std::uint32_t head = 0;
        std::uint32_t count = 0;
        std::uint64_t dropped = 0;
    };

    Mark mark() const { return Mark{head_, count_, dropped_}; }

    /** @return true iff the rewind is exact (no drops since @p m).
     *  @p m must come from mark() on this ring. */
    bool rewind(const Mark &m);

  private:
    void grow();

    /// Storage; grows on demand and never shrinks. While the ring is
    /// not full nothing has been overwritten, so head_ == 0 and the
    /// events are the prefix [0, count_).
    std::vector<Event> buf_;
    std::uint32_t capacity_;
    std::uint32_t head_ = 0;  ///< index of the oldest event
    std::uint32_t count_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace ticsim::telemetry

#endif // TICSIM_TELEMETRY_EVENTS_HPP
