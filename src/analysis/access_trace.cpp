#include "access_trace.hpp"

namespace ticsim::analysis {

void
AccessTracer::recordData(AccessKind kind, const void *p,
                         std::uint32_t bytes)
{
    if (!board_.ctx().inside())
        return; // host-side peek (test verification, table printing)
    if (!board_.nvram().contains(p) || board_.ctx().onStack(p))
        return;
    open_.events.push_back(
        {kind, board_.nvram().addrOf(p), bytes});
}

void
AccessTracer::memRead(const void *p, std::uint32_t bytes)
{
    recordData(AccessKind::Read, p, bytes);
    readBytes_ += bytes;
}

void
AccessTracer::memWrite(const void *p, std::uint32_t bytes)
{
    recordData(AccessKind::Write, p, bytes);
    writeBytes_ += bytes;
}

void
AccessTracer::memVersioned(const void *p, std::uint32_t bytes)
{
    // Coverage may be established from the scheduler side (a restore
    // re-arming a surviving snapshot), so no inside() filter here.
    if (!board_.nvram().contains(p) || board_.ctx().onStack(p))
        return;
    open_.events.push_back(
        {AccessKind::Versioned, board_.nvram().addrOf(p), bytes});
    versionedBytes_ += bytes;
}

void
AccessTracer::powerOn()
{
    // The interval being closed keeps the boot index it was opened
    // with; the one opened by closeInterval belongs to the new boot.
    ++boots_;
    closeInterval(IntervalEnd::PowerFailed);
}

void
AccessTracer::commit()
{
    closeInterval(IntervalEnd::Committed);
}

void
AccessTracer::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    closeInterval(IntervalEnd::RunEnd);
}

void
AccessTracer::closeInterval(IntervalEnd end)
{
    if (!open_.events.empty()) {
        open_.end = end;
        intervals_.push_back(std::move(open_));
    }
    open_ = IntervalTrace{};
    open_.boot = boots_;
}

} // namespace ticsim::analysis
