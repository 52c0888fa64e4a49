#include "model.hpp"

namespace ticsim::verify {

std::string
ProgramModel::regionNameAt(Addr a) const
{
    for (const auto &r : nvRegions) {
        if (a >= r.base && a < r.base + r.size)
            return r.name;
    }
    return "?";
}

Cycles
ProgramModel::worstRegionCycles() const
{
    Cycles worst = 0;
    for (const auto &r : regions) {
        if (r.cycles > worst)
            worst = r.cycles;
    }
    return worst;
}

ModelRecorder::ModelRecorder(board::Board &board) : board_(board)
{
    open_.startCycle = board_.mcu().cycles();
}

void
ModelRecorder::recordData(analysis::AccessKind kind, const void *p,
                          std::uint32_t bytes)
{
    if (!board_.ctx().inside())
        return; // host-side peek (verification, table printing)
    if (!board_.nvram().contains(p) || board_.ctx().onStack(p))
        return;
    open_.events.push_back({kind, board_.nvram().addrOf(p), bytes});
}

void
ModelRecorder::memRead(const void *p, std::uint32_t bytes)
{
    recordData(analysis::AccessKind::Read, p, bytes);
}

void
ModelRecorder::memWrite(const void *p, std::uint32_t bytes)
{
    recordData(analysis::AccessKind::Write, p, bytes);
}

void
ModelRecorder::memVersioned(const void *p, std::uint32_t bytes)
{
    // Coverage may be established from the scheduler side, so no
    // inside() filter (mirrors the dynamic AccessTracer).
    if (!board_.nvram().contains(p) || board_.ctx().onStack(p))
        return;
    open_.events.push_back(
        {analysis::AccessKind::Versioned, board_.nvram().addrOf(p),
         bytes});
    ++open_.versionedEntries;
    open_.versionedBytes += bytes;
}

void
ModelRecorder::powerOn()
{
    // Calibration runs are failure-free; the only powerOn is the run's
    // first boot. Close anything open anyway so a model recorded from
    // a non-calibration run is still well-formed.
    closeRegion(analysis::IntervalEnd::PowerFailed);
}

void
ModelRecorder::commit()
{
    closeRegion(analysis::IntervalEnd::Committed);
}

void
ModelRecorder::sideEvent(const mem::SideEvent &ev)
{
    if (ev.kind == mem::SideEventKind::IoGuardEnter) {
        ++guardDepth_;
    }
    SiteEvent site;
    site.kind = ev.kind;
    if (ev.id)
        site.id = ev.id;
    site.u0 = ev.u0;
    site.atCycle = board_.mcu().cycles();
    site.inIoGuard = guardDepth_ > 0;
    open_.sites.push_back(std::move(site));
    if (ev.kind == mem::SideEventKind::IoGuardExit && guardDepth_ > 0)
        --guardDepth_;
}

void
ModelRecorder::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    closeRegion(analysis::IntervalEnd::RunEnd);
    model_.totalCycles = board_.mcu().cycles();
    model_.elapsed = board_.now();
    for (const auto &r : board_.nvram().regions())
        model_.nvRegions.push_back(
            {std::string(r.name), r.base, r.size});
}

void
ModelRecorder::closeRegion(analysis::IntervalEnd end)
{
    const Cycles nowCycles = board_.mcu().cycles();
    open_.cycles = nowCycles - open_.startCycle;
    // Keep any region that did work or touched state; skip the empty
    // artifacts of back-to-back commits.
    if (open_.cycles > 0 || !open_.events.empty() ||
        !open_.sites.empty()) {
        open_.index = model_.regions.size();
        if (open_.anchor.empty()) {
            // Checkpoint-based runtimes have no dispatch anchor; the
            // last task dispatched names task-runtime regions.
            for (const auto &s : open_.sites) {
                if (s.kind == mem::SideEventKind::TaskDispatch)
                    open_.anchor = s.id;
            }
            if (open_.anchor.empty())
                open_.anchor =
                    "region#" + std::to_string(open_.index);
        }
        open_.end = end;
        model_.regions.push_back(std::move(open_));
    }
    open_ = RegionNode{};
    open_.startCycle = nowCycles;
}

std::vector<analysis::IntervalTrace>
ModelRecorder::intervalView() const
{
    std::vector<analysis::IntervalTrace> out;
    out.reserve(model_.regions.size());
    for (const auto &r : model_.regions) {
        analysis::IntervalTrace t;
        t.boot = 1;
        t.end = r.end;
        t.events = r.events;
        out.push_back(std::move(t));
    }
    return out;
}

} // namespace ticsim::verify
