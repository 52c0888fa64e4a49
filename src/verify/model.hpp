/**
 * @file
 * Recovered program model for static verification (ticsverify).
 *
 * The verifier never executes the application under power failures.
 * Instead it recovers a whole-program model from one *failure-free
 * calibration run* under a continuous supply, observed through the
 * same mem::AccessSink bus the dynamic checker uses, plus the task
 * graph the task runtimes expose directly. The model is a sequence of
 * *checkpoint regions* — the spans between commit points — each
 * carrying:
 *
 *  - the ordered NV access events (read/write/versioned), exactly as
 *    the dynamic AccessTracer would record them, so the static WAR
 *    analysis is byte-for-byte the dynamic detector's condition
 *    evaluated over every region instead of only the intervals a
 *    particular failure schedule happened to cut;
 *  - calibrated cycle costs (region work, versioning traffic) from
 *    which worst-case re-entry charges are derived;
 *  - side events: persistent-clock reads, timed assignments / uses /
 *    freshness checks, peripheral transmissions and the guarded-drain
 *    windows of the virtualized I/O layer, and task-dispatch anchors.
 *
 * Everything is resolved to stable names (NV region table snapshot,
 * task names) at recovery time, so the model outlives the board it
 * was recorded on and the analyses run on plain data.
 */

#ifndef TICSIM_VERIFY_MODEL_HPP
#define TICSIM_VERIFY_MODEL_HPP

#include <string>
#include <vector>

#include "analysis/access_trace.hpp"
#include "board/board.hpp"
#include "mem/trace.hpp"

namespace ticsim::verify {

/** One side event, stamped with the absolute calibration cycle. */
struct SiteEvent {
    mem::SideEventKind kind;
    std::string id;          ///< timed variable / peripheral / task name
    std::uint64_t u0 = 0;    ///< kind-specific (lifetime ns, bytes, ...)
    Cycles atCycle = 0;      ///< absolute cycle count when observed
    bool inIoGuard = false;  ///< inside a guarded post-commit drain
};

/** Snapshot of one named NV region (survives the board). */
struct NvRegionInfo {
    std::string name;
    Addr base = 0;
    std::uint32_t size = 0;
};

/** One recovered checkpoint region. */
struct RegionNode {
    std::size_t index = 0;
    /** Dispatch anchor: the task running in this region, or
     *  "region#N" for checkpoint-based runtimes. */
    std::string anchor;
    analysis::IntervalEnd end = analysis::IntervalEnd::RunEnd;
    Cycles cycles = 0;          ///< calibrated work inside the region
    Cycles startCycle = 0;      ///< absolute cycle at region entry
    std::uint64_t versionedEntries = 0; ///< undo/snapshot version ops
    std::uint64_t versionedBytes = 0;   ///< bytes made recoverable
    std::vector<analysis::AccessEvent> events; ///< NV traffic, in order
    std::vector<SiteEvent> sites;              ///< side events, in order
};

/** A statically reachable WAR range (latent hazard in the model). */
struct WarRange {
    std::string region;       ///< NV region name
    std::uint32_t offset = 0; ///< offset within the region
    std::uint32_t bytes = 0;
    std::size_t regionIndex = 0; ///< model region it occurs in
};

/** One task node recovered from the task runtime's graph. */
struct TaskInfo {
    std::string name;
    std::uint64_t dispatches = 0; ///< calibration dispatch count
};

/** The recovered whole-program model. */
struct ProgramModel {
    std::string app;
    std::string runtime;
    bool calibrated = false; ///< calibration run completed + verified
    Cycles totalCycles = 0;
    TimeNs elapsed = 0;
    std::vector<RegionNode> regions;
    std::vector<NvRegionInfo> nvRegions;
    std::vector<WarRange> warLatent; ///< uncovered read-then-write ranges
    std::vector<TaskInfo> tasks;     ///< empty for non-task runtimes
    std::size_t channelCount = 0;
    /** Segmentation metadata (0 for non-TICS runtimes). */
    std::uint32_t segmentBytes = 0;

    /** Name of the NV region covering @p a, or "?". */
    std::string regionNameAt(Addr a) const;

    /** Largest single-region calibrated cycle count. */
    Cycles worstRegionCycles() const;
};

/**
 * Records a ProgramModel during one failure-free Board::run. Installs
 * itself as the calling thread's access sink on construction
 * (restoring the previous one on destruction); call finalize() after
 * the run to close the trailing region and snapshot the NV region
 * table.
 *
 * Data-event filtering matches the dynamic AccessTracer exactly: app
 * context only, NvRam arena only, simulated stack excluded — so the
 * static WAR condition sees the same stream the dynamic checker sees.
 */
class ModelRecorder final : public mem::AccessSink
{
  public:
    explicit ModelRecorder(board::Board &board);

    ModelRecorder(const ModelRecorder &) = delete;
    ModelRecorder &operator=(const ModelRecorder &) = delete;

    // ---- mem::AccessSink --------------------------------------------------
    void memRead(const void *p, std::uint32_t bytes) override;
    void memWrite(const void *p, std::uint32_t bytes) override;
    void memVersioned(const void *p, std::uint32_t bytes) override;
    void powerOn() override;
    void commit() override;
    void sideEvent(const mem::SideEvent &ev) override;

    /** Close the open region and snapshot the NV layout. */
    void finalize();

    /** The recovered model (valid after finalize()). */
    ProgramModel &model() { return model_; }
    const ProgramModel &model() const { return model_; }

    /** Interval view of the recorded regions for the WAR detector. */
    std::vector<analysis::IntervalTrace> intervalView() const;

  private:
    void recordData(analysis::AccessKind kind, const void *p,
                    std::uint32_t bytes);
    void closeRegion(analysis::IntervalEnd end);

    board::Board &board_;
    ProgramModel model_;
    RegionNode open_;
    std::uint32_t guardDepth_ = 0;
    bool finalized_ = false;
    /** Declared last: installed after every other member is built,
     *  removed before any is destroyed. */
    mem::ScopedSink installed_{this};
};

} // namespace ticsim::verify

#endif // TICSIM_VERIFY_MODEL_HPP
