/**
 * @file
 * The fleet coordinator behind `ticssweep --workers N`: shards a
 * GridSpec across N re-exec'd `ticssweep --worker` processes and
 * merges their streamed results into the same SweepResult the
 * in-process engine produces.
 *
 * Determinism argument (see DESIGN.md "Fleet-scale orchestration"):
 *  - both sides enumerate cells with GridSpec::cells(), whose order
 *    is canonical (content-hashed JobIds), so an index fully
 *    identifies a cell;
 *  - every cell runs on a fresh Board seeded only by its
 *    configuration, so WHERE it runs cannot change its outcome;
 *  - results are stored by cell index, never arrival order, and
 *    numeric payloads travel as the repo's %.17g bit-exact text
 *    encodings;
 *  - aggregation reuses sweep::aggregateOutcomes() over the index-
 *    ordered outcomes.
 * Hence a fleet run is byte-identical to an in-process run at any
 * worker count, including after a crashed worker's cells are re-run —
 * a duplicate result for a cell is ignored (first wins) because
 * determinism makes every copy identical.
 *
 * Robustness: per-worker heartbeat timeouts, crash detection (EOF
 * without a done frame), bounded retry that re-shards only the dead
 * worker's still-missing cells, straggler cancellation once every
 * cell has a result, and a wall-clock budget forwarded to workers so
 * the cap holds even if the coordinator itself dies.
 */

#ifndef TICSIM_FLEET_COORDINATOR_HPP
#define TICSIM_FLEET_COORDINATOR_HPP

#include <string>

#include "harness/report.hpp"
#include "sweep/sweep.hpp"

namespace ticsim::fleet {

struct FleetConfig {
    sweep::SweepConfig sweep;
    /** Worker processes; must be >= 1 (an in-process grid runs
     *  through sweep::runSweep). */
    unsigned workers = 4;
    /** Worker executable; "" = re-exec this process's own image
     *  (/proc/self/exe), which must then serve `--worker` as ticssweep
     *  does. Tests, which run inside another binary, point it at
     *  ticssweep. */
    std::string workerBin;
    /** Wall-clock cap in seconds for the whole run, forwarded to
     *  every worker as its own deadline; 0 = none. */
    double wallBudgetS = 0.0;
    /** Respawns allowed per shard after a crash/timeout. */
    unsigned maxRetries = 2;
    /** A worker silent (no frame of any kind) this long is dead. */
    double heartbeatTimeoutS = 30.0;
    /**
     * Chaos hook: this shard's first attempt is told to SIGKILL
     * itself after one result, exercising the real crash-retry path
     * deterministically. -1 = off.
     */
    int killWorkerShard = -1;
};

struct FleetResult {
    /** Index-ordered, same as runSweep(); an incomplete run lists
     *  only the cells that produced a result. */
    sweep::SweepResult sweep;
    harness::FleetSection fleet;
    /** True when every cell produced a result. */
    bool complete = false;
};

/** Run the grid across worker processes per @p cfg; fatal() when
 *  cfg.workers is 0. */
FleetResult runFleet(const FleetConfig &cfg);

} // namespace ticsim::fleet

#endif // TICSIM_FLEET_COORDINATOR_HPP
