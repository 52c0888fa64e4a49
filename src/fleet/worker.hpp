/**
 * @file
 * The fleet worker: the process entry behind `ticssweep --worker`,
 * which the `ticssweep --workers N` coordinator re-execs.
 *
 * A worker reads one hello frame from stdin, re-enumerates the grid
 * from the shipped spec text (both sides share GridSpec::cells()'s
 * canonical order, so plain indices identify cells), runs its
 * assigned cells through the exact same runCell()/ResultCache path as
 * the in-process engine, and streams result frames back over stdout.
 * A background thread emits heartbeat frames so the coordinator can
 * tell a slow shard from a dead one.
 *
 * The hello's wall-clock deadline is enforced locally: the worker
 * stops starting new cells once it passes, even if the coordinator
 * that set it is gone. The hello's die_after field is the crash-chaos
 * hook — after sending that many results the worker SIGKILLs itself,
 * which is how CI exercises the coordinator's retry path
 * deterministically.
 */

#ifndef TICSIM_FLEET_WORKER_HPP
#define TICSIM_FLEET_WORKER_HPP

namespace ticsim::fleet {

/**
 * Run the worker protocol over stdin/stdout. @return the process
 * exit code (0 on a clean done, 1 on a protocol or setup error).
 */
int runWorker();

} // namespace ticsim::fleet

#endif // TICSIM_FLEET_WORKER_HPP
