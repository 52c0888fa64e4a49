/**
 * @file
 * Work-stealing job pool for the experiment-orchestration subsystem.
 *
 * Sweep cells, fault-campaign schedules and cross-validation probes
 * are embarrassingly parallel: every job builds a fresh Board on its
 * own thread, and all formerly process-global simulator hooks (the NV
 * port, execution context, log clock) are thread_local, so concurrent
 * boards cannot observe each other. The
 * pool's only contract is that every index in [0, count) is executed
 * exactly once; callers that need deterministic output assemble
 * results by index after run() returns, never in completion order.
 */

#ifndef TICSIM_SWEEP_JOB_POOL_HPP
#define TICSIM_SWEEP_JOB_POOL_HPP

#include <cstddef>
#include <functional>

namespace ticsim::sweep {

class JobPool
{
  public:
    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit JobPool(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /** Host parallelism (hardware_concurrency, at least 1). */
    static unsigned defaultJobs();

    /**
     * Execute body(0) .. body(count-1), each exactly once. With one
     * worker the bodies run inline on the calling thread in index
     * order — the exact serial path, so single-job runs keep the
     * pre-pool behavior (including BenchSession run recording, which
     * only accepts the session owner's thread). With more workers,
     * indices are dealt round-robin into per-worker deques; a worker
     * drains its own deque from the front and steals from the back of
     * its neighbors', so an unlucky worker stuck on one long
     * simulation never serializes the rest of the grid.
     *
     * The first exception thrown by any body aborts the remaining
     * jobs (already-started ones finish) and is rethrown here.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &body) const;

  private:
    unsigned jobs_;
};

} // namespace ticsim::sweep

#endif // TICSIM_SWEEP_JOB_POOL_HPP
