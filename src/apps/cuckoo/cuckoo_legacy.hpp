/**
 * @file
 * Cuckoo-filter benchmark, legacy-C shape (paper Section 5.3): insert
 * a pseudo-random key sequence into the filter, then recover it with
 * membership queries. The fingerprint table is a flat global array in
 * FRAM, mutated through raw pointers — the workload that forces
 * whole-memory checkpoints in prior systems and that TICS handles with
 * its undo-logged pointer-write path.
 *
 * One source; runs unchanged under plain C, TICS and MementOS-like
 * runtimes. (MayFly cannot express it at all: the eviction loop is a
 * cycle in the task graph.)
 */

#ifndef TICSIM_APPS_CUCKOO_CUCKOO_LEGACY_HPP
#define TICSIM_APPS_CUCKOO_CUCKOO_LEGACY_HPP

#include <optional>

#include "apps/common/cuckoo_core.hpp"
#include "board/board.hpp"
#include "board/runtime.hpp"
#include "mem/nv.hpp"

namespace ticsim::apps {

class CuckooLegacyApp
{
  public:
    static constexpr std::uint32_t kMaxSlots = 512;

    CuckooLegacyApp(board::Board &b, board::Runtime &rt,
                    CuckooParams p = {});

    void main();

    std::uint32_t inserted() const { return inserted_.get(); }
    std::uint32_t recovered() const { return recovered_.get(); }
    bool done() const { return done_.get() != 0; }
    bool verify() const;

    const CuckooParams &params() const { return params_; }

  private:
    board::Board &b_;
    board::Runtime &rt_;
    CuckooParams params_;
    /** cuckooGolden(params_), computed by the first verify(): the
     *  explorer verifies at every leaf. */
    mutable std::optional<CuckooExpected> golden_;
    /** Fingerprint table: a flat FRAM array manipulated by pointer. */
    mem::nvArray<std::uint16_t, kMaxSlots> table_;
    mem::nv<std::uint32_t> inserted_;
    mem::nv<std::uint32_t> recovered_;
    mem::nv<std::uint8_t> done_;
};

} // namespace ticsim::apps

#endif // TICSIM_APPS_CUCKOO_CUCKOO_LEGACY_HPP
