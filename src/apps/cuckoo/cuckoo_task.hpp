/**
 * @file
 * Cuckoo filter decomposed into tasks (Alpaca-/InK-style): the whole
 * fingerprint table flows through one privatized channel — each insert
 * task reads it, mutates a private copy (the eviction loop stays
 * inside one atomic task) and commits it at the transition. The task
 * graph loops over the key sequence, which is legal in Alpaca and InK
 * but inexpressible in MayFly (paper Section 5.3: "Cuckoo cannot be
 * implemented in MayFly since loops are not allowed").
 */

#ifndef TICSIM_APPS_CUCKOO_CUCKOO_TASK_HPP
#define TICSIM_APPS_CUCKOO_CUCKOO_TASK_HPP

#include <array>
#include <optional>

#include "apps/common/cuckoo_core.hpp"
#include "runtimes/task_core.hpp"

namespace ticsim::apps {

class CuckooTaskApp
{
  public:
    static constexpr std::uint32_t kMaxSlots = 512;
    static constexpr std::uint32_t kMaxKeys = 256;

    using TableArray = std::array<std::uint16_t, kMaxSlots>;
    using KeyArray = std::array<std::uint32_t, kMaxKeys>;

    CuckooTaskApp(board::Board &b, taskrt::TaskRuntime &rt,
                  CuckooParams p = {});

    std::uint32_t inserted() const { return inserted_.committed(); }
    std::uint32_t recovered() const { return recovered_.committed(); }
    bool done() const { return done_.committed() != 0; }
    bool verify() const;

  private:
    board::Board &b_;
    taskrt::TaskRuntime &rt_;
    CuckooParams params_;
    /** cuckooGolden(params_), computed by the first verify(). */
    mutable std::optional<CuckooExpected> golden_;

    taskrt::Channel<TableArray> table_;
    taskrt::Channel<KeyArray> keys_;
    taskrt::Channel<std::uint32_t> i_;
    taskrt::Channel<std::uint32_t> lcgState_;
    taskrt::Channel<std::uint32_t> inserted_;
    taskrt::Channel<std::uint32_t> recovered_;
    taskrt::Channel<std::uint8_t> done_;

    taskrt::TaskId tInit_ = 0;
    taskrt::TaskId tInsert_ = 0;
    taskrt::TaskId tQuery_ = 0;
};

} // namespace ticsim::apps

#endif // TICSIM_APPS_CUCKOO_CUCKOO_TASK_HPP
