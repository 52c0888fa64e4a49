/**
 * @file
 * Cuckoo filter in the Chinchilla programming model: the loop state
 * and the key buffer are promoted to non-volatile globals (every write
 * paying dual-copy versioning), modeling Chinchilla's local-to-global
 * transformation and its .data explosion (paper Section 5.3.1).
 */

#ifndef TICSIM_APPS_CUCKOO_CUCKOO_CHINCHILLA_HPP
#define TICSIM_APPS_CUCKOO_CUCKOO_CHINCHILLA_HPP

#include <optional>

#include "apps/common/cuckoo_core.hpp"
#include "mem/nv.hpp"
#include "runtimes/chinchilla.hpp"

namespace ticsim::apps {

class CuckooChinchillaApp
{
  public:
    static constexpr std::uint32_t kMaxSlots = 512;
    static constexpr std::uint32_t kMaxKeys = 256;

    CuckooChinchillaApp(board::Board &b, runtimes::ChinchillaRuntime &rt,
                        CuckooParams p = {});

    void main();

    std::uint32_t inserted() const { return inserted_.get(); }
    std::uint32_t recovered() const { return recovered_.get(); }
    bool done() const { return done_.get() != 0; }
    bool verify() const;

  private:
    board::Board &b_;
    runtimes::ChinchillaRuntime &rt_;
    CuckooParams params_;
    /** cuckooGolden(params_), computed by the first verify(). */
    mutable std::optional<CuckooExpected> golden_;
    mem::nvArray<std::uint16_t, kMaxSlots> table_;
    mem::nvArray<std::uint32_t, kMaxKeys> keys_; ///< promoted local buffer
    mem::nv<std::uint32_t> i_;                   ///< promoted loop index
    mem::nv<std::uint32_t> lcgState_;            ///< promoted generator
    mem::nv<std::uint32_t> inserted_;
    mem::nv<std::uint32_t> recovered_;
    mem::nv<std::uint8_t> done_;
};

} // namespace ticsim::apps

#endif // TICSIM_APPS_CUCKOO_CUCKOO_CHINCHILLA_HPP
