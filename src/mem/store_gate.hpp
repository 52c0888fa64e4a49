/**
 * @file
 * Gated non-volatile stores: the torn-write injection point.
 *
 * Real FRAM writes multi-byte values word by word; a power failure in
 * the middle leaves a prefix written, a garbage tail, or an
 * interleaved mix of old and new words (NORM-style NVM emulation).
 * Every multi-byte NV store the simulator models — application-global
 * assignments, undo-log appends, and checkpoint header persists —
 * funnels through gatedStore() so an installed StoreGate can replace
 * the atomic host memcpy with a torn partial write followed by an
 * immediate power failure.
 *
 * When no gate is installed (the default, and every normal benchmark
 * or test run), gatedStore() is a null-pointer test plus memcpy:
 * no modeled costs and no behaviour change.
 */

#ifndef TICSIM_MEM_STORE_GATE_HPP
#define TICSIM_MEM_STORE_GATE_HPP

#include <cstdint>
#include <cstring>

#include "perf/counters.hpp"

namespace ticsim::mem {

/** Which protocol step a gated store belongs to; fault plans target
 *  tears by site so a schedule can name "the 3rd undo-pool write". */
enum class StoreSite : std::uint8_t {
    AppGlobal,  ///< nv<T>/nvArray/storeBytes application data
    UndoPool,   ///< undo-log record (entry fields or saved bytes)
    CkptHeader, ///< checkpoint slot header (the commit point)
};

/** Number of StoreSite enumerators (for occurrence-count arrays). */
constexpr int kStoreSiteCount = 3;

/** Short stable name for plan serialization and reports. */
const char *storeSiteName(StoreSite s);

/**
 * Interceptor for instrumented NV stores. store() must either copy
 * [src, src+bytes) to dst itself (possibly partially, modeling a torn
 * write) or not return at all (abandoning the context like a power
 * failure mid-store).
 */
class StoreGate
{
  public:
    virtual ~StoreGate() = default;
    virtual void store(StoreSite site, void *dst, const void *src,
                       std::uint32_t bytes) = 0;
};

namespace detail {
/** Thread-local for the same reason as mem::detail::g_sink: concurrent
 *  sweep Boards each install their own injector without cross-talk. */
extern constinit thread_local StoreGate *g_gate;
} // namespace detail

/** Install @p g as the calling thread's store gate; returns the
 *  previous one (may be null). Pass nullptr to restore direct stores. */
StoreGate *setStoreGate(StoreGate *g);

/** Perform an instrumented NV store through the installed gate. */
inline void
gatedStore(StoreSite site, void *dst, const void *src,
           std::uint32_t bytes)
{
    if (detail::g_gate) {
        ++perf::hot().gateDispatches;
        detail::g_gate->store(site, dst, src, bytes);
    } else {
        ++perf::hot().gateFastNull;
        std::memcpy(dst, src, bytes);
    }
}

/** RAII gate installation for the scope of one faulted Board::run on
 *  the current thread. */
class ScopedStoreGate
{
  public:
    explicit ScopedStoreGate(StoreGate *g) : prev_(setStoreGate(g)) {}
    ~ScopedStoreGate() { setStoreGate(prev_); }

    ScopedStoreGate(const ScopedStoreGate &) = delete;
    ScopedStoreGate &operator=(const ScopedStoreGate &) = delete;

  private:
    StoreGate *prev_;
};

/** Short name used by the sweep/fault/verify subsystems. */
using ScopedGate = ScopedStoreGate;

} // namespace ticsim::mem

#endif // TICSIM_MEM_STORE_GATE_HPP
