/**
 * @file
 * Typed accessors for non-volatile application globals, and the one
 * application store and load they share with Runtime::storeBytes and
 * Runtime::loadBytes.
 *
 * On the real platform, TICS's source-instrumentation pass rewrites
 * every store to .data/.bss (and every pointer store) into a call into
 * the memory manager. Here the same surface is expressed in the type
 * system: application globals are nv<T>, and every assignment is one
 * mem::appStore, which runs the running runtime's write barrier on the
 * NV port (trace.hpp) before the bytes change, so an undo log can
 * capture the old value.
 */

#ifndef TICSIM_MEM_NV_HPP
#define TICSIM_MEM_NV_HPP

#include <cstring>
#include <type_traits>

#include "mem/nvram.hpp"
#include "mem/trace.hpp"
#include "support/logging.hpp"

namespace ticsim::mem {

/**
 * A runtime's write barrier: the port's barrier slot, installed by the
 * Board while application code runs. With none installed, stores land
 * directly and persist (plain-C semantics).
 */
class MemHooks
{
  public:
    virtual ~MemHooks() = default;

    /**
     * Called before an application store overwrites @p bytes at
     * @p hostAddr. The runtime may undo-log the old contents, charge
     * cycles, or force a checkpoint.
     */
    virtual void preWrite(void *hostAddr, std::uint32_t bytes) = 0;
};

/**
 * The one application store: the installed barrier runs first, while
 * the old bytes are still in place; then the sink sees the write; then
 * the store lands through the sink's store() or as a plain copy.
 */
inline void
appStore(void *dst, const void *src, std::uint32_t bytes)
{
    if (detail::g_port.barrier) {
        ++perf::hot().hookDispatches;
        detail::g_port.barrier->preWrite(dst, bytes);
    } else {
        ++perf::hot().hookFastNull;
    }
    traceWrite(dst, bytes);
    gatedStore(StoreSite::AppGlobal, dst, src, bytes);
}

/** The one application load: the sink sees the read, then the bytes
 *  are copied. Reads need no versioning on any modeled system. */
inline void
appLoad(void *dst, const void *src, std::uint32_t bytes)
{
    traceRead(src, bytes);
    std::memcpy(dst, src, bytes);
}

/**
 * A T stored in the simulated FRAM arena. All access goes through
 * appStore/appLoad. Trivially-copyable T only (this is firmware state,
 * not a general container).
 */
template <typename T>
class nv
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "nv<T> holds raw firmware state");

  public:
    /** Slot width as the arena's 32-bit size type. */
    static constexpr std::uint32_t kBytes =
        static_cast<std::uint32_t>(sizeof(T));

    /** Allocate a slot in @p ram under @p name, default-initialized. */
    nv(NvRam &ram, const std::string &name)
    {
        const Addr a = ram.allocate(name, kBytes, alignof(T));
        slot_ = reinterpret_cast<T *>(ram.hostPtr(a));
        std::memset(static_cast<void *>(slot_), 0, sizeof(T));
    }

    nv(NvRam &ram, const std::string &name, const T &init)
        : nv(ram, name)
    {
        std::memcpy(static_cast<void *>(slot_), &init, sizeof(T));
    }

    nv(const nv &) = delete;
    nv &operator=(const nv &) = delete;

    /** Instrumented read. */
    operator T() const
    {
        T v;
        appLoad(&v, slot_, kBytes);
        return v;
    }

    T get() const { return static_cast<T>(*this); }

    /** Instrumented write. */
    nv &operator=(const T &v)
    {
        appStore(slot_, &v, kBytes);
        return *this;
    }

    nv &operator+=(const T &v) { return *this = get() + v; }
    nv &operator-=(const T &v) { return *this = get() - v; }
    nv &operator++() { return *this = get() + T(1); }

    /**
     * Raw slot pointer, for passing to pointer-based legacy code. Any
     * store through it must go via the runtime's instrumented store()
     * (mirroring the paper's pointer-write instrumentation).
     */
    T *raw() { return slot_; }
    const T *raw() const { return slot_; }

  private:
    T *slot_;
};

/**
 * A fixed-size array of T in the FRAM arena with instrumented element
 * access.
 */
template <typename T, std::uint32_t N>
class nvArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "nvArray<T> holds raw firmware state");

  public:
    /** Element width as the arena's 32-bit size type. */
    static constexpr std::uint32_t kElemBytes =
        static_cast<std::uint32_t>(sizeof(T));

    nvArray(NvRam &ram, const std::string &name)
    {
        const Addr a = ram.allocate(name, kElemBytes * N, alignof(T));
        slots_ = reinterpret_cast<T *>(ram.hostPtr(a));
        std::memset(static_cast<void *>(slots_), 0, sizeof(T) * N);
    }

    nvArray(const nvArray &) = delete;
    nvArray &operator=(const nvArray &) = delete;

    static constexpr std::uint32_t size() { return N; }

    T get(std::uint32_t i) const
    {
        TICSIM_ASSERT(i < N, "index %u", i);
        T v;
        appLoad(&v, slots_ + i, kElemBytes);
        return v;
    }

    void set(std::uint32_t i, const T &v)
    {
        TICSIM_ASSERT(i < N, "index %u", i);
        appStore(slots_ + i, &v, kElemBytes);
    }

    T *raw() { return slots_; }
    const T *raw() const { return slots_; }

  private:
    T *slots_;
};

} // namespace ticsim::mem

#endif // TICSIM_MEM_NV_HPP
