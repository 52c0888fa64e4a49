#include "exec_context.hpp"

#include <algorithm>

#include "support/logging.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TICSIM_ASAN_ACTIVE 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define TICSIM_ASAN_ACTIVE 1
#endif

#if defined(TICSIM_ASAN_ACTIVE)
#include <sanitizer/asan_interface.h>
#define TICSIM_NO_ASAN_CTX __attribute__((no_sanitize_address))
#else
#define TICSIM_NO_ASAN_CTX
#endif

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TICSIM_TSAN_ACTIVE 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define TICSIM_TSAN_ACTIVE 1
#endif

#if defined(TICSIM_TSAN_ACTIVE)
#include <sanitizer/tsan_interface.h>
#endif

namespace ticsim::context {

namespace {

/**
 * Clears ASan's shadow for the fiber stack before (re-)entering it.
 * Power failures abandon the stack mid-frame and checkpoint restores
 * overwrite it with an earlier image, so leftover redzone poison from
 * the previous incarnation no longer matches the frames about to run
 * and would be reported as stack-use-after-scope.
 */
inline void
unpoisonFiberStack(std::uint8_t *base, std::size_t size)
{
#if defined(TICSIM_ASAN_ACTIVE)
    __asan_unpoison_memory_region(base, size);
#else
    (void)base;
    (void)size;
#endif
}

/**
 * TSan fiber shims. TSan tracks shadow state per stack; without
 * telling it about ucontext switches it sees one OS thread's accesses
 * jump between the scheduler stack and the simulated FRAM stack and
 * reports them as races against the sweep pool's other workers. Each
 * ExecContext owns one fiber (its stack buffer survives simulated
 * reboots, so the fiber does too), and every swapcontext/setcontext
 * is bracketed by a switch annotation.
 *
 * A brown-out abandonment leaves the fiber via setcontext without
 * unwinding, and a checkpoint resume re-enters a frame captured by an
 * earlier getcontext. Neither jump runs the function exits in between,
 * and the fiber API has no longjmp-style shadow-stack rewind, so with
 * function entry/exit instrumentation each abandon/resume cycle would
 * leak stale shadow frames until checkpoint-resume runs with hundreds
 * of reboots exhaust TSan's fixed-size shadow stack. The TSan preset
 * therefore compiles without those hooks (CMakeLists.txt), which lets
 * the whole suite run under TSan; reports then show only the racing
 * frame.
 */
inline void *
tsanFiberCreate()
{
#if defined(TICSIM_TSAN_ACTIVE)
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

inline void
tsanFiberDestroy(void *fiber)
{
#if defined(TICSIM_TSAN_ACTIVE)
    if (fiber != nullptr)
        __tsan_destroy_fiber(fiber);
#else
    (void)fiber;
#endif
}

/* Forced inline: if these helpers kept their own frames, TSan's
 * function-entry would be recorded on one fiber's shadow stack and the
 * matching exit popped from the other's. */
__attribute__((always_inline)) inline void *
tsanFiberCurrent()
{
#if defined(TICSIM_TSAN_ACTIVE)
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

__attribute__((always_inline)) inline void
tsanFiberSwitch(void *fiber)
{
#if defined(TICSIM_TSAN_ACTIVE)
    if (fiber != nullptr)
        __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

/**
 * Copies a live stack image without sanitizer interception (the image
 * spans frames whose ASan redzones are poisoned by design). A volatile
 * byte loop keeps the compiler from lowering this back into a memcpy
 * libcall.
 */
TICSIM_NO_ASAN_CTX void
rawStackCopy(void *dst, const void *src, std::size_t n)
{
    auto *d = static_cast<volatile unsigned char *>(dst);
    auto *s = static_cast<const volatile unsigned char *>(src);
    for (std::size_t i = 0; i < n; ++i)
        d[i] = s[i];
}

/** The context whose trampoline should run next. Thread-local so
 *  concurrent sweep Boards (one ucontext pair per thread) never see
 *  each other's contexts; a context must be entered and exited on the
 *  same thread, which Board::run guarantees by construction. */
thread_local ExecContext *currentCtx = nullptr;

} // namespace

ExecContext::ExecContext(std::uint8_t *stackBase, std::size_t stackSize)
    : stackBase_(stackBase), stackSize_(stackSize)
{
    if (!stackBase || stackSize < 8 * 1024)
        fatal("exec context: stack buffer must be at least 8 KiB");
    tsanFiber_ = tsanFiberCreate();
}

ExecContext::~ExecContext()
{
    tsanFiberDestroy(tsanFiber_);
}

void
ExecContext::trampoline()
{
    ExecContext *self = currentCtx;
    TICSIM_ASSERT(self != nullptr);
    self->entry_();
    // Entry returned normally: report completion and jump back to the
    // scheduler context explicitly (uc_link stays armed as a backstop).
    // setcontext instead of a plain return keeps the TSan fiber switch
    // coherent: after the annotation below, a normal return would run
    // this function's instrumented exit and pop a frame from the
    // *scheduler's* shadow stack.
    self->reason_ = ExitReason::Completed;
    self->inside_ = false;
    tsanFiberSwitch(self->tsanSchedFiber_);
    setcontext(&self->schedCtx_);
    panic("setcontext (trampoline) returned");
}

void
ExecContext::prepare(Entry entry)
{
    TICSIM_ASSERT(!inside_, "prepare() from inside the context");
    // A fresh boot starts the stack from scratch, but a brown-out
    // abandonment (exitWith) leaves TSan's per-fiber shadow stack with
    // all the abandoned frames still pushed — the fiber API has no
    // longjmp-style rewind. Recreate the fiber so reboot-heavy
    // restart-style runs cannot exhaust the shadow stack.
    tsanFiberDestroy(tsanFiber_);
    tsanFiber_ = tsanFiberCreate();
    entry_ = std::move(entry);
    if (getcontext(&startCtx_) != 0)
        panic("getcontext failed");
    startCtx_.uc_stack.ss_sp = stackBase_;
    startCtx_.uc_stack.ss_size = stackSize_;
    startCtx_.uc_link = &schedCtx_;
    makecontext(&startCtx_, &ExecContext::trampoline, 0);
    armedFresh_ = true;
    armedResume_ = false;
}

void
ExecContext::prepareResume(RegSlot &slot)
{
    TICSIM_ASSERT(!inside_, "prepareResume() from inside the context");
    resumeSlot_ = &slot;
    armedResume_ = true;
    armedFresh_ = false;
}

ExitReason
ExecContext::run()
{
    TICSIM_ASSERT(armedFresh_ || armedResume_, "run() without arming");
    reason_ = ExitReason::Completed;
    inside_ = true;
    currentCtx = this;
    unpoisonFiberStack(stackBase_, stackSize_);
    tsanSchedFiber_ = tsanFiberCurrent();
    tsanFiberSwitch(tsanFiber_);
    if (armedFresh_) {
        armedFresh_ = false;
        if (swapcontext(&schedCtx_, &startCtx_) != 0)
            panic("swapcontext (fresh) failed");
    } else {
        armedResume_ = false;
        resumedFlag_ = true;
        if (swapcontext(&schedCtx_, &resumeSlot_->uc) != 0)
            panic("swapcontext (resume) failed");
    }
    inside_ = false;
    currentCtx = nullptr;
    return reason_;
}

bool
ExecContext::captureRegs(RegSlot &slot)
{
    TICSIM_ASSERT(inside_, "captureRegs() outside the context");
    resumedFlag_ = false;
    if (getcontext(&slot.uc) != 0)
        panic("getcontext (capture) failed");
    // Two returns: directly after the capture (resumedFlag_ still
    // false) or re-entered from run() after prepareResume() (which set
    // the flag). The flag is volatile host state, never on the
    // simulated stack, so the restored stack image cannot forge it.
    if (resumedFlag_) {
        resumedFlag_ = false;
        return false;
    }
    return true;
}

bool
ExecContext::captureFiber(FiberImage &img, std::uint32_t redzoneBytes)
{
    TICSIM_ASSERT(inside_, "captureFiber() outside the context");
    resumedFlag_ = false;
    if (getcontext(&img.regs.uc) != 0)
        panic("getcontext (fiber capture) failed");
    // Two returns, like captureRegs(): the resume path must not touch
    // @p img (the snapshot that carried it may have been relocated).
    if (resumedFlag_) {
        resumedFlag_ = false;
        return false;
    }
    const auto base = reinterpret_cast<std::uintptr_t>(stackBase_);
    std::uintptr_t low = probeSp();
    low = low > redzoneBytes ? low - redzoneBytes : 0;
    low = std::max(low, base);
    img.low = low;
    img.bytes.resize(stackTop() - low);
    rawStackCopy(img.bytes.data(), reinterpret_cast<void *>(low),
                 img.bytes.size());
    return true;
}

void
ExecContext::armFiberResume(const FiberImage &img)
{
    TICSIM_ASSERT(!inside_, "armFiberResume() from inside the context");
    TICSIM_ASSERT(img.low >= reinterpret_cast<std::uintptr_t>(stackBase_) &&
                      img.low + img.bytes.size() == stackTop(),
                  "fiber image does not describe this stack buffer");
    rawStackCopy(reinterpret_cast<void *>(img.low), img.bytes.data(),
                 img.bytes.size());
    fiberResumeRegs_ = img.regs;
#if defined(__x86_64__) && defined(__GLIBC__)
    // glibc's getcontext points uc_mcontext.fpregs into the ucontext_t
    // itself; after relocating the slot the pointer must be re-homed
    // or setcontext restores FP state from a dangling address.
    fiberResumeRegs_.uc.uc_mcontext.fpregs =
        &fiberResumeRegs_.uc.__fpregs_mem;
#endif
    prepareResume(fiberResumeRegs_);
}

void
ExecContext::exitWith(ExitReason reason)
{
    TICSIM_ASSERT(inside_, "exitWith() outside the context");
    reason_ = reason;
    inside_ = false;
    // Abandon the context without unwinding, like a brown-out.
    tsanFiberSwitch(tsanSchedFiber_);
    setcontext(&schedCtx_);
    panic("setcontext returned");
}

std::uintptr_t
ExecContext::probeSp()
{
    // Address of a local approximates the caller's stack pointer
    // closely enough for red-zone arithmetic.
    volatile char probe = 0;
    return reinterpret_cast<std::uintptr_t>(&probe);
}

std::uintptr_t
ExecContext::stackTop() const
{
    return reinterpret_cast<std::uintptr_t>(stackBase_) + stackSize_;
}

bool
ExecContext::onStack(const void *p) const
{
    const auto v = reinterpret_cast<std::uintptr_t>(p);
    const auto base = reinterpret_cast<std::uintptr_t>(stackBase_);
    return v >= base && v < base + stackSize_;
}

} // namespace ticsim::context
