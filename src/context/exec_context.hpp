/**
 * @file
 * Execution contexts for intermittently-powered application code.
 *
 * Application code is real, natively compiled C++ (full pointers and
 * recursion), but it runs on a stack buffer carved out of the simulated
 * FRAM arena, as a fiber the simulator switches into and out of. This
 * gives the simulator the three properties an FRAM MCU has:
 *
 *  1. The call stack physically persists across power failures (the
 *     buffer is never cleared), but
 *  2. machine registers (PC, SP, callee state) are volatile: a power
 *     failure abandons the context, and
 *  3. a register checkpoint (save()) plus a copy of the live stack
 *     region is sufficient to resume execution mid-function after a
 *     reboot, at the same addresses, so pointers into the stack stay
 *     valid.
 *
 * On x86-64 the switch is a few lines of assembly that save and
 * restore only the registers the SysV ABI makes a callee preserve;
 * other targets keep glibc's ucontext behind the same primitives. No
 * switch touches the signal mask: nothing in the simulator changes it.
 *
 * A note on abandonment: a simulated power failure leaves the context
 * by a register jump without unwinding, exactly as a real brown-out
 * would. Application code must therefore keep only trivially-
 * destructible state on the simulated stack (which embedded firmware
 * does anyway).
 */

#ifndef TICSIM_CONTEXT_EXEC_CONTEXT_HPP
#define TICSIM_CONTEXT_EXEC_CONTEXT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#if defined(__x86_64__) && defined(__ELF__)
#define TICSIM_CONTEXT_ASM 1
#else
#include <ucontext.h>
#endif

namespace ticsim::context {

/** Why control returned from the application context. */
enum class ExitReason {
    Completed,  ///< the entry function returned
    PowerFail,  ///< a brown-out abandoned the context
    TimeLimit,  ///< the experiment's time budget expired mid-run
    Starved,    ///< the runtime detected unrecoverable starvation
};

/**
 * Machine-register checkpoint slot. Opaque to callers; the TICS
 * runtime double-buffers two of these. The modeled size of this
 * structure on the target is Mcu::regFileBytes, not sizeof(RegSlot).
 * On x86-64 it holds what the SysV ABI makes a callee preserve (72
 * bytes, no pointer into itself), so a copy anywhere in memory
 * resumes like the original.
 */
#if defined(TICSIM_CONTEXT_ASM)
struct RegSlot {
    std::uint64_t rsp = 0;
    std::uint64_t rip = 0;
    std::uint64_t rbx = 0;
    std::uint64_t rbp = 0;
    std::uint64_t r12 = 0;
    std::uint64_t r13 = 0;
    std::uint64_t r14 = 0;
    std::uint64_t r15 = 0;
    std::uint32_t mxcsr = 0; ///< SSE control and status
    std::uint16_t x87cw = 0; ///< x87 control word
};
#define TICSIM_CONTEXT_SAVE_SYMBOL "ticsim_ctx_save"
#else
struct RegSlot {
    ucontext_t uc;
};
#define TICSIM_CONTEXT_SAVE_SYMBOL "getcontext"
#endif

/**
 * Capture the calling frame's registers into @p slot. Returns twice,
 * like setjmp: once now, and again each time ExecContext::run()
 * re-enters @p slot after prepareResume(). The two returns look the
 * same, so a capture site brackets the call with
 * ExecContext::armResumedCheck() and wasResumed(). It must be called
 * directly (the compiler will not inline a wrapper around a
 * returns-twice function, and a wrapper's frame is gone by the time
 * the slot is resumed), and whatever the resume path reads from the
 * stack must be copied into the image after this call, in the same
 * frame.
 */
__attribute__((returns_twice)) void
save(RegSlot &slot) asm(TICSIM_CONTEXT_SAVE_SYMBOL);

/**
 * Copy @p n bytes of a live fiber stack image (capture or restore).
 * A memcpy, except under ASan: the image spans frames whose redzones
 * are poisoned by design, so there an uninstrumented byte loop copies.
 */
void copyStack(void *dst, const void *src, std::size_t n);

/**
 * A relocatable suspended-fiber image: machine registers plus the live
 * stack bytes, owned on the host heap, so it may be copied, moved and
 * stored inside a board::Snapshot. Captured by captureFiber() from
 * inside the context, resumed by armFiberResume() + run() from outside.
 */
struct FiberImage {
    RegSlot regs{};
    std::uintptr_t low = 0;         ///< lowest stack address in the image
    std::vector<std::uint8_t> bytes; ///< [low, stackTop) at capture time
};

/**
 * One application execution context on a caller-provided stack buffer.
 * Single-threaded simulation: exactly one context runs at a time,
 * entered and exited only through run()/exitWith().
 */
class ExecContext
{
  public:
    using Entry = std::function<void()>;

    /**
     * @param stackBase Base (lowest address) of the stack buffer,
     *                  normally inside the NvRam arena.
     * @param stackSize Buffer size in bytes.
     */
    ExecContext(std::uint8_t *stackBase, std::size_t stackSize);
    ~ExecContext();

    ExecContext(const ExecContext &) = delete;
    ExecContext &operator=(const ExecContext &) = delete;

    /** Arm a fresh boot: the next run() starts @p entry from scratch. */
    void prepare(Entry entry);

    /**
     * Arm a resume-from-checkpoint: the next run() re-enters the
     * save() call that filled @p slot, which must outlive that run()
     * (and whose stack contents the caller must already have restored).
     */
    void prepareResume(RegSlot &slot);

    /**
     * Transfer control to the application context until it exits.
     * Must be armed by prepare() or prepareResume() first.
     */
    ExitReason run();

    /** Clear the resume discriminator before a save(). */
    void armResumedCheck() { resumedFlag_ = false; }

    /**
     * Test-and-clear the resume discriminator after a save(): true
     * when execution re-entered the capture point via
     * prepareResume()/run().
     */
    bool
    wasResumed()
    {
        if (resumedFlag_) {
            resumedFlag_ = false;
            enteredFiber();
            return true;
        }
        return false;
    }

    /**
     * From inside the application context: capture the registers and
     * the live stack region into @p img (heap-owned, relocatable).
     * Mirrors the checkpoint capture discipline: the stack copy is
     * taken *after* the register capture in the same frame, so every
     * spill slot the resume path can read is part of the image.
     * @return true on the capture path; false when execution re-enters
     *         here through armFiberResume()/run().
     */
    bool captureFiber(FiberImage &img, std::uint32_t redzoneBytes = 256);

    /**
     * Arm a resume from @p img: restores the stack bytes and copies
     * the registers into this context (so @p img may be freed before
     * run()); the next run() re-enters the captureFiber() call that
     * produced the image. @p img must describe this context's stack
     * buffer.
     */
    void armFiberResume(const FiberImage &img);

    /**
     * From inside the application context: abandon execution (no
     * unwinding) and return @p reason from the pending run().
     */
    [[noreturn]] void exitWith(ExitReason reason);

    /** Approximate current stack pointer of the caller (app side). */
    static std::uintptr_t probeSp();

    std::uint8_t *stackBase() const { return stackBase_; }
    std::size_t stackSize() const { return stackSize_; }
    /** One past the highest stack address (stack grows down from it). */
    std::uintptr_t stackTop() const;

    /** Whether @p p points into this context's stack buffer. */
    bool onStack(const void *p) const;

    /** True while application code is executing in this context. */
    bool inside() const { return inside_; }

  private:
    static void trampoline();
    /** First thing on the fiber after each switch in: finishes the
     *  ASan switch annotation (a no-op in other builds). */
    void enteredFiber();

    std::uint8_t *stackBase_;
    std::size_t stackSize_;
    Entry entry_;
    RegSlot sched_{};     ///< the scheduler, while run() is switched out
    RegSlot start_{};     ///< fresh-boot entry, built by prepare()
    RegSlot fiberRegs_{}; ///< registers of armFiberResume()'s image
    RegSlot *armed_ = nullptr; ///< what the next run() enters
    bool resumeArmed_ = false; ///< armed_ is a capture, not start_
    /** Set by run() when it resumes a capture. Host state, never on the
     *  simulated stack, so a restored stack image cannot forge it. */
    volatile bool resumedFlag_ = false;
    bool inside_ = false;
    ExitReason reason_ = ExitReason::Completed;
    /** TSan fiber handles (null outside TSan builds): one fiber per
     *  context stack, plus the scheduler fiber to switch back to. */
    void *tsanFiber_ = nullptr;
    void *tsanSchedFiber_ = nullptr;
    /** ASan switch state (unused outside ASan builds): the scheduler's
     *  fake stack while the fiber runs, and the scheduler stack's
     *  bounds, learnt on each switch in, to name on the switch out. */
    void *asanSchedFakeStack_ = nullptr;
    const void *asanSchedBottom_ = nullptr;
    std::size_t asanSchedSize_ = 0;
};

} // namespace ticsim::context

#endif // TICSIM_CONTEXT_EXEC_CONTEXT_HPP
