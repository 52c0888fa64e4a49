#include "exec_context.hpp"

#include <algorithm>
#include <cstring>

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

/*
 * The three switch primitives: save() (declared in the header, since
 * capture sites call it directly), jump() and swap(). None of them
 * saves or restores the signal mask.
 */
namespace detail {
/** Restore @p to's registers and continue where it was saved. */
[[noreturn]] void jump(const RegSlot &to) asm("ticsim_ctx_jump");
/** save() into @p from, then jump() to @p to. */
void swap(RegSlot &from, const RegSlot &to) asm("ticsim_ctx_swap");
} // namespace detail

#if defined(TICSIM_CONTEXT_ASM)

/*
 * x86-64 SysV. A slot holds what a callee must preserve: rsp, rip,
 * rbx, rbp, r12-r15, MXCSR and the x87 control word. save() records
 * its caller's state as of its return (rip = the return address, rsp
 * just above it); jump() loads a slot and enters it with push + ret,
 * so no indirect jump needs an endbr64 landing pad under
 * -fcf-protection. The ret bypasses a shadow stack, so a process
 * running with user-space shadow stacks enabled is refused at
 * ExecContext construction.
 */
static_assert(offsetof(RegSlot, rsp) == 0 && offsetof(RegSlot, rip) == 8 &&
                  offsetof(RegSlot, rbx) == 16 &&
                  offsetof(RegSlot, rbp) == 24 &&
                  offsetof(RegSlot, r12) == 32 &&
                  offsetof(RegSlot, r15) == 56 &&
                  offsetof(RegSlot, mxcsr) == 64 &&
                  offsetof(RegSlot, x87cw) == 68 && sizeof(RegSlot) == 72,
              "the switch below addresses RegSlot by these offsets");

asm(R"(
    .pushsection .text
    .p2align 4
    .globl  ticsim_ctx_save
    .type   ticsim_ctx_save, @function
ticsim_ctx_save:
    .cfi_startproc
    endbr64
    movq    (%rsp), %rax
    leaq    8(%rsp), %rcx
    movq    %rcx, 0(%rdi)
    movq    %rax, 8(%rdi)
    movq    %rbx, 16(%rdi)
    movq    %rbp, 24(%rdi)
    movq    %r12, 32(%rdi)
    movq    %r13, 40(%rdi)
    movq    %r14, 48(%rdi)
    movq    %r15, 56(%rdi)
    stmxcsr 64(%rdi)
    fnstcw  68(%rdi)
    ret
    .cfi_endproc
    .size   ticsim_ctx_save, .-ticsim_ctx_save

    .p2align 4
    .globl  ticsim_ctx_swap
    .type   ticsim_ctx_swap, @function
ticsim_ctx_swap:
    .cfi_startproc
    endbr64
    movq    (%rsp), %rax
    leaq    8(%rsp), %rcx
    movq    %rcx, 0(%rdi)
    movq    %rax, 8(%rdi)
    movq    %rbx, 16(%rdi)
    movq    %rbp, 24(%rdi)
    movq    %r12, 32(%rdi)
    movq    %r13, 40(%rdi)
    movq    %r14, 48(%rdi)
    movq    %r15, 56(%rdi)
    stmxcsr 64(%rdi)
    fnstcw  68(%rdi)
    movq    %rsi, %rdi
    jmp     ticsim_ctx_jump
    .cfi_endproc
    .size   ticsim_ctx_swap, .-ticsim_ctx_swap

    .p2align 4
    .globl  ticsim_ctx_jump
    .type   ticsim_ctx_jump, @function
ticsim_ctx_jump:
    .cfi_startproc
    endbr64
    movq    16(%rdi), %rbx
    movq    24(%rdi), %rbp
    movq    32(%rdi), %r12
    movq    40(%rdi), %r13
    movq    48(%rdi), %r14
    movq    56(%rdi), %r15
    ldmxcsr 64(%rdi)
    fldcw   68(%rdi)
    movq    0(%rdi), %rsp
    pushq   8(%rdi)
    ret
    .cfi_endproc
    .size   ticsim_ctx_jump, .-ticsim_ctx_jump
    .popsection
)");

namespace {

/**
 * Build a slot that enters @p entry on a fresh stack, as if called
 * from one frame above the (16-byte aligned) top: rsp is 8 below it,
 * rbp is 0 so frame-pointer walks end there, and the floating-point
 * control state is the caller's.
 */
void
makeStart(RegSlot &start, std::uint8_t *base, std::size_t size,
          void (*entry)())
{
    start = RegSlot{};
    const auto top = reinterpret_cast<std::uintptr_t>(base) + size;
    start.rsp = (top & ~std::uintptr_t{15}) - 8;
    start.rip = reinterpret_cast<std::uintptr_t>(entry);
    asm volatile("stmxcsr %0\n\tfnstcw %1"
                 : "=m"(start.mxcsr), "=m"(start.x87cw));
}

/** Refuse user-space shadow stacks: jump()'s ret bypasses them.
 *  rdsspq leaves its operand untouched (0) unless one is active. */
void
checkSwitchSupported()
{
    std::uint64_t ssp = 0;
    asm volatile("rdsspq %0" : "+r"(ssp));
    if (ssp != 0)
        fatal("exec context: the x86-64 context switch does not "
              "support user-space shadow stacks");
}

} // namespace

#else // !TICSIM_CONTEXT_ASM: glibc ucontext behind the same primitives

void
detail::jump(const RegSlot &to)
{
    setcontext(&to.uc);
    panic("setcontext returned");
}

void
detail::swap(RegSlot &from, const RegSlot &to)
{
    if (swapcontext(&from.uc, &to.uc) != 0)
        panic("swapcontext failed");
}

namespace {

/* The entry never returns (it leaves through jump()), so no uc_link. */
void
makeStart(RegSlot &start, std::uint8_t *base, std::size_t size,
          void (*entry)())
{
    if (getcontext(&start.uc) != 0)
        panic("getcontext failed");
    start.uc.uc_stack.ss_sp = base;
    start.uc.uc_stack.ss_size = size;
    start.uc.uc_link = nullptr;
    makecontext(&start.uc, entry, 0);
}

void
checkSwitchSupported()
{
}

} // namespace

#endif // TICSIM_CONTEXT_ASM

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
 * telling it about context switches it sees one OS thread's accesses
 * jump between the scheduler stack and the simulated FRAM stack and
 * reports them as races against the sweep pool's other workers. Each
 * ExecContext owns one fiber (its stack buffer survives simulated
 * reboots, so the fiber does too), and every swap()/jump() is
 * bracketed by a switch annotation.
 *
 * A brown-out abandonment leaves the fiber via jump() without
 * unwinding, and a checkpoint resume re-enters a frame captured by an
 * earlier save(). Neither jump runs the function exits in between,
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

/** The context whose trampoline should run next. Thread-local so
 *  concurrent sweep Boards (one context per thread) never see
 *  each other's contexts; a context must be entered and exited on the
 *  same thread, which Board::run guarantees by construction. */
thread_local ExecContext *currentCtx = nullptr;

} // namespace

/* Under ASan the volatile byte loop is uninstrumented, and the
 * compiler cannot lower it back into an (intercepted) memcpy. */
#if defined(TICSIM_ASAN_ACTIVE)
__attribute__((no_sanitize_address)) void
copyStack(void *dst, const void *src, std::size_t n)
{
    auto *d = static_cast<volatile unsigned char *>(dst);
    auto *s = static_cast<const volatile unsigned char *>(src);
    for (std::size_t i = 0; i < n; ++i)
        d[i] = s[i];
}
#else
void
copyStack(void *dst, const void *src, std::size_t n)
{
    std::memcpy(dst, src, n);
}
#endif

ExecContext::ExecContext(std::uint8_t *stackBase, std::size_t stackSize)
    : stackBase_(stackBase), stackSize_(stackSize)
{
    if (!stackBase || stackSize < 8 * 1024)
        fatal("exec context: stack buffer must be at least 8 KiB");
    checkSwitchSupported();
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
    // scheduler explicitly. A jump instead of a plain return keeps the
    // TSan fiber switch coherent: after the annotation below, a normal
    // return would run this function's instrumented exit and pop a
    // frame from the *scheduler's* shadow stack.
    self->reason_ = ExitReason::Completed;
    self->inside_ = false;
    tsanFiberSwitch(self->tsanSchedFiber_);
    detail::jump(self->sched_);
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
    makeStart(start_, stackBase_, stackSize_, &ExecContext::trampoline);
    armed_ = &start_;
    resumeArmed_ = false;
}

void
ExecContext::prepareResume(RegSlot &slot)
{
    TICSIM_ASSERT(!inside_, "prepareResume() from inside the context");
    armed_ = &slot;
    resumeArmed_ = true;
}

ExitReason
ExecContext::run()
{
    TICSIM_ASSERT(armed_ != nullptr, "run() without arming");
    const RegSlot &target = *armed_;
    armed_ = nullptr;
    resumedFlag_ = resumeArmed_;
    reason_ = ExitReason::Completed;
    inside_ = true;
    currentCtx = this;
    unpoisonFiberStack(stackBase_, stackSize_);
    tsanSchedFiber_ = tsanFiberCurrent();
    tsanFiberSwitch(tsanFiber_);
    detail::swap(sched_, target);
    inside_ = false;
    currentCtx = nullptr;
    return reason_;
}

bool
ExecContext::captureFiber(FiberImage &img, std::uint32_t redzoneBytes)
{
    TICSIM_ASSERT(inside_, "captureFiber() outside the context");
    armResumedCheck();
    save(img.regs);
    // Two returns: the resume path must not touch @p img (the
    // snapshot that carried it may have been freed or moved).
    if (wasResumed())
        return false;
    const auto base = reinterpret_cast<std::uintptr_t>(stackBase_);
    std::uintptr_t low = probeSp();
    low = low > redzoneBytes ? low - redzoneBytes : 0;
    low = std::max(low, base);
    img.low = low;
    img.bytes.resize(stackTop() - low);
    copyStack(img.bytes.data(), reinterpret_cast<void *>(low),
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
    copyStack(reinterpret_cast<void *>(img.low), img.bytes.data(),
              img.bytes.size());
    fiberRegs_ = img.regs;
    prepareResume(fiberRegs_);
}

void
ExecContext::exitWith(ExitReason reason)
{
    TICSIM_ASSERT(inside_, "exitWith() outside the context");
    reason_ = reason;
    inside_ = false;
    // Abandon the context without unwinding, like a brown-out.
    tsanFiberSwitch(tsanSchedFiber_);
    detail::jump(sched_);
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
