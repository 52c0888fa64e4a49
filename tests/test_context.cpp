/**
 * @file
 * Unit tests for the execution-context substrate: fresh runs,
 * abandonment, register capture + stack-image restore cycles, and
 * address classification. These exercise the context-switch mechanics
 * the whole intermittent simulation stands on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstring>
#include <memory>
#include <vector>

#include "context/exec_context.hpp"

using namespace ticsim;
using namespace ticsim::context;

namespace {

constexpr std::size_t kStack = 64 * 1024;

struct Fixture {
    std::vector<std::uint8_t> stack;
    ExecContext ctx;

    Fixture() : stack(kStack, 0), ctx(stack.data(), kStack) {}
};

/**
 * Rounding mode of double arithmetic (the SSE unit on x86-64, where
 * std::fegetround() reads the x87 unit), told apart by 1/3 and -1/3:
 * they round to the same magnitude only to nearest (or toward zero,
 * which these tests never set).
 */
__attribute__((noinline)) int
arithmeticRounding()
{
    volatile double one = 1.0;
    volatile double minusOne = -1.0;
    volatile double three = 3.0;
    const double pos = one / three;
    const double neg = minusOne / three;
    if (pos > -neg)
        return FE_UPWARD;
    if (pos < -neg)
        return FE_DOWNWARD;
    return FE_TONEAREST;
}

/** Written by a non-inlined callee and read back as volatile, so the
 *  compiler cannot fold the alignment it assumes for the local. */
volatile std::uintptr_t gAlignedLocal = 1;

__attribute__((noinline)) void
recordAlignedLocal()
{
    alignas(16) volatile unsigned char buf[16];
    buf[0] = 0; // a byte store: no aligned vector store to fault on
    gAlignedLocal = reinterpret_cast<std::uintptr_t>(&buf[0]);
}

} // namespace

TEST(ExecContext, RunsToCompletion)
{
    Fixture f;
    int ran = 0;
    f.ctx.prepare([&] { ran = 1; });
    EXPECT_EQ(f.ctx.run(), ExitReason::Completed);
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(f.ctx.inside());
}

TEST(ExecContext, ExitWithAbandons)
{
    Fixture f;
    int progress = 0;
    f.ctx.prepare([&] {
        progress = 1;
        f.ctx.exitWith(ExitReason::PowerFail);
        progress = 2; // never reached
    });
    EXPECT_EQ(f.ctx.run(), ExitReason::PowerFail);
    EXPECT_EQ(progress, 1);
}

TEST(ExecContext, FreshPrepareRestartsFromEntry)
{
    Fixture f;
    int runs = 0;
    auto entry = [&] {
        ++runs;
        f.ctx.exitWith(ExitReason::PowerFail);
    };
    f.ctx.prepare(entry);
    f.ctx.run();
    f.ctx.prepare(entry);
    f.ctx.run();
    EXPECT_EQ(runs, 2);
}

TEST(ExecContext, OnStackClassifiesAddresses)
{
    Fixture f;
    bool insideOnStack = false;
    bool heapOnStack = true;
    int hostLocal = 0;
    f.ctx.prepare([&] {
        int simLocal = 0;
        insideOnStack = f.ctx.onStack(&simLocal);
        heapOnStack = f.ctx.onStack(&hostLocal);
    });
    f.ctx.run();
    EXPECT_TRUE(insideOnStack);
    EXPECT_FALSE(heapOnStack);
    EXPECT_FALSE(f.ctx.onStack(&hostLocal));
}

TEST(ExecContext, StackBoundsAreConsistent)
{
    Fixture f;
    EXPECT_EQ(f.ctx.stackSize(), kStack);
    EXPECT_EQ(f.ctx.stackTop(),
              reinterpret_cast<std::uintptr_t>(f.ctx.stackBase()) +
                  kStack);
}

TEST(ExecContext, CaptureAndResumeMidFunction)
{
    // The full intermittent cycle, by hand: run, capture registers +
    // stack image at a checkpoint, "fail", restore bytes, resume, and
    // observe re-execution of exactly the post-checkpoint suffix.
    Fixture f;
    RegSlot slot;
    std::vector<std::uint8_t> image(kStack);
    std::uintptr_t imgLow = 0;
    int preCkpt = 0;
    int postCkpt = 0;
    int result = 0;

    f.ctx.prepare([&] {
        int local = 5;
        ++preCkpt;
        f.ctx.armResumedCheck();
        save(slot);
        if (!f.ctx.wasResumed()) {
            // Capture path: copy the live stack including this frame.
            const auto low = ExecContext::probeSp() - 512;
            imgLow = low;
            std::memcpy(image.data(), reinterpret_cast<void *>(low),
                        f.ctx.stackTop() - low);
        }
        ++postCkpt;
        local += 10;
        if (postCkpt == 1) {
            // First pass: die after the checkpoint.
            f.ctx.exitWith(ExitReason::PowerFail);
        }
        result = local;
    });

    EXPECT_EQ(f.ctx.run(), ExitReason::PowerFail);
    EXPECT_EQ(preCkpt, 1);
    EXPECT_EQ(postCkpt, 1);

    // Reboot: restore the image, re-enter at the capture point.
    std::memcpy(reinterpret_cast<void *>(imgLow), image.data(),
                f.ctx.stackTop() - imgLow);
    f.ctx.prepareResume(slot);
    EXPECT_EQ(f.ctx.run(), ExitReason::Completed);
    EXPECT_EQ(preCkpt, 1);  // the prefix did NOT re-execute
    EXPECT_EQ(postCkpt, 2); // the suffix did
    EXPECT_EQ(result, 15);  // local was restored to its value (5) + 10
}

TEST(ExecContext, RepeatedResumeFromOneCheckpoint)
{
    Fixture f;
    RegSlot slot;
    std::vector<std::uint8_t> image(kStack);
    std::uintptr_t imgLow = 0;
    int attempts = 0;

    f.ctx.prepare([&] {
        f.ctx.armResumedCheck();
        save(slot);
        f.ctx.wasResumed(); // clear either way
        if (imgLow == 0) {
            const auto low = ExecContext::probeSp() - 512;
            imgLow = low;
            std::memcpy(image.data(), reinterpret_cast<void *>(low),
                        f.ctx.stackTop() - low);
        }
        ++attempts;
        if (attempts < 4)
            f.ctx.exitWith(ExitReason::PowerFail);
    });

    EXPECT_EQ(f.ctx.run(), ExitReason::PowerFail);
    for (int i = 0; i < 2; ++i) {
        std::memcpy(reinterpret_cast<void *>(imgLow), image.data(),
                    f.ctx.stackTop() - imgLow);
        f.ctx.prepareResume(slot);
        EXPECT_EQ(f.ctx.run(), ExitReason::PowerFail);
    }
    std::memcpy(reinterpret_cast<void *>(imgLow), image.data(),
                f.ctx.stackTop() - imgLow);
    f.ctx.prepareResume(slot);
    EXPECT_EQ(f.ctx.run(), ExitReason::Completed);
    EXPECT_EQ(attempts, 4);
}

TEST(ExecContext, ProbeSpPointsIntoCurrentStack)
{
    Fixture f;
    std::uintptr_t probed = 0;
    f.ctx.prepare([&] { probed = ExecContext::probeSp(); });
    f.ctx.run();
    EXPECT_GE(probed, reinterpret_cast<std::uintptr_t>(f.ctx.stackBase()));
    EXPECT_LT(probed, f.ctx.stackTop());
}

TEST(ExecContext, FreshEntrySeesAnAlignedStack)
{
    // The SysV ABI promises every callee a 16-byte aligned stack, and
    // compilers place alignas(16) locals by that promise without
    // realigning, so a start slot off by 8 shows up here.
    Fixture f;
    f.ctx.prepare([] { recordAlignedLocal(); });
    EXPECT_EQ(f.ctx.run(), ExitReason::Completed);
    EXPECT_EQ(gAlignedLocal % 16, 0u);
}

TEST(ExecContext, ResumeRestoresTheCapturedRoundingMode)
{
    // A slot carries the floating-point control state (MXCSR and the
    // x87 control word on x86-64): a resume runs in the rounding mode
    // of its capture, whatever the fiber set before it died, and the
    // scheduler keeps its own mode across every switch.
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    ASSERT_EQ(arithmeticRounding(), FE_TONEAREST);
    Fixture f;
    RegSlot slot;
    std::vector<std::uint8_t> image(kStack);
    std::uintptr_t imgLow = 0;
    int resumedMode = -1;
    int resumedArithmetic = -1;

    f.ctx.prepare([&] {
        std::fesetround(FE_UPWARD);
        f.ctx.armResumedCheck();
        save(slot);
        if (!f.ctx.wasResumed()) {
            const auto low = ExecContext::probeSp() - 512;
            imgLow = low;
            copyStack(image.data(), reinterpret_cast<void *>(low),
                      f.ctx.stackTop() - low);
            std::fesetround(FE_DOWNWARD);
            f.ctx.exitWith(ExitReason::PowerFail);
        }
        resumedMode = std::fegetround();
        resumedArithmetic = arithmeticRounding();
    });

    EXPECT_EQ(f.ctx.run(), ExitReason::PowerFail);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(arithmeticRounding(), FE_TONEAREST);

    copyStack(reinterpret_cast<void *>(imgLow), image.data(),
              f.ctx.stackTop() - imgLow);
    f.ctx.prepareResume(slot);
    EXPECT_EQ(f.ctx.run(), ExitReason::Completed);
    EXPECT_EQ(resumedMode, FE_UPWARD);
    EXPECT_EQ(resumedArithmetic, FE_UPWARD);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(arithmeticRounding(), FE_TONEAREST);
    std::fesetround(FE_TONEAREST);
}

TEST(ExecContext, CopiedFiberImageResumesAfterTheOriginalIsOverwritten)
{
    // A FiberImage holds no pointer into itself: a copy on another
    // heap object resumes like the original, after the original and
    // the live stack are overwritten and the copy itself is freed.
    Fixture f;
    auto original = std::make_unique<FiberImage>();
    int resumes = 0;
    int result = 0;

    f.ctx.prepare([&] {
        int local = 7;
        const bool captured = f.ctx.captureFiber(*original);
        local += 5;
        if (captured)
            f.ctx.exitWith(ExitReason::PowerFail);
        ++resumes;
        result = local;
    });
    EXPECT_EQ(f.ctx.run(), ExitReason::PowerFail);

    auto copy = std::make_unique<FiberImage>(*original);
    std::memset(&original->regs, 0xA5, sizeof(original->regs));
    std::fill(original->bytes.begin(), original->bytes.end(), 0xA5);
    original.reset();
    const std::vector<std::uint8_t> junk(kStack, 0xA5);
    copyStack(f.stack.data(), junk.data(), kStack);

    f.ctx.armFiberResume(*copy);
    copy.reset();
    EXPECT_EQ(f.ctx.run(), ExitReason::Completed);
    EXPECT_EQ(resumes, 1);
    EXPECT_EQ(result, 12);
}
