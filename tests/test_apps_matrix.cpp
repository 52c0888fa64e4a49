/**
 * @file
 * The benchmark x runtime correctness matrix: every application
 * variant must compute the exact golden result under continuous power
 * AND under heavy intermittency for every runtime that can express it.
 * This is the paper's "each application was verified for correctness
 * at the end of each execution" requirement, mechanized.
 */

#include <gtest/gtest.h>

#include "apps/ar/ar_chinchilla.hpp"
#include "apps/ar/ar_legacy.hpp"
#include "apps/ar/ar_task.hpp"
#include "apps/bc/bc_chinchilla.hpp"
#include "apps/bc/bc_legacy.hpp"
#include "apps/bc/bc_task.hpp"
#include "apps/cuckoo/cuckoo_chinchilla.hpp"
#include "apps/cuckoo/cuckoo_legacy.hpp"
#include "apps/cuckoo/cuckoo_task.hpp"
#include "board/board.hpp"
#include "runtimes/ink.hpp"
#include "runtimes/mayfly.hpp"
#include "runtimes/mementos.hpp"
#include "runtimes/plainc.hpp"
#include "tics/runtime.hpp"

using namespace ticsim;

namespace {

enum class Power { Continuous, Intermittent };

std::unique_ptr<board::Board>
makeBoard(Power p, std::uint64_t seed = 11)
{
    board::BoardConfig cfg;
    cfg.seed = seed;
    std::unique_ptr<energy::Supply> supply;
    if (p == Power::Continuous) {
        supply = std::make_unique<energy::ContinuousSupply>();
    } else {
        supply =
            std::make_unique<energy::PatternSupply>(30 * kNsPerMs, 0.6);
    }
    return std::make_unique<board::Board>(
        cfg, std::move(supply),
        std::make_unique<timekeeper::PerfectTimekeeper>());
}

tics::TicsConfig
ticsCfg(std::uint32_t segBytes)
{
    tics::TicsConfig c;
    c.segmentBytes = segBytes;
    c.policy = tics::PolicyKind::Timer;
    c.timerPeriod = 5 * kNsPerMs;
    return c;
}

constexpr TimeNs kBudget = 600 * kNsPerSec;

struct MatrixCase {
    const char *name;
    Power power;
    std::uint32_t segBytes; ///< only used by TICS cases
};

// gtest prints the parameter into every listed case name. Its default
// byte dump would include the `name` pointer, which moves with address
// space randomization, so print the case name instead.
void
PrintTo(const MatrixCase &mc, std::ostream *os)
{
    *os << mc.name;
}

class AppMatrix : public ::testing::TestWithParam<MatrixCase>
{
};

} // namespace

TEST_P(AppMatrix, BcLegacyUnderTics)
{
    const auto &mc = GetParam();
    auto b = makeBoard(mc.power);
    tics::TicsRuntime rt(ticsCfg(mc.segBytes));
    apps::BcLegacyApp app(*b, rt);
    const auto res = b->run(rt, [&] { app.main(); }, kBudget);
    ASSERT_TRUE(res.completed);
    if (mc.power == Power::Intermittent)
        EXPECT_GT(res.reboots, 0u);
    EXPECT_TRUE(app.verify())
        << "total=" << app.totalBits()
        << " expected=" << apps::BcLegacyApp::expectedTotal(app.params())
        << " mismatches=" << app.mismatches();
}

TEST_P(AppMatrix, ArLegacyUnderTics)
{
    const auto &mc = GetParam();
    auto b = makeBoard(mc.power);
    tics::TicsRuntime rt(ticsCfg(mc.segBytes));
    apps::ArLegacyApp app(*b, rt);
    const auto res = b->run(rt, [&] { app.main(); }, kBudget);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(app.verify()) << "stationary=" << app.stationary()
                              << " moving=" << app.moving();
}

TEST_P(AppMatrix, CuckooLegacyUnderTics)
{
    const auto &mc = GetParam();
    auto b = makeBoard(mc.power);
    tics::TicsRuntime rt(ticsCfg(mc.segBytes));
    apps::CuckooLegacyApp app(*b, rt);
    const auto res = b->run(rt, [&] { app.main(); }, kBudget);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(app.verify()) << "inserted=" << app.inserted()
                              << " recovered=" << app.recovered();
}

INSTANTIATE_TEST_SUITE_P(
    PowerAndSegments, AppMatrix,
    ::testing::Values(MatrixCase{"cont_s256", Power::Continuous, 256},
                      MatrixCase{"int_s256", Power::Intermittent, 256},
                      MatrixCase{"int_s64", Power::Intermittent, 64},
                      MatrixCase{"int_s50", Power::Intermittent, 50}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(AppMatrixMementos, AllLegacyAppsComplete)
{
    for (const Power p : {Power::Continuous, Power::Intermittent}) {
        {
            auto b = makeBoard(p);
            runtimes::MementosRuntime rt;
            apps::BcLegacyApp app(*b, rt);
            const auto res = b->run(rt, [&] { app.main(); }, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            auto b = makeBoard(p);
            runtimes::MementosRuntime rt;
            apps::ArLegacyApp app(*b, rt);
            const auto res = b->run(rt, [&] { app.main(); }, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            auto b = makeBoard(p);
            runtimes::MementosRuntime rt;
            apps::CuckooLegacyApp app(*b, rt);
            const auto res = b->run(rt, [&] { app.main(); }, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
    }
}

TEST(AppMatrixChinchilla, AllChinchillaVariantsComplete)
{
    for (const Power p : {Power::Continuous, Power::Intermittent}) {
        {
            auto b = makeBoard(p);
            runtimes::ChinchillaRuntime rt;
            EXPECT_FALSE(rt.supportsRecursion());
            apps::BcChinchillaApp app(*b, rt);
            const auto res = b->run(rt, [&] { app.main(); }, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            auto b = makeBoard(p);
            runtimes::ChinchillaRuntime rt;
            apps::ArChinchillaApp app(*b, rt);
            const auto res = b->run(rt, [&] { app.main(); }, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            auto b = makeBoard(p);
            runtimes::ChinchillaRuntime rt;
            apps::CuckooChinchillaApp app(*b, rt);
            const auto res = b->run(rt, [&] { app.main(); }, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
    }
}

TEST(AppMatrixTask, MayflyLoopFreePortsComplete)
{
    for (const Power p : {Power::Continuous, Power::Intermittent}) {
        {
            auto b = makeBoard(p);
            taskrt::MayflyRuntime rt;
            apps::BcTaskApp app(*b, rt, {}, /*graphLoop=*/false);
            ASSERT_TRUE(rt.validateAcyclic());
            const auto res = b->run(rt, {}, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            auto b = makeBoard(p);
            taskrt::MayflyRuntime rt;
            apps::ArTaskApp app(*b, rt, {}, /*graphLoop=*/false);
            ASSERT_TRUE(rt.validateAcyclic());
            const auto res = b->run(rt, {}, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            // The looping ports are NOT valid MayFly graphs.
            auto b = makeBoard(p);
            taskrt::MayflyRuntime rt;
            apps::BcTaskApp app(*b, rt, {}, /*graphLoop=*/true);
            EXPECT_FALSE(rt.validateAcyclic());
        }
    }
}

TEST(AppMatrixTask, AlpacaAndInkVariantsComplete)
{
    for (const Power p : {Power::Continuous, Power::Intermittent}) {
        {
            auto b = makeBoard(p);
            taskrt::TaskRuntime rt;
            apps::BcTaskApp app(*b, rt);
            const auto res = b->run(rt, {}, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            auto b = makeBoard(p);
            taskrt::InkRuntime rt;
            apps::ArTaskApp app(*b, rt);
            const auto res = b->run(rt, {}, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
        {
            auto b = makeBoard(p);
            taskrt::TaskRuntime rt;
            apps::CuckooTaskApp app(*b, rt);
            const auto res = b->run(rt, {}, kBudget);
            ASSERT_TRUE(res.completed);
            EXPECT_TRUE(app.verify());
        }
    }
}
