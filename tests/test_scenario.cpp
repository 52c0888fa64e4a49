/**
 * @file
 * Tests for the scenario catalog (harness/scenario.hpp): every row,
 * built on a fresh continuous board, completes and verifies; the
 * matrix tools select exactly the catalog's BC and Cuckoo rows in
 * order; every name alias resolves to its row, through the sweep's
 * axis parser and the fault campaign's replay too; and an unknown pair
 * fails loudly instead of running some other app.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/checker.hpp"
#include "fault/campaign.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "sweep/grid.hpp"
#include "sweep/sweep.hpp"
#include "verify/probcrossval.hpp"
#include "verify/verifier.hpp"

using namespace ticsim;

namespace {

/** @p name with every non-alphanumeric character replaced by '_'. */
std::string
identifier(std::string name)
{
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

struct Row {
    const harness::Scenario *s;
};

// gtest prints the parameter into every listed case name; its default
// dump of a pointer moves with address space randomization.
void
PrintTo(const Row &r, std::ostream *os)
{
    *os << r.s->app << '/' << r.s->runtime;
}

/** Every catalog-shaped row: the harness catalog, then the verifier's
 *  SensorRelay twins. */
std::vector<Row>
allRows()
{
    std::vector<Row> out;
    for (const harness::Scenario &s : harness::scenarios())
        out.push_back({&s});
    for (const harness::Scenario &s : verify::relayScenarios())
        out.push_back({&s});
    return out;
}

class CatalogRow : public testing::TestWithParam<Row>
{
};

TEST_P(CatalogRow, CompletesAndVerifiesOnAContinuousBoard)
{
    const harness::Scenario &s = *GetParam().s;
    harness::ScenarioParams params;
    params.tics = harness::matrixTics();
    auto board = harness::makeBoard(harness::continuousSpec(), 11);
    harness::ScenarioInstance inst = s.build(*board, params);
    ASSERT_NE(inst.runtime, nullptr);
    ASSERT_NE(inst.app, nullptr);
    ASSERT_TRUE(inst.verify);
    EXPECT_EQ(std::string_view(inst.runtime->name()), s.runtime);

    const board::RunResult res =
        board->run(*inst.runtime, inst.entry, 600 * kNsPerSec);
    EXPECT_TRUE(res.completed);
    EXPECT_FALSE(res.starved);
    EXPECT_EQ(res.reboots, 0u);
    EXPECT_TRUE(inst.verify());
}

INSTANTIATE_TEST_SUITE_P(
    EveryEntry, CatalogRow, testing::ValuesIn(allRows()),
    [](const testing::TestParamInfo<Row> &info) {
        return identifier(std::string(info.param.s->app) + "_" +
                          info.param.s->runtime);
    });

/** The (app, runtime) names of @p pairs, as "app/runtime". */
template <typename Pairs>
std::vector<std::string>
namesOf(const Pairs &pairs)
{
    std::vector<std::string> out;
    for (const auto &p : pairs)
        out.push_back(p.app + "/" + p.runtime);
    return out;
}

std::vector<std::string>
catalogBcAndCuckooRows()
{
    std::vector<std::string> out;
    for (const harness::Scenario &s : harness::scenarios()) {
        const std::string app = s.app;
        if (app == "BC" || app == "Cuckoo")
            out.push_back(app + "/" + s.runtime);
    }
    return out;
}

TEST(CatalogSelection, CampaignRunsTheBcAndCuckooRowsInOrder)
{
    const std::vector<std::string> want = catalogBcAndCuckooRows();
    ASSERT_EQ(want.size(), 10u);
    EXPECT_EQ(namesOf(fault::campaignPairs(fault::CampaignConfig{})),
              want);
}

TEST(CatalogSelection, CheckerRunsTheBcAndCuckooRowsInOrder)
{
    EXPECT_EQ(namesOf(analysis::checkMatrix(analysis::CheckConfig{})),
              catalogBcAndCuckooRows());
}

TEST(CatalogSelection, RowsAreUniqueAndBaselinesUnprotected)
{
    const std::vector<Row> rows = allRows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const harness::Scenario &a = *rows[i].s;
        EXPECT_EQ(a.isProtected, std::string_view(a.runtime) != "plain-C");
        for (std::size_t j = 0; j < i; ++j) {
            const harness::Scenario &b = *rows[j].s;
            EXPECT_FALSE(harness::sameApp(a.app, b.app) &&
                         harness::sameRuntime(a.runtime, b.runtime))
                << a.app << "/" << a.runtime;
        }
    }
}

// ---- name aliases ----------------------------------------------------------

struct AliasCase {
    const char *token;
    const char *name; ///< what the resolver returns
    bool app;         ///< app token (else runtime token)
};

const AliasCase kAliases[] = {
    {"ar", "AR", true},
    {"AR", "AR", true},
    {"bc", "BC", true},
    {"bitcount", "BC", true},
    {"cf", "CF", true},
    {"Cuckoo", "CF", true},
    {" cuckoo ", "CF", true},
    {"plain-C", "plain-C", false},
    {"plainc", "plain-C", false},
    {"plain", "plain-C", false},
    {"tics", "TICS", false},
    {"MementOS-like", "MementOS-like", false},
    {"mementos", "MementOS-like", false},
    {"chinchilla-like", "Chinchilla-like", false},
    {"Chinchilla", "Chinchilla-like", false},
    {"alpaca-like", "Alpaca-like", false},
    {"alpaca", "Alpaca-like", false},
    {"task", "Alpaca-like", false},
};

void
PrintTo(const AliasCase &a, std::ostream *os)
{
    *os << '"' << a.token << '"';
}

class NameAlias : public testing::TestWithParam<AliasCase>
{
};

TEST_P(NameAlias, ResolvesToItsCatalogRow)
{
    const AliasCase &a = GetParam();
    const char *got = a.app ? harness::canonicalApp(a.token)
                            : harness::canonicalRuntime(a.token);
    ASSERT_NE(got, nullptr) << a.token;
    EXPECT_STREQ(got, a.name);

    // The alias finds the same row as the catalog's own spelling.
    const harness::Scenario &viaAlias =
        a.app ? harness::scenario(a.token, "TICS")
              : harness::scenario("BC", a.token);
    const harness::Scenario &viaName =
        a.app ? harness::scenario(a.name, "TICS")
              : harness::scenario("BC", a.name);
    EXPECT_EQ(&viaAlias, &viaName);

    // ticssweep's axis parser accepts it and stores the grid spelling.
    sweep::GridSpec spec;
    std::string err;
    ASSERT_TRUE(sweep::parseAxis(spec, a.app ? "apps" : "runtimes",
                                 a.token, err))
        << err;
    EXPECT_EQ(a.app ? spec.apps.front() : spec.runtimes.front(), a.name);
}

INSTANTIATE_TEST_SUITE_P(
    EveryAlias, NameAlias, testing::ValuesIn(kAliases),
    [](const testing::TestParamInfo<AliasCase> &info) {
        return identifier(std::string(info.param.app ? "app_" : "rt_") +
                          info.param.token) +
               "_" + std::to_string(info.index);
    });

TEST(NameAliases, CuckooHasTwoSpellingsOfOneApp)
{
    EXPECT_TRUE(harness::sameApp("CF", "Cuckoo"));
    EXPECT_TRUE(harness::sameApp("cuckoo", "CF"));
    EXPECT_FALSE(harness::sameApp("CF", "BC"));
    EXPECT_TRUE(harness::sameApp("GHM", "GHM"));
    EXPECT_FALSE(harness::sameApp("ghm", "GHM")); // no alias: exact only
    EXPECT_EQ(harness::canonicalApp("XYZ"), nullptr);
    EXPECT_EQ(harness::canonicalRuntime("bogus"), nullptr);
    // The grid cell "CF" runs the catalog's Cuckoo row.
    EXPECT_STREQ(harness::scenario("CF", "TICS").app, "Cuckoo");
}

TEST(NameAliases, ReplayResolvesCampaignPairsThroughAliases)
{
    fault::CampaignConfig cfg;
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse("cut@boot:1+200000;off:12000000",
                                        plan, &err))
        << err;
    for (const char *pair : {"CF/TICS", "cuckoo/tics", "bc/Plain"}) {
        fault::ReplayDetail detail;
        EXPECT_TRUE(fault::replayPlanDetailed(cfg, pair, plan, detail))
            << pair;
        EXPECT_FALSE(detail.verdict.empty()) << pair;
    }
    // Aliases do not widen the campaign: AR is not one of its pairs.
    fault::ReplayDetail detail;
    EXPECT_FALSE(fault::replayPlanDetailed(cfg, "AR/TICS", plan, detail));
    EXPECT_FALSE(fault::replayPlanDetailed(cfg, "CF", plan, detail));
}

// ---- unknown pairs fail loudly ---------------------------------------------

TEST(CatalogDeathTest, SweepCellWithUnknownAppIsFatal)
{
    sweep::Cell cell;
    cell.app = "XYZ";
    cell.runtime = "TICS";
    cell.supply.kind = sweep::SupplyKind::Continuous;
    EXPECT_EXIT(sweep::runCell(cell, sweep::SweepConfig{}),
                testing::ExitedWithCode(1), "XYZ/TICS");
}

TEST(CatalogDeathTest, SweepPairRecoveryWithUnknownPairIsFatal)
{
    EXPECT_EXIT(verify::recoverSweepPair(verify::ProbCrossValConfig{},
                                         "XYZ", "bogus"),
                testing::ExitedWithCode(1), "XYZ/bogus");
}

} // namespace
