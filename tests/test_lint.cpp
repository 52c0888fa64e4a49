/**
 * @file
 * Source-level lint: lexer, parser, the four dataflow rules on golden
 * snippets, the v6 run-report round trip, and the guard-deletion pin
 * on the real SensorRelay demo source.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/report.hpp"
#include "lint/analyzer.hpp"
#include "lint/crossval.hpp"
#include "lint/lexer.hpp"
#include "lint/program.hpp"

using namespace ticsim;
using namespace ticsim::lint;

namespace {

std::size_t
countRule(const std::vector<StaticFinding> &fs, const char *rule)
{
    return static_cast<std::size_t>(
        std::count_if(fs.begin(), fs.end(), [&](const StaticFinding &f) {
            return f.rule == rule;
        }));
}

std::size_t
countRule(const FileReport &r, const char *rule)
{
    return countRule(r.findings, rule);
}

/** A class wrapper with one nv counter and the given main() body. */
std::string
appWith(const std::string &mainBody)
{
    return "struct App {\n"
           "  App(board::Board &b, tics::TicsRuntime &runtime)\n"
           "      : rt(runtime), count(b.nvram(), \"t.count\"),\n"
           "        other(b.nvram(), \"t.other\") {}\n"
           "  void main() {\n" +
           mainBody +
           "  }\n"
           "  tics::TicsRuntime &rt;\n"
           "};\n";
}

} // namespace

// ---- lexer -----------------------------------------------------------

TEST(LintLexer, RawStringCollapsesToOneToken)
{
    const auto toks = tokenize("x = R\"(@nv int a; { } \"quoted\")\";\n"
                               "y\n");
    ASSERT_GE(toks.size(), 5u);
    EXPECT_EQ(toks[0].text, "x");
    EXPECT_EQ(toks[1].text, "=");
    EXPECT_EQ(toks[2].kind, TokKind::String);
    EXPECT_EQ(toks[3].text, ";");
    // The braces inside the raw string must not leak as Punct tokens.
    EXPECT_EQ(toks[4].text, "y");
    EXPECT_EQ(toks[4].line, 2);
}

TEST(LintLexer, LongestMatchPunctuationAndComments)
{
    const auto toks = tokenize("a <<= b; // trailing\n"
                               "/* block\n   spanning */ c -> d :: e;\n"
                               "#define IGNORED 1\n"
                               "f += 2;\n");
    std::vector<std::string> texts;
    for (const auto &t : toks)
        if (t.kind != TokKind::End)
            texts.push_back(t.text);
    const std::vector<std::string> want = {"a", "<<=", "b", ";",  "c",
                                           "->", "d",  "::", "e", ";",
                                           "f",  "+=", "2",  ";"};
    EXPECT_EQ(texts, want);
}

TEST(LintLexer, LineNumbersSurviveContinuationsAndStrings)
{
    const auto toks = tokenize("#define A \\\n    1\n\"two\\nlines\"\nz\n");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::String);
    EXPECT_EQ(toks[0].line, 3);
    EXPECT_EQ(toks[1].text, "z");
    EXPECT_EQ(toks[1].line, 4);
}

// ---- parser ----------------------------------------------------------

TEST(LintParser, BindingClassification)
{
    const std::string src =
        "struct App {\n"
        "  App(board::Board &b, tics::TicsRuntime &rt)\n"
        "      : plain(b.nvram(), \"a.plain\"),\n"
        "        arr(b.nvram(), \"a.arr\"),\n"
        "        timed(rt, b.nvram(), \"a.timed\", lifetime),\n"
        "        chan(rt, b.nvram(), \"a.chan\") {}\n"
        "  void main() {}\n"
        "};\n";
    const auto prog = parseSource("t.cpp", src);
    const auto *plain = prog.findBinding("App", "plain");
    const auto *arr = prog.findBinding("App", "arr");
    const auto *timed = prog.findBinding("App", "timed");
    const auto *chan = prog.findBinding("App", "chan");
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(arr, nullptr);
    ASSERT_NE(timed, nullptr);
    ASSERT_NE(chan, nullptr);
    EXPECT_EQ(plain->kind, BindKind::NvRegion);
    EXPECT_EQ(plain->region, "a.plain");
    EXPECT_EQ(arr->kind, BindKind::NvRegion);
    EXPECT_EQ(timed->kind, BindKind::Timed);
    EXPECT_EQ(timed->region, "a.timed");
    EXPECT_EQ(chan->kind, BindKind::Channel);
}

TEST(LintParser, FindsFunctionsAndQualifiedNames)
{
    const std::string src = appWith("    count = count.get() + 1;\n");
    const auto prog = parseSource("t.cpp", src);
    const auto *m = prog.findFunction("App", "main");
    const auto *ctor = prog.findFunction("App", "App");
    ASSERT_NE(m, nullptr);
    ASSERT_NE(ctor, nullptr);
    EXPECT_EQ(m->qualified(), "App::main");
    EXPECT_TRUE(ctor->isCtor);
}

// ---- golden negative snippet per rule, plus a clean one --------------

TEST(LintRules, WarSpanWithoutBoundary)
{
    const auto report = analyzeText(
        "war.cpp",
        appWith("    int v = count.get();\n"
                "    other = 1;\n"
                "    count = v + 1;\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleWar), 1u);
    ASSERT_FALSE(report.findings.empty());
    EXPECT_EQ(report.findings.front().subject, "t.count");
}

TEST(LintRules, BoundaryClosesWarSpan)
{
    const auto report = analyzeText(
        "war_ok.cpp",
        appWith("    int v = count.get();\n"
                "    rt.triggerPoint();\n"
                "    count = v + 1;\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleWar), 0u);
}

TEST(LintRules, SameStatementWarNotMaskedByBoundary)
{
    // `x = x + 1` keeps the read value in flight: even a boundary
    // textually between read and write (impossible here, but the
    // split models it) cannot protect it. The canonical swap listing.
    const auto report = analyzeText(
        "war_same.cpp",
        appWith("    rt.triggerPoint();\n"
                "    count = count.get() + 1;\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleWar), 1u);
}

TEST(LintRules, VersionedRuntimeSuppressesWar)
{
    const auto report = analyzeText(
        "war_versioned.cpp",
        appWith("    int v = count.get();\n"
                "    count = v + 1;\n"),
        RuntimeTraits{/*boundaries=*/true, /*versioned=*/true});
    EXPECT_EQ(countRule(report, kRuleWar), 0u);
}

TEST(LintRules, UnguardedTimedUse)
{
    const std::string src =
        "struct App {\n"
        "  App(board::Board &b, tics::TicsRuntime &rt)\n"
        "      : reading(rt, b.nvram(), \"t.reading\", life) {}\n"
        "  void main() {\n"
        "    int v = reading.read(0);\n"
        "  }\n"
        "};\n";
    const auto report = analyzeText("timely.cpp", src, fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleTimeliness), 1u);
    ASSERT_FALSE(report.findings.empty());
    EXPECT_EQ(report.findings.front().subject, "t.reading");
}

TEST(LintRules, FreshGuardCoversTimedUse)
{
    const std::string src =
        "struct App {\n"
        "  App(board::Board &b, tics::TicsRuntime &rt)\n"
        "      : reading(rt, b.nvram(), \"t.reading\", life) {}\n"
        "  void main() {\n"
        "    if (reading.fresh(0)) {\n"
        "      int v = reading.read(0);\n"
        "    }\n"
        "  }\n"
        "};\n";
    const auto report = analyzeText("timely_ok.cpp", src, fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleTimeliness), 0u);
}

TEST(LintRules, DirectSendIsIoFinding)
{
    const auto report = analyzeText(
        "io.cpp",
        appWith("    b.radioSend(&p, sizeof(p));\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleIo), 1u);
    ASSERT_FALSE(report.findings.empty());
    EXPECT_EQ(report.findings.front().subject, "radio");
}

TEST(LintRules, StagedSendIsClean)
{
    const auto report = analyzeText(
        "io_ok.cpp",
        appWith("    radio->send(&p, sizeof(p));\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleIo), 0u);
}

TEST(LintRules, UnboundedLoopWithoutBoundary)
{
    const auto report = analyzeText(
        "seg.cpp",
        appWith("    while (count.get() < limit) {\n"
                "      b.charge(10);\n"
                "    }\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleSegmentation), 1u);
}

TEST(LintRules, LatchTriggerSegmentsLoop)
{
    const auto report = analyzeText(
        "seg_ok.cpp",
        appWith("    while (count.get() < limit) {\n"
                "      rt.triggerPoint();\n"
                "      b.charge(10);\n"
                "    }\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleSegmentation), 0u);
}

TEST(LintRules, BoundedLoopNeedsNoSegmentation)
{
    const auto report = analyzeText(
        "seg_bounded.cpp",
        appWith("    for (int i = 0; i < 16; ++i) {\n"
                "      b.charge(10);\n"
                "    }\n"),
        fileModeTraits());
    EXPECT_EQ(countRule(report, kRuleSegmentation), 0u);
}

TEST(LintRules, CleanSnippetIsClean)
{
    const auto report = analyzeText(
        "clean.cpp",
        appWith("    rt.triggerPoint();\n"
                "    int v = count.get();\n"
                "    rt.triggerPoint();\n"
                "    count = v + 1;\n"
                "    for (int i = 0; i < 4; ++i) {\n"
                "      rt.triggerPoint();\n"
                "      b.charge(10);\n"
                "    }\n"),
        fileModeTraits());
    EXPECT_TRUE(report.findings.empty());
}

// ---- cross-validation plumbing ---------------------------------------

TEST(LintCrossval, CoversDynamicMatchingRules)
{
    StaticFinding war{kRuleWar, "bc.mismatches", "f.cpp", 1, "A::main", ""};
    StaticFinding seg{kRuleSegmentation, "A::main", "f.cpp", 2, "A::main",
                      ""};

    verify::Finding dWar;
    dWar.analysis = "war-possibility";
    dWar.subject = "bc.mismatches";
    verify::Finding dOther = dWar;
    dOther.subject = "bc.totalBits";
    verify::Finding dEnergy;
    dEnergy.analysis = "energy-progress";
    dEnergy.subject = "region#3"; // dynamic anchors carry no source line

    EXPECT_TRUE(coversDynamic(war, dWar));
    EXPECT_FALSE(coversDynamic(war, dOther));   // subject must match
    EXPECT_FALSE(coversDynamic(war, dEnergy));  // rule must correspond
    EXPECT_TRUE(coversDynamic(seg, dEnergy));   // kind-level match
}

TEST(LintCrossval, RuntimeTraitsMatchModelRecovery)
{
    EXPECT_FALSE(traitsForRuntime("plain-C").boundaries);
    EXPECT_FALSE(traitsForRuntime("plain-C").versioned);
    for (const char *rt :
         {"TICS", "MementOS-like", "Chinchilla-like", "Alpaca-like"}) {
        EXPECT_TRUE(traitsForRuntime(rt).boundaries) << rt;
        EXPECT_TRUE(traitsForRuntime(rt).versioned) << rt;
    }
}

// ---- the real sources: dogfood set and the guard-deletion pin --------

namespace {

std::string
readRepoFile(const std::string &rel)
{
    const std::string path = std::string(TICSIM_SOURCE_DIR) + "/" + rel;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
replaceAll(std::string text, const std::string &from, const std::string &to)
{
    std::size_t pos = 0;
    std::size_t hits = 0;
    while ((pos = text.find(from, pos)) != std::string::npos) {
        text.replace(pos, from.size(), to);
        pos += to.size();
        ++hits;
    }
    EXPECT_GT(hits, 0u) << "pattern not found: " << from;
    return text;
}

} // namespace

TEST(LintSources, DefaultSourceSetCoversAppsAndExamples)
{
    const auto files = defaultSourceSet(TICSIM_SOURCE_DIR);
    EXPECT_GE(files.size(), 20u);
    EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
    const auto has = [&](const char *f) {
        return std::find(files.begin(), files.end(), f) != files.end();
    };
    EXPECT_TRUE(has("examples/quickstart.cpp"));
    EXPECT_TRUE(has("src/apps/bc/bc_legacy.cpp"));
    EXPECT_TRUE(has("src/verify/demo_app.cpp"));
}

TEST(LintSources, GuardDeletionInDemoAppIsCaughtStatically)
{
    const std::string original = readRepoFile("src/verify/demo_app.cpp");
    const auto traits = traitsForRuntime("TICS");

    // As committed: the unguarded else-branch read makes the
    // path-insensitive must-analysis report timeliness (the documented
    // Relay+guard false positive).
    const auto asIs =
        analyzeEntry("demo_app.cpp", original, "SensorRelayApp", traits);
    EXPECT_EQ(countRule(asIs, kRuleTimeliness), 1u);

    // Fully guarded variant: neutralize the cold read; every remaining
    // consume sits inside the expires() guard, so timeliness is clean.
    const std::string guarded = replaceAll(
        original, "p.value = reading_.read(round); // unguarded cold read",
        "p.value = 0; // cold read removed");
    const auto cleanRun =
        analyzeEntry("demo_app.cpp", guarded, "SensorRelayApp", traits);
    EXPECT_EQ(countRule(cleanRun, kRuleTimeliness), 0u);

    // Now delete the guard (rename the special form so it no longer
    // establishes freshness): the consume inside the former guard body
    // must come back as a timeliness finding. This pins that removing
    // the expires() wrapper cannot go unnoticed by the lint.
    const std::string unguarded =
        replaceAll(guarded, "tics::expires", "tics::expiresRemoved");
    const auto regressed =
        analyzeEntry("demo_app.cpp", unguarded, "SensorRelayApp", traits);
    EXPECT_EQ(countRule(regressed, kRuleTimeliness), 1u);
    const auto it = std::find_if(
        regressed.begin(), regressed.end(), [](const StaticFinding &f) {
            return f.rule == kRuleTimeliness;
        });
    ASSERT_NE(it, regressed.end());
    EXPECT_EQ(it->subject, "relay.reading");
}

// ---- run-report v6 round trip ----------------------------------------

TEST(LintReport, V6DocumentRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "lint_report_roundtrip.json";
    {
        harness::ReportOptions opts;
        opts.jsonPath = path;
        harness::BenchSession session("ticsverify", opts);
        harness::LintSection lint;
        lint.filesAnalyzed = 2;
        lint.functionsAnalyzed = 5;
        lint.findings.push_back({"war", "t.count", "a.cpp", 7, "App::main",
                                 "span"});
        lint.crossval = true;
        lint.fullCoverage = true;
        harness::LintCrossValEntry row;
        row.app = "BC";
        row.runtime = "plain-C";
        row.file = "a.cpp";
        row.dynamicFindings = 2;
        row.matchedFindings = 2;
        row.staticFindings = 3;
        row.confirmedStatic = 2;
        row.coverage = 1.0;
        row.fpRate = 1.0 / 3.0;
        lint.rows.push_back(row);
        session.setLint(lint);
        session.finish();
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(doc.find("\"schema\":\"ticsim.run_report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\":6"), std::string::npos);
    EXPECT_NE(doc.find("\"lint\":{\"files_analyzed\":2"),
              std::string::npos);
    EXPECT_NE(doc.find("\"functions_analyzed\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"rule\":\"war\""), std::string::npos);
    EXPECT_NE(doc.find("\"crossval\":true"), std::string::npos);
    EXPECT_NE(doc.find("\"full_coverage\":true"), std::string::npos);
    EXPECT_NE(doc.find("\"dynamic_findings\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"confirmed_static\":2"), std::string::npos);
}
