#include "crossval.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/analyzer.hpp"

namespace ticsim::lint {

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

bool
coversDynamic(const StaticFinding &s, const verify::Finding &d)
{
    if (d.analysis == "war-possibility")
        return s.rule == kRuleWar && s.subject == d.subject;
    if (d.analysis == "timeliness")
        return s.rule == kRuleTimeliness && s.subject == d.subject;
    if (d.analysis == "io-idempotency")
        return s.rule == kRuleIo;
    if (d.analysis == "energy-progress")
        return s.rule == kRuleSegmentation;
    return false;
}

LintCrossVal
crossValidate(const std::vector<verify::AppVerdict> &verdicts,
              const std::string &sourceDir)
{
    namespace fs = std::filesystem;
    LintCrossVal cv;
    for (const verify::AppVerdict &v : verdicts) {
        LintCrossValRow row;
        row.app = v.app;
        row.runtime = v.runtime;
        row.dynamicCount = v.findings.size();

        const harness::Scenario *src = v.scenario;
        std::string text;
        std::vector<StaticFinding> statics;
        if (src &&
            readFile((fs::path(sourceDir) / src->source).string(),
                     text)) {
            row.file = src->source;
            row.entryClass = src->entryClass;
            statics = analyzeEntry(src->source, text, src->entryClass,
                                   traitsForRuntime(v.runtime));
        }
        row.staticCount = statics.size();

        std::vector<bool> confirmed(statics.size(), false);
        for (const verify::Finding &d : v.findings) {
            bool matched = false;
            for (std::size_t i = 0; i < statics.size(); ++i) {
                if (coversDynamic(statics[i], d)) {
                    confirmed[i] = true;
                    matched = true;
                }
            }
            if (matched) {
                ++row.matchedCount;
            } else {
                row.unmatched.push_back(d.analysis + "|" + d.subject);
                cv.fullCoverage = false;
            }
        }
        for (std::size_t i = 0; i < statics.size(); ++i) {
            if (confirmed[i])
                ++row.confirmedCount;
            else
                row.extras.push_back(statics[i]);
        }
        cv.rows.push_back(std::move(row));
    }
    return cv;
}

Table
crossValTable(const LintCrossVal &cv)
{
    Table t("ticsverify: source-level findings vs recovered model");
    t.header({"App", "Runtime", "Dynamic", "Matched", "Static",
              "Confirmed", "Coverage", "FPrate", "Verdict"});
    for (const LintCrossValRow &r : cv.rows) {
        char cov[32];
        char fpr[32];
        std::snprintf(cov, sizeof(cov), "%.0f%%", 100.0 * r.coverage());
        std::snprintf(fpr, sizeof(fpr), "%.0f%%", 100.0 * r.fpRate());
        t.row()
            .cell(r.app)
            .cell(r.runtime)
            .cell(static_cast<std::uint64_t>(r.dynamicCount))
            .cell(static_cast<std::uint64_t>(r.matchedCount))
            .cell(static_cast<std::uint64_t>(r.staticCount))
            .cell(static_cast<std::uint64_t>(r.confirmedCount))
            .cell(cov)
            .cell(fpr)
            .cell(r.matchedCount == r.dynamicCount ? "covered"
                                                   : "MISSED");
    }
    return t;
}

} // namespace ticsim::lint
