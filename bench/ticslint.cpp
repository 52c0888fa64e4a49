/**
 * @file
 * ticslint: true source-level static analysis of the legacy apps.
 *
 * Unlike ticsverify — which analyzes a ProgramModel recovered from one
 * dynamic calibration run, and therefore cannot see unexecuted paths —
 * ticslint tokenizes and parses the app sources themselves, builds
 * per-function CFGs, inlines along the call graph, and runs the four
 * dataflow checks over program text (DESIGN.md, "Source-level lint").
 *
 *     ticslint [--source-dir D] [--verbose] [--crossval]
 *              [--baseline F] [--write-baseline F] [--json F]
 *
 * Default mode lints the dogfood set (examples/, src/apps/, the
 * SensorRelay demo) under file-mode traits and prints a per-file
 * findings table. --crossval recovers the dynamic model matrix with
 * verify::verifyMatrix and machine-checks the over-approximation
 * guarantee: every dynamic finding must be covered by a source-level
 * finding, with per-pair false-positive rates reported. --baseline
 * gates both the file-mode findings and the crossval false positives
 * against a committed expectation file; anything new exits 1.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "harness/report.hpp"
#include "lint/analyzer.hpp"
#include "lint/crossval.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "verify/verifier.hpp"

#ifndef TICSIM_SOURCE_DIR
#define TICSIM_SOURCE_DIR "."
#endif

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --source-dir <dir>      repo root holding the sources to "
        "lint\n"
        "                          (default: the configured source "
        "tree)\n"
        "  --verbose               print every finding, not just "
        "per-file counts\n"
        "  --crossval              recover the dynamic model matrix "
        "and check that\n"
        "                          every dynamic finding is covered "
        "by a source one\n"
        "  --baseline <file>      fail (exit 1) on findings/FPs not "
        "in the baseline\n"
        "  --write-baseline <file> write the current findings as the "
        "baseline\n"
        "  --json <file>           write a ticsim.run_report v6 "
        "document\n",
        argv0);
}

std::string
fileKey(const lint::StaticFinding &f)
{
    return f.file + "|" + f.rule + "|" + f.subject;
}

std::string
crossvalKey(const std::string &app, const std::string &runtime,
            const lint::StaticFinding &f)
{
    return app + "|" + runtime + "|" + f.rule + "|" + f.subject;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchSession session("ticslint", argc, argv);

    std::string sourceDir = TICSIM_SOURCE_DIR;
    bool verbose = false;
    bool crossval = false;
    std::string baselinePath;
    std::string writeBaselinePath;

    const auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            usage(argv[0]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--source-dir") == 0) {
            sourceDir = next(i);
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(arg, "--crossval") == 0) {
            crossval = true;
        } else if (std::strcmp(arg, "--baseline") == 0) {
            baselinePath = next(i);
        } else if (std::strcmp(arg, "--write-baseline") == 0) {
            writeBaselinePath = next(i);
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    // ---- file mode: lint the dogfood set ------------------------------
    const auto files = lint::defaultSourceSet(sourceDir);
    if (files.empty()) {
        std::fprintf(stderr,
                     "ticslint: no sources under '%s' (use "
                     "--source-dir)\n",
                     sourceDir.c_str());
        return 2;
    }

    std::vector<lint::FileReport> reports;
    std::size_t totalFindings = 0;
    std::size_t totalFunctions = 0;
    for (const std::string &rel : files) {
        lint::FileReport rep = lint::analyzeFile(
            sourceDir + "/" + rel, rel, lint::fileModeTraits());
        totalFindings += rep.findings.size();
        totalFunctions += rep.functions;
        reports.push_back(std::move(rep));
    }

    Table fileTable("ticslint: per-file findings (" +
                    std::to_string(files.size()) + " files, " +
                    std::to_string(totalFunctions) + " functions)");
    fileTable.header(
        {"File", "Funcs", "WAR", "Timely", "IO", "Segment"});
    for (const auto &rep : reports) {
        std::size_t byRule[4] = {0, 0, 0, 0};
        for (const auto &f : rep.findings) {
            if (f.rule == lint::kRuleWar)
                ++byRule[0];
            else if (f.rule == lint::kRuleTimeliness)
                ++byRule[1];
            else if (f.rule == lint::kRuleIo)
                ++byRule[2];
            else
                ++byRule[3];
        }
        fileTable.row()
            .cell(rep.file)
            .cell(static_cast<std::uint64_t>(rep.functions))
            .cell(static_cast<std::uint64_t>(byRule[0]))
            .cell(static_cast<std::uint64_t>(byRule[1]))
            .cell(static_cast<std::uint64_t>(byRule[2]))
            .cell(static_cast<std::uint64_t>(byRule[3]));
    }
    fileTable.print(std::cout);

    if (verbose) {
        Table ft("ticslint: per-finding detail");
        ft.header({"Rule", "Subject", "File", "Line", "Entry"});
        for (const auto &rep : reports) {
            for (const auto &f : rep.findings) {
                ft.row()
                    .cell(f.rule)
                    .cell(f.subject)
                    .cell(f.file)
                    .cell(static_cast<std::uint64_t>(f.line))
                    .cell(f.function);
            }
        }
        ft.print(std::cout);
        for (const auto &rep : reports)
            for (const auto &f : rep.findings)
                std::printf("  %s:%d: [%s] %s\n", f.file.c_str(),
                            f.line, f.rule.c_str(), f.detail.c_str());
    }
    std::printf("ticslint: %zu finding(s) across %zu file(s)\n",
                totalFindings, files.size());

    // ---- crossval mode: source vs recovered model ---------------------
    lint::LintCrossVal cv;
    if (crossval) {
        std::printf("\nticslint: recovering the dynamic model matrix "
                    "(verify::verifyMatrix)...\n");
        const auto verdicts = verify::verifyMatrix();
        cv = lint::crossValidate(verdicts, sourceDir);
        lint::crossValTable(cv).print(std::cout);
        for (const auto &row : cv.rows) {
            for (const auto &miss : row.unmatched)
                std::printf("UNCOVERED dynamic finding: %s|%s|%s\n",
                            row.app.c_str(), row.runtime.c_str(),
                            miss.c_str());
            if (verbose) {
                for (const auto &fp : row.extras)
                    std::printf("  false positive %s|%s: [%s] %s "
                                "(%s:%d)\n",
                                row.app.c_str(), row.runtime.c_str(),
                                fp.rule.c_str(), fp.subject.c_str(),
                                fp.file.c_str(), fp.line);
            }
        }
        std::printf("ticslint: crossval %s — every dynamic finding %s "
                    "covered by a source-level finding\n",
                    cv.fullCoverage ? "OK" : "FAILED",
                    cv.fullCoverage ? "is" : "is NOT");
    }

    // ---- report -------------------------------------------------------
    {
        harness::LintSection sect;
        sect.filesAnalyzed = files.size();
        sect.functionsAnalyzed = totalFunctions;
        for (const auto &rep : reports) {
            for (const auto &f : rep.findings) {
                harness::LintFindingEntry e;
                e.rule = f.rule;
                e.subject = f.subject;
                e.file = f.file;
                e.line = static_cast<std::uint64_t>(f.line);
                e.function = f.function;
                e.detail = f.detail;
                sect.findings.push_back(std::move(e));
            }
        }
        sect.crossval = crossval;
        sect.fullCoverage = cv.fullCoverage;
        for (const auto &row : cv.rows) {
            harness::LintCrossValEntry e;
            e.app = row.app;
            e.runtime = row.runtime;
            e.file = row.file;
            e.dynamicFindings = row.dynamicCount;
            e.matchedFindings = row.matchedCount;
            e.staticFindings = row.staticCount;
            e.confirmedStatic = row.confirmedCount;
            e.coverage = row.coverage();
            e.fpRate = row.fpRate();
            sect.rows.push_back(std::move(e));
        }
        session.setLint(std::move(sect));
    }

    // ---- baseline -----------------------------------------------------
    if (!writeBaselinePath.empty()) {
        std::set<std::string> keys;
        for (const auto &rep : reports)
            for (const auto &f : rep.findings)
                keys.insert(fileKey(f));
        std::set<std::string> cvKeys;
        for (const auto &row : cv.rows)
            for (const auto &fp : row.extras)
                cvKeys.insert(crossvalKey(row.app, row.runtime, fp));

        std::ofstream os(writeBaselinePath);
        if (!os) {
            std::fprintf(stderr,
                         "ticslint: cannot write baseline '%s'\n",
                         writeBaselinePath.c_str());
            return 2;
        }
        JsonWriter w(os);
        w.beginObject();
        w.member("schema", "ticsim.lint_baseline");
        w.member("version", 1);
        w.key("keys").beginArray();
        for (const auto &k : keys)
            w.value(k);
        w.endArray();
        // The expected false positives of the over-approximation,
        // only meaningful when --crossval ran while writing.
        w.key("crossval_keys").beginArray();
        for (const auto &k : cvKeys)
            w.value(k);
        w.endArray();
        w.endObject();
        os << '\n';
        std::printf("ticslint: wrote baseline %s (%zu file key(s), "
                    "%zu crossval key(s))\n",
                    writeBaselinePath.c_str(), keys.size(),
                    cvKeys.size());
    }

    int rc = 0;
    if (!baselinePath.empty()) {
        const std::string text = bench::readBaseline("ticslint", baselinePath);
        const auto known = bench::baselineArray(text, "keys");
        std::size_t fresh = 0;
        for (const auto &rep : reports) {
            for (const auto &f : rep.findings) {
                if (!known.count(fileKey(f))) {
                    std::printf(
                        "NEW FINDING (not in baseline): %s (%s:%d)\n",
                        fileKey(f).c_str(), f.file.c_str(), f.line);
                    ++fresh;
                }
            }
        }
        if (crossval) {
            const auto knownCv =
                bench::baselineArray(text, "crossval_keys");
            for (const auto &row : cv.rows) {
                for (const auto &fp : row.extras) {
                    const std::string k =
                        crossvalKey(row.app, row.runtime, fp);
                    if (!knownCv.count(k)) {
                        std::printf("NEW FALSE POSITIVE (not in "
                                    "baseline): %s (%s:%d)\n",
                                    k.c_str(), fp.file.c_str(),
                                    fp.line);
                        ++fresh;
                    }
                }
            }
        }
        if (fresh > 0) {
            std::printf("ticslint: %zu finding(s) not in baseline %s\n",
                        fresh, baselinePath.c_str());
            rc = 1;
        } else {
            std::printf("ticslint: baseline OK (%s)\n",
                        baselinePath.c_str());
        }
    }
    if (crossval && !cv.fullCoverage)
        rc = 1;

    session.finish();
    return rc;
}
