#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "lint/checks.hpp"

namespace ticsim::lint {

namespace {

void
collectCalls(const Stmt &s, std::set<std::string> &called)
{
    for (const Action &a : s.header)
        if (a.kind == ActKind::Call)
            called.insert(a.subject);
    for (const Action &a : s.actions)
        if (a.kind == ActKind::Call)
            called.insert(a.subject);
    for (const Stmt &c : s.children)
        collectCalls(c, called);
}

std::string
readFileOrThrow(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("ticsverify: cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

RuntimeTraits
traitsForRuntime(const std::string &runtime)
{
    // plain-C is the unprotected baseline: trigger points compile to
    // nothing and no write is versioned. Every other runtime in the
    // matrix checkpoints at boundaries and versions NV state (undo
    // log, double buffering, or task channels) — including
    // MementOS-like, whose genesis snapshot closes the
    // first-checkpoint window (DESIGN.md Section 8).
    if (runtime == "plain-C")
        return RuntimeTraits{false, false};
    return RuntimeTraits{true, true};
}

FileReport
analyzeText(const std::string &displayName, const std::string &text,
            const RuntimeTraits &traits)
{
    const SourceProgram prog = parseSource(displayName, text);

    std::set<std::string> called;
    for (const FunctionDef &f : prog.functions)
        collectCalls(f.body, called);

    FileReport rep;
    rep.file = displayName;
    rep.functions = prog.functions.size();
    std::set<std::tuple<std::string, std::string, int>> seen;
    for (const FunctionDef &f : prog.functions) {
        if (called.count(f.qualified()))
            continue; // not a root: analyzed inline at its call sites
        for (auto &fd : runChecks(prog, f, traits)) {
            if (seen.emplace(fd.rule, fd.subject, fd.line).second)
                rep.findings.push_back(std::move(fd));
        }
    }
    std::sort(rep.findings.begin(), rep.findings.end(),
              [](const StaticFinding &a, const StaticFinding &b) {
                  return std::tie(a.line, a.rule, a.subject) <
                         std::tie(b.line, b.rule, b.subject);
              });
    return rep;
}

FileReport
analyzeFile(const std::string &path, const std::string &displayName,
            const RuntimeTraits &traits)
{
    return analyzeText(displayName, readFileOrThrow(path), traits);
}

std::vector<std::string>
defaultSourceSet(const std::string &sourceDir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> rel;
    const auto addTree = [&](const std::string &sub) {
        const fs::path root = fs::path(sourceDir) / sub;
        if (!fs::exists(root))
            return;
        for (const auto &e : fs::recursive_directory_iterator(root)) {
            if (!e.is_regular_file() ||
                e.path().extension() != ".cpp")
                continue;
            rel.push_back(
                fs::relative(e.path(), sourceDir).generic_string());
        }
    };
    addTree("examples");
    addTree("src/apps");
    const fs::path demo =
        fs::path(sourceDir) / "src/verify/demo_app.cpp";
    if (fs::exists(demo))
        rel.push_back("src/verify/demo_app.cpp");
    std::sort(rel.begin(), rel.end());
    return rel;
}

std::vector<StaticFinding>
analyzeEntry(const std::string &displayName, const std::string &text,
             const std::string &entryClass, const RuntimeTraits &traits)
{
    const SourceProgram prog = parseSource(displayName, text);
    const FunctionDef *entry = prog.findFunction(entryClass, "main");
    if (!entry)
        entry = prog.findFunction(entryClass, entryClass); // ctor
    if (!entry)
        return {};
    auto findings = runChecks(prog, *entry, traits);
    std::sort(findings.begin(), findings.end(),
              [](const StaticFinding &a, const StaticFinding &b) {
                  return std::tie(a.line, a.rule, a.subject) <
                         std::tie(b.line, b.rule, b.subject);
              });
    return findings;
}

} // namespace ticsim::lint
