#include "scenario.hpp"

#include <cctype>
#include <type_traits>

#include "apps/ar/ar_chinchilla.hpp"
#include "apps/ar/ar_legacy.hpp"
#include "apps/ar/ar_task.hpp"
#include "apps/bc/bc_chinchilla.hpp"
#include "apps/bc/bc_task.hpp"
#include "apps/cuckoo/cuckoo_chinchilla.hpp"
#include "apps/cuckoo/cuckoo_legacy.hpp"
#include "apps/cuckoo/cuckoo_task.hpp"
#include "apps/ghm/ghm.hpp"
#include "apps/study/study.hpp"
#include "harness/experiment.hpp"
#include "runtimes/chinchilla.hpp"
#include "runtimes/mementos.hpp"
#include "runtimes/plainc.hpp"
#include "runtimes/task_core.hpp"
#include "support/logging.hpp"
#include "tics/runtime.hpp"

namespace ticsim::harness {

namespace {

using tics::TicsRuntime;
using runtimes::ChinchillaRuntime;
using runtimes::MementosRuntime;
using runtimes::PlainCRuntime;
using taskrt::TaskRuntime;

template <typename Rt>
std::unique_ptr<Rt>
makeRuntime(const ScenarioParams &p)
{
    if constexpr (std::is_same_v<Rt, TicsRuntime>)
        return std::make_unique<Rt>(p.tics);
    else
        return std::make_unique<Rt>();
}

/** An app sized by one ScenarioParams member (@p Sizes). */
template <typename Rt, typename App, auto Sizes>
ScenarioInstance
build(board::Board &b, const ScenarioParams &p)
{
    auto rt = makeRuntime<Rt>(p);
    auto app = std::make_unique<App>(b, *rt, p.*Sizes);
    return makeInstance(std::move(rt), std::move(app));
}

template <typename Rt>
ScenarioInstance
buildGhm(board::Board &b, const ScenarioParams &p)
{
    apps::GhmParams g;
    g.rounds = 8;
    auto rt = makeRuntime<Rt>(p);
    auto app = std::make_unique<apps::GhmPlainApp>(b, *rt, g);
    return makeInstance(std::move(rt), std::move(app));
}

ScenarioInstance
buildStudy(board::Board &b, const ScenarioParams &p)
{
    auto rt = makeRuntime<TicsRuntime>(p);
    auto app =
        std::make_unique<apps::study::TimekeepTics>(b, *rt, 40 * kNsPerMs);
    return makeInstance(std::move(rt), std::move(app));
}

constexpr auto kAr = &ScenarioParams::ar;
constexpr auto kBc = &ScenarioParams::bc;
constexpr auto kCuckoo = &ScenarioParams::cuckoo;

constexpr const char *kBcLegacy = "src/apps/bc/bc_legacy.cpp";
constexpr const char *kCuckooLegacy = "src/apps/cuckoo/cuckoo_legacy.cpp";
constexpr const char *kArLegacy = "src/apps/ar/ar_legacy.cpp";
constexpr const char *kGhm = "src/apps/ghm/ghm.cpp";

// Chinchilla cannot compile the recursive BC; its rows run the
// hand-derecursed variant (Fig. 9's extra row).
const Scenario kCatalog[] = {
    {"BC", "TICS", true, "tics.ckpt",
     build<TicsRuntime, apps::BcLegacyApp, kBc>, kBcLegacy, "BcLegacyApp"},
    {"BC", "MementOS-like", true, "mementos.ckpt",
     build<MementosRuntime, apps::BcLegacyApp, kBc>, kBcLegacy,
     "BcLegacyApp"},
    {"BC", "Chinchilla-like", true, "chinchilla.ckpt",
     build<ChinchillaRuntime, apps::BcChinchillaApp, kBc>,
     "src/apps/bc/bc_chinchilla.cpp", "BcChinchillaApp"},
    {"BC", "Alpaca-like", true, "",
     build<TaskRuntime, apps::BcTaskApp, kBc>, "src/apps/bc/bc_task.cpp",
     "BcTaskApp"},
    {"BC", "plain-C", false, "",
     build<PlainCRuntime, apps::BcLegacyApp, kBc>, kBcLegacy,
     "BcLegacyApp"},

    {"Cuckoo", "TICS", true, "tics.ckpt",
     build<TicsRuntime, apps::CuckooLegacyApp, kCuckoo>, kCuckooLegacy,
     "CuckooLegacyApp"},
    {"Cuckoo", "MementOS-like", true, "mementos.ckpt",
     build<MementosRuntime, apps::CuckooLegacyApp, kCuckoo>, kCuckooLegacy,
     "CuckooLegacyApp"},
    {"Cuckoo", "Chinchilla-like", true, "chinchilla.ckpt",
     build<ChinchillaRuntime, apps::CuckooChinchillaApp, kCuckoo>,
     "src/apps/cuckoo/cuckoo_chinchilla.cpp", "CuckooChinchillaApp"},
    {"Cuckoo", "Alpaca-like", true, "",
     build<TaskRuntime, apps::CuckooTaskApp, kCuckoo>,
     "src/apps/cuckoo/cuckoo_task.cpp", "CuckooTaskApp"},
    {"Cuckoo", "plain-C", false, "",
     build<PlainCRuntime, apps::CuckooLegacyApp, kCuckoo>, kCuckooLegacy,
     "CuckooLegacyApp"},

    {"AR", "TICS", true, "tics.ckpt",
     build<TicsRuntime, apps::ArLegacyApp, kAr>, kArLegacy, "ArLegacyApp"},
    {"AR", "MementOS-like", true, "mementos.ckpt",
     build<MementosRuntime, apps::ArLegacyApp, kAr>, kArLegacy,
     "ArLegacyApp"},
    {"AR", "Chinchilla-like", true, "chinchilla.ckpt",
     build<ChinchillaRuntime, apps::ArChinchillaApp, kAr>,
     "src/apps/ar/ar_chinchilla.cpp", "ArChinchillaApp"},
    {"AR", "Alpaca-like", true, "",
     build<TaskRuntime, apps::ArTaskApp, kAr>, "src/apps/ar/ar_task.cpp",
     "ArTaskApp"},
    {"AR", "plain-C", false, "",
     build<PlainCRuntime, apps::ArLegacyApp, kAr>, kArLegacy,
     "ArLegacyApp"},

    {"GHM", "TICS", true, "tics.ckpt", buildGhm<TicsRuntime>, kGhm,
     "GhmPlainApp"},
    {"GHM", "plain-C", false, "", buildGhm<PlainCRuntime>, kGhm,
     "GhmPlainApp"},

    {"Study", "TICS", true, "tics.ckpt", buildStudy,
     "src/apps/study/study.cpp", "TimekeepTics"},
};

struct Alias {
    std::string_view token; ///< lower case
    const char *name;
};

constexpr Alias kAppAliases[] = {
    {"ar", "AR"},
    {"bc", "BC"},
    {"bitcount", "BC"},
    {"cf", "CF"},
    {"cuckoo", "CF"},
};

constexpr Alias kRuntimeAliases[] = {
    {"plain-c", "plain-C"},
    {"plainc", "plain-C"},
    {"plain", "plain-C"},
    {"tics", "TICS"},
    {"mementos-like", "MementOS-like"},
    {"mementos", "MementOS-like"},
    {"chinchilla-like", "Chinchilla-like"},
    {"chinchilla", "Chinchilla-like"},
    {"alpaca-like", "Alpaca-like"},
    {"alpaca", "Alpaca-like"},
    {"task", "Alpaca-like"},
};

/** The alias @p token names, ignoring case and surrounding space. */
const char *
resolve(std::string_view token, std::span<const Alias> aliases)
{
    const auto space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    while (!token.empty() && space(token.front()))
        token.remove_prefix(1);
    while (!token.empty() && space(token.back()))
        token.remove_suffix(1);
    for (const Alias &a : aliases) {
        if (a.token.size() != token.size())
            continue;
        bool same = true;
        for (std::size_t i = 0; i < token.size() && same; ++i)
            same = std::tolower(static_cast<unsigned char>(token[i])) ==
                   a.token[i];
        if (same)
            return a.name;
    }
    return nullptr;
}

bool
sameName(std::string_view a, std::string_view b,
         std::span<const Alias> aliases)
{
    if (a == b)
        return true;
    const char *ca = resolve(a, aliases);
    const char *cb = resolve(b, aliases);
    return ca && cb && std::string_view(ca) == cb;
}

} // namespace

std::span<const Scenario>
scenarios()
{
    return kCatalog;
}

bool
inConsistencyMatrix(const Scenario &s)
{
    const std::string_view app = s.app;
    return app == "BC" || app == "Cuckoo";
}

const Scenario &
scenario(std::string_view app, std::string_view runtime)
{
    for (const Scenario &s : kCatalog)
        if (sameApp(s.app, app) && sameRuntime(s.runtime, runtime))
            return s;
    fatal("no scenario '%.*s/%.*s' in the catalog",
          static_cast<int>(app.size()), app.data(),
          static_cast<int>(runtime.size()), runtime.data());
}

const char *
canonicalApp(std::string_view token)
{
    return resolve(token, kAppAliases);
}

const char *
canonicalRuntime(std::string_view token)
{
    return resolve(token, kRuntimeAliases);
}

bool
sameApp(std::string_view a, std::string_view b)
{
    return sameName(a, b, kAppAliases);
}

bool
sameRuntime(std::string_view a, std::string_view b)
{
    return sameName(a, b, kRuntimeAliases);
}

tics::TicsConfig
matrixTics()
{
    tics::TicsConfig c;
    c.segmentBytes = 256;
    c.policy = tics::PolicyKind::Timer;
    c.timerPeriod = 5 * kNsPerMs;
    return c;
}

tics::TicsConfig
sweepTics(std::uint32_t segmentBytes)
{
    tics::TicsConfig c = makeTicsConfig(kSetupS2Star);
    c.segmentBytes = segmentBytes;
    return c;
}

} // namespace ticsim::harness
