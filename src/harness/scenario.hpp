/**
 * @file
 * The scenario catalog: every (app, runtime) pair the tools evaluate,
 * built in one place. A row names the pair, says whether the runtime
 * protects NV state and where its checkpoint area lives, and builds
 * the runtime and the app on a board from the values a tool passes in
 * (its app sizes and its TICS setup). The checker, verifier, fault
 * campaign, model checker and sweep select their rows from here, so
 * adding an app or a runtime is one row.
 */

#ifndef TICSIM_HARNESS_SCENARIO_HPP
#define TICSIM_HARNESS_SCENARIO_HPP

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "apps/ar/ar_common.hpp"
#include "apps/bc/bc_legacy.hpp"
#include "apps/common/cuckoo_core.hpp"
#include "board/board.hpp"
#include "tics/config.hpp"

namespace ticsim::harness {

/** What a tool passes into a row's build function. */
struct ScenarioParams {
    apps::ArParams ar{};
    apps::BcParams bc{};
    apps::CuckooParams cuckoo{};
    /** TICS rows' configuration: matrixTics() or sweepTics(). */
    tics::TicsConfig tics{};
};

/** One built scenario, ready for Board::run or beginRun. */
struct ScenarioInstance {
    std::unique_ptr<board::Runtime> runtime;
    std::shared_ptr<void> app;   ///< owns the app object
    std::function<void()> entry; ///< the app's main(); null for task apps
    /** The app's verify(), else GHM's outcome().consistent, else true. */
    std::function<bool()> verify;
};

/** One catalog row. */
struct Scenario {
    const char *app;
    const char *runtime;
    bool isProtected; ///< false only for the plain-C baseline
    /** CheckpointArea region prefix ("tics.ckpt", ...), "" if none. */
    const char *ckptPrefix;
    ScenarioInstance (*build)(board::Board &, const ScenarioParams &);
};

/**
 * Every row, in report order: BC, Cuckoo and AR under TICS,
 * MementOS-like, Chinchilla-like, Alpaca-like and plain C; GHM under
 * TICS and plain C; Study under TICS.
 */
std::span<const Scenario> scenarios();

/**
 * The consistency matrix ticscheck, ticsfault and ticsmc run: BC and
 * Cuckoo under every runtime. AR is left out because its sensor
 * samples follow virtual time, so a failure-free and an intermittent
 * run diverge for reasons unrelated to memory consistency.
 */
bool inConsistencyMatrix(const Scenario &s);

/** The row for (app, runtime), names compared by sameApp/sameRuntime.
 *  A pair no row holds is fatal and named. */
const Scenario &scenario(std::string_view app, std::string_view runtime);

/**
 * The grid spelling of an app token, case-insensitive ("ar", "bc",
 * "bitcount", "cf", "cuckoo"), or nullptr. The grid spells Cuckoo
 * "CF" (sweep JobIds hash it); the catalog rows and the matrix tools
 * print "Cuckoo".
 */
const char *canonicalApp(std::string_view token);

/** The catalog spelling of a runtime token, case-insensitive
 *  ("tics", "plain", "mementos", "chinchilla", "alpaca", "task", ...),
 *  or nullptr. */
const char *canonicalRuntime(std::string_view token);

/** Equal names, or two aliases of the same app / runtime. */
bool sameApp(std::string_view a, std::string_view b);
bool sameRuntime(std::string_view a, std::string_view b);

/** TICS for the consistency and verification matrices: 256 B segments
 *  and a 5 ms timer, so a commit boundary falls every few ms. */
tics::TicsConfig matrixTics();

/** TICS for sweep cells: Fig. 9's S2* (10 ms timer) at @p segmentBytes. */
tics::TicsConfig sweepTics(std::uint32_t segmentBytes);

/** Wrap a built runtime and the app built on it into an instance. */
template <typename App>
ScenarioInstance
makeInstance(std::unique_ptr<board::Runtime> runtime,
             std::unique_ptr<App> app)
{
    ScenarioInstance s;
    App *a = app.get();
    if constexpr (requires { a->main(); })
        s.entry = [a] { a->main(); };
    if constexpr (requires { a->verify(); })
        s.verify = [a] { return a->verify(); };
    else if constexpr (requires { a->outcome(); })
        s.verify = [a] { return a->outcome().consistent; };
    else
        s.verify = [] { return true; };
    s.app = std::shared_ptr<void>(std::move(app));
    s.runtime = std::move(runtime);
    return s;
}

} // namespace ticsim::harness

#endif // TICSIM_HARNESS_SCENARIO_HPP
