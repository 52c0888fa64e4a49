/**
 * @file
 * Grid specification for ticssweep: the cross-product of experiment
 * axes (application, runtime, supply/reset pattern, capacitor,
 * TICS segment size, seed), with a stable content-hashed JobId per
 * cell.
 *
 * Determinism contract: a cell's JobId is the FNV-1a 64 hash of its
 * canonical configuration string, so the same configuration always
 * maps to the same id across processes, job counts and axis orderings.
 * cells() normalizes away axis values that cannot affect the
 * simulation (segment size on non-TICS runtimes, capacitance on
 * non-harvested supplies), deduplicates the normalized cells and
 * returns them sorted by JobId — the one canonical enumeration order
 * every consumer (scheduler, aggregator, report writer) shares.
 */

#ifndef TICSIM_SWEEP_GRID_HPP
#define TICSIM_SWEEP_GRID_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ticsim::sweep {

/** FNV-1a 64-bit content hash (stable across platforms). */
std::uint64_t fnv1a64(std::string_view s);

/** Supply-axis kinds (mirrors harness::PowerSetup). */
enum class SupplyKind {
    Continuous, ///< bench supply, never browns out
    Pattern,    ///< pre-programmed reset pattern
    Rf,         ///< RF harvester + capacitor
    Stochastic, ///< bursty ambient source + capacitor
};

/** One value of the supply/reset-pattern axis. */
struct SupplyAxis {
    SupplyKind kind = SupplyKind::Pattern;
    double periodMs = 30.0;   ///< Pattern only
    double onFraction = 0.6;  ///< Pattern only

    /** Canonical axis token, e.g. "pattern:30:0.6" or "rf". */
    std::string token() const;

    bool harvested() const
    {
        return kind == SupplyKind::Rf || kind == SupplyKind::Stochastic;
    }
};

/**
 * Parse a supply token: "continuous", "rf", "stochastic" or
 * "pattern:<periodMs>:<onFraction>". @return false on a malformed
 * token.
 */
bool parseSupplyToken(const std::string &tok, SupplyAxis &out);

/**
 * Validate an environment-trace axis token: "none" (no trace) or a
 * [a-z0-9_-] trace name resolved against docs/traces at run time.
 * @return false on a malformed token; @p out is "" for "none".
 */
bool parseEnvToken(const std::string &tok, std::string &out);

/** One grid point. */
struct Cell {
    std::string app;          ///< "AR" | "BC" | "CF"
    std::string runtime;      ///< "plain-C" | "TICS" | "MementOS-like"
                              ///< | "Chinchilla-like" | "Alpaca-like"
    SupplyAxis supply;
    double capUf = 0.0;       ///< 0 = supply default (harvested only)
    std::uint32_t segmentBytes = 0; ///< 0 = default (TICS only)
    /** Environment-trace name ("" = none; replaces the supply axis). */
    std::string env;
    std::uint64_t seed = 11;

    /**
     * Canonical configuration string. Doubles are rendered with %.17g
     * so distinct values never collide and re-parsed specs hash
     * identically.
     */
    std::string canonical() const;

    /** canonical() minus the seed axis: the aggregation group key. */
    std::string groupKey() const;

    std::uint64_t jobId() const { return fnv1a64(canonical()); }

    /** 16-digit hex JobId, the cell's display name. */
    std::string jobIdHex() const;

    /** Short human-readable label for tables and logs. */
    std::string label() const;
};

/** The sweep axes; cells() takes their cross-product. */
struct GridSpec {
    std::vector<std::string> apps{"AR", "BC", "CF"};
    std::vector<std::string> runtimes{"TICS", "plain-C"};
    std::vector<SupplyAxis> supplies{SupplyAxis{}};
    std::vector<double> capsUf{0.0};
    std::vector<std::uint32_t> segments{256};
    /** Environment traces; "" = the plain supply axis (default). */
    std::vector<std::string> envs{""};
    std::vector<std::uint64_t> seeds{11};

    /**
     * Enumerate the normalized, deduplicated cells in JobId order.
     * Normalization zeroes segmentBytes unless the runtime is TICS
     * and capUf unless the supply is harvested, so redundant
     * cross-product points collapse into one cell (and one cache
     * entry) instead of re-running identical simulations.
     */
    std::vector<Cell> cells() const;
};

/**
 * Parse a grid-spec file: one "key = v1, v2, ..." assignment per
 * line, '#' comments, keys apps/runtimes/supplies/caps_uf/segments/
 * seeds (unknown keys are errors, not typo traps). Assigned keys
 * replace the default axis entirely. @return false with a message in
 * @p err on any malformed line.
 */
bool parseGridFile(const std::string &path, GridSpec &spec,
                   std::string &err);

/** Parse one comma-separated axis assignment (CLI flags reuse the
 *  spec-file grammar). */
bool parseAxis(GridSpec &spec, const std::string &key,
               const std::string &values, std::string &err);

/**
 * parseGridFile over in-memory text (@p origin labels error
 * messages). The fleet protocol ships a whole GridSpec through this:
 * the coordinator formats, the worker re-parses, and both enumerate
 * the identical canonical cell order.
 */
bool parseGridText(const std::string &text, const std::string &origin,
                   GridSpec &spec, std::string &err);

/**
 * Render @p spec in the spec-file grammar so parseGridText() round-
 * trips it exactly: doubles use %.17g, and the envs line says "none"
 * for the empty (no-trace) environment.
 */
std::string formatSpec(const GridSpec &spec);

} // namespace ticsim::sweep

#endif // TICSIM_SWEEP_GRID_HPP
