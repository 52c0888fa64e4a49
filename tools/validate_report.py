#!/usr/bin/env python3
"""Validate a TICSim --json run report against run_report.schema.json.

Usage: validate_report.py REPORT.json [REPORT2.json ...]

Uses the `jsonschema` package when importable; otherwise falls back to
a small structural validator covering the subset of JSON Schema the
run-report schema actually uses (type, const, enum, required,
additionalProperties, items, $ref into #/definitions, minimum,
minLength, pattern). Either way it also checks the semantic invariants
the schema cannot express: phases.total == result.cycles == sum of the
per-phase counts for every run; for grid documents that the cells are
sorted by job_id, that each cell's sim_ms matches its on_time_ns, that
the cache hit/miss split accounts for every cell (or is zeroed, as
under --stable / --no-cache), and that the aggregates partition the
cells; and for version-4 `prob` documents that static percentiles are
monotone, gate verdicts are consistent with --crossval and with the
failed-percentile field, and a feasible SLO answer actually meets its
own SLO; and for version-5 `perf` documents that counter values are
non-negative integers, every microbenchmark ran at least one
iteration, the host wall-time zones partition the macro total (the
synthetic 'other' zone closes the sum by construction), and the
reported throughput rates are consistent with their own numerators
and denominators; and for version-6 `lint` documents that every
cross-validation row's matched count is bounded by its dynamic count
(and confirmed by static), that coverage and fp_rate agree with the
counts they summarize, and that full_coverage holds exactly when
every row matched all of its dynamic findings; and for version-7 `mc`
documents that a pair claiming exhaustion was recorded consistently
and hit no frontier cut-off, that all_exhausted mirrors the pair
flags, that every violation references an explored pair, and that
each pair's confirmed_violations count equals the number of its
confirmed violation rows; and for version-8 `fleet` documents that the
completion flag, cell counts, per-shard accounts and the retry/crash
bookkeeping are mutually consistent, and that cells_completed matches
the grid section, which lists only the cells that produced a result.

Exit status: 0 when every report validates, 1 otherwise.
"""

import json
import os
import re
import sys

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "run_report.schema.json")

PHASES = ("app", "checkpoint", "restore", "undo_log", "rollback",
          "timekeeper", "peripheral", "boot")


def _resolve(schema, root):
    while "$ref" in schema:
        ref = schema["$ref"]
        assert ref.startswith("#/"), f"only local refs supported: {ref}"
        node = root
        for part in ref[2:].split("/"):
            node = node[part]
        schema = node
    return schema


def _structural_validate(value, schema, root, path):
    """Minimal draft-07 subset validator; raises ValueError on mismatch."""
    schema = _resolve(schema, root)

    if "const" in schema:
        if value != schema["const"]:
            raise ValueError(f"{path}: expected {schema['const']!r}, "
                             f"got {value!r}")
        return

    if "enum" in schema:
        if value not in schema["enum"]:
            raise ValueError(f"{path}: {value!r} not one of "
                             f"{schema['enum']!r}")
        return

    t = schema.get("type")
    if t == "object":
        if not isinstance(value, dict):
            raise ValueError(f"{path}: expected object, got {type(value).__name__}")
        for req in schema.get("required", []):
            if req not in value:
                raise ValueError(f"{path}: missing required key '{req}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for k, v in value.items():
            if k in props:
                _structural_validate(v, props[k], root, f"{path}.{k}")
            elif isinstance(extra, dict):
                _structural_validate(v, extra, root, f"{path}.{k}")
            elif extra is False:
                raise ValueError(f"{path}: unexpected key '{k}'")
    elif t == "array":
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected array, got {type(value).__name__}")
        if len(value) < schema.get("minItems", 0):
            raise ValueError(f"{path}: fewer than minItems entries")
        items = schema.get("items")
        if items:
            for i, v in enumerate(value):
                _structural_validate(v, items, root, f"{path}[{i}]")
    elif t == "string":
        if not isinstance(value, str):
            raise ValueError(f"{path}: expected string, got {type(value).__name__}")
        if len(value) < schema.get("minLength", 0):
            raise ValueError(f"{path}: string shorter than minLength")
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise ValueError(
                f"{path}: {value!r} does not match {schema['pattern']!r}")
    elif t == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{path}: expected integer, got {type(value).__name__}")
        if value < schema.get("minimum", float("-inf")):
            raise ValueError(f"{path}: {value} below minimum")
    elif t == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{path}: expected number, got {type(value).__name__}")
        if value < schema.get("minimum", float("-inf")):
            raise ValueError(f"{path}: {value} below minimum")
    elif t == "boolean":
        if not isinstance(value, bool):
            raise ValueError(f"{path}: expected boolean, got {type(value).__name__}")
    elif t is not None:
        raise ValueError(f"{path}: unhandled schema type {t!r}")


def validate_schema(report, schema):
    try:
        import jsonschema
        jsonschema.validate(report, schema)
    except ImportError:
        _structural_validate(report, schema, schema, "$")


def validate_invariants(report):
    """Cross-field checks the schema language cannot state."""
    for i, run in enumerate(report.get("runs", [])):
        phases = run["phases"]
        total = phases["total"]
        summed = sum(phases[p] for p in PHASES)
        cycles = run["result"]["cycles"]
        if summed != total:
            raise ValueError(
                f"runs[{i}] ({run['label']}): phase sum {summed} != "
                f"phases.total {total}")
        if total != cycles:
            raise ValueError(
                f"runs[{i}] ({run['label']}): phases.total {total} != "
                f"result.cycles {cycles}")

    if "grid" in report and report["version"] < 3:
        raise ValueError("grid section requires version >= 3")
    if report["version"] == 3 and "grid" not in report:
        raise ValueError("version 3 document has no grid section")
    if "grid" in report:
        validate_grid(report["grid"])

    if "prob" in report and report["version"] < 4:
        raise ValueError("prob section requires version >= 4")
    if report["version"] == 4 and "prob" not in report:
        raise ValueError("version 4 document has no prob section")
    if "prob" in report:
        validate_prob(report["prob"])

    if "perf" in report and report["version"] < 5:
        raise ValueError("perf section requires version >= 5")
    if report["version"] == 5 and "perf" not in report:
        raise ValueError("version 5 document has no perf section")
    if "perf" in report:
        validate_perf(report["perf"])

    if "lint" in report and report["version"] < 6:
        raise ValueError("lint section requires version >= 6")
    if report["version"] == 6 and "lint" not in report:
        raise ValueError("version 6 document has no lint section")
    if "lint" in report:
        validate_lint(report["lint"])

    if "mc" in report and report["version"] < 7:
        raise ValueError("mc section requires version >= 7")
    if report["version"] == 7 and "mc" not in report:
        raise ValueError("version 7 document has no mc section")
    if "mc" in report:
        validate_mc(report["mc"])

    if "fleet" in report and report["version"] < 8:
        raise ValueError("fleet section requires version >= 8")
    if report["version"] == 8 and "fleet" not in report:
        raise ValueError("version 8 document has no fleet section")
    if "fleet" in report:
        validate_fleet(report["fleet"], report.get("grid"))


def validate_grid(grid):
    """The ticssweep section's determinism and accounting invariants."""
    cells = grid["cells"]

    # JobIds are fixed-width lowercase hex, so lexicographic order is
    # numeric order; the sorted sequence is what makes serial and
    # parallel sweeps byte-identical.
    ids = [c["job_id"] for c in cells]
    if ids != sorted(ids):
        raise ValueError("grid.cells not sorted by job_id")
    if len(set(ids)) != len(ids):
        raise ValueError("grid.cells contain duplicate job_ids")

    for i, cell in enumerate(cells):
        want = cell["result"]["on_time_ns"] / 1e6
        got = cell["result"]["sim_ms"]
        if abs(got - want) > max(1e-9, 1e-12 * want):
            raise ValueError(
                f"grid.cells[{i}] ({cell['job_id']}): sim_ms {got} != "
                f"on_time_ns/1e6 {want}")

    hits = grid["cache"]["hits"]
    misses = grid["cache"]["misses"]
    if (hits, misses) != (0, 0) and hits + misses != len(cells):
        raise ValueError(
            f"grid.cache hits {hits} + misses {misses} != "
            f"{len(cells)} cells (and not the zeroed stable form)")

    agg_cells = sum(a["cells"] for a in grid["aggregates"])
    if agg_cells != len(cells):
        raise ValueError(
            f"grid.aggregates cover {agg_cells} cells, grid has "
            f"{len(cells)}")


def validate_prob(prob):
    """The ticsverify --prob section's internal consistency."""
    crossval = prob["crossval"]
    for i, row in enumerate(prob["rows"]):
        who = f"prob.rows[{i}] ({row['app']}/{row['runtime']}/{row['env']})"
        st = row["static"]
        if not st["p50_ms"] <= st["p95_ms"] <= st["p99_ms"]:
            raise ValueError(f"{who}: static percentiles not monotone")
        sim = row["simulated"]
        if sim["completed"] > sim["cells"]:
            raise ValueError(f"{who}: more completions than cells")
        if not crossval:
            if row["gate"] != "static":
                raise ValueError(
                    f"{who}: gate '{row['gate']}' without --crossval")
            if sim["cells"] != 0:
                raise ValueError(
                    f"{who}: simulated cells without --crossval")
        elif row["gate"] == "static":
            raise ValueError(f"{who}: ungated row in a --crossval report")
        if row["within_tolerance"] and row["failed_percentile"]:
            raise ValueError(
                f"{who}: within tolerance yet failed "
                f"'{row['failed_percentile']}'")
        if not row["within_tolerance"] and not row["failed_percentile"]:
            raise ValueError(f"{who}: failed gate names no percentile")

    if "slo" in prob:
        slo = prob["slo"]
        if slo["feasible"]:
            if slo["capacitance_uf"] <= 0:
                raise ValueError(
                    "prob.slo: feasible answer without a capacitance")
            if slo["p_on_time"] < slo["slo"]:
                raise ValueError(
                    f"prob.slo: p_on_time {slo['p_on_time']} below the "
                    f"SLO {slo['slo']} it claims to meet")


def validate_perf(perf):
    """The ticsperf section's accounting invariants."""
    for name, value in perf["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(
                f"perf.counters.{name}: {value!r} is not a "
                f"non-negative integer")

    for i, mb in enumerate(perf["microbench"]):
        who = f"perf.microbench[{i}] ({mb['name']})"
        if mb["iters"] <= 0:
            raise ValueError(f"{who}: ran {mb['iters']} iterations")
        if mb["ns_per_op"] < 0 or mb["ops_per_sec"] < 0:
            raise ValueError(f"{who}: negative rate")
        # ns_per_op and ops_per_sec are reciprocals (up to ns<->s).
        if mb["ns_per_op"] > 0:
            want = 1e9 / mb["ns_per_op"]
            got = mb["ops_per_sec"]
            if abs(got - want) > 1e-6 * want:
                raise ValueError(
                    f"{who}: ops_per_sec {got} != 1e9/ns_per_op {want}")

    host = perf["host_time"]
    zone_sum = sum(z["ms"] for z in host["zones"])
    total = host["total_ms"]
    # The synthetic 'other' zone closes the partition exactly, except
    # when named zones overshoot the wall total (timer granularity) and
    # 'other' clamps at zero; allow the sum to exceed total slightly.
    if zone_sum < total - max(1e-6, 1e-9 * total):
        raise ValueError(
            f"perf.host_time: zones sum to {zone_sum} ms, short of "
            f"total_ms {total}")
    names = [z["name"] for z in host["zones"]]
    if len(set(names)) != len(names):
        raise ValueError("perf.host_time: duplicate zone names")

    macro = perf["macro"]
    if macro["host_ms"] > 0:
        secs = macro["host_ms"] / 1e3
        checks = (
            ("cells_per_sec", macro["cells"] / secs),
            ("sim_cycles_per_host_sec", macro["sim_cycles"] / secs),
            ("sim_seconds_per_host_sec", macro["sim_ns"] / 1e9 / secs),
        )
        for key, want in checks:
            got = macro[key]
            if abs(got - want) > max(1e-9, 1e-6 * want):
                raise ValueError(
                    f"perf.macro.{key}: {got} inconsistent with "
                    f"recomputed {want}")


def validate_lint(lint):
    """The ticsverify --source section's coverage arithmetic."""
    if lint["files_analyzed"] == 0:
        raise ValueError("lint: zero files analyzed")
    if len(lint["findings"]) > 0 and lint["functions_analyzed"] == 0:
        raise ValueError("lint: findings without any parsed function")

    crossval = lint["crossval"]
    rows = lint.get("rows", [])
    if crossval and "full_coverage" not in lint:
        raise ValueError("lint: crossval report without full_coverage")
    if not crossval and rows:
        raise ValueError("lint: rows present without --crossval")

    all_matched = True
    for i, row in enumerate(rows):
        who = f"lint.rows[{i}] ({row['app']}/{row['runtime']})"
        if row["matched_findings"] > row["dynamic_findings"]:
            raise ValueError(f"{who}: matched more than dynamic")
        if row["confirmed_static"] > row["static_findings"]:
            raise ValueError(f"{who}: confirmed more than static")
        want_cov = (1.0 if row["dynamic_findings"] == 0 else
                    row["matched_findings"] / row["dynamic_findings"])
        if abs(row["coverage"] - want_cov) > 1e-9:
            raise ValueError(
                f"{who}: coverage {row['coverage']} != recomputed "
                f"{want_cov}")
        want_fp = (0.0 if row["static_findings"] == 0 else
                   (row["static_findings"] - row["confirmed_static"]) /
                   row["static_findings"])
        if abs(row["fp_rate"] - want_fp) > 1e-9:
            raise ValueError(
                f"{who}: fp_rate {row['fp_rate']} != recomputed "
                f"{want_fp}")
        if row["matched_findings"] != row["dynamic_findings"]:
            all_matched = False
    if crossval and lint["full_coverage"] != all_matched:
        raise ValueError(
            f"lint: full_coverage {lint['full_coverage']} inconsistent "
            f"with the rows (all matched: {all_matched})")


def validate_mc(mc):
    """The mc section's (ticsfault --explore) exhaustion and confirmation
    bookkeeping."""
    pairs = {}
    for i, p in enumerate(mc["pairs"]):
        who = f"mc.pairs[{i}] ({p['app']}/{p['runtime']})"
        key = (p["app"], p["runtime"])
        if key in pairs:
            raise ValueError(f"{who}: duplicate pair entry")
        pairs[key] = p
        if p["exhausted"]:
            if not p["recording_consistent"]:
                raise ValueError(
                    f"{who}: exhausted yet the recording pass diverged "
                    f"from the reference")
            if p["frontier_cutoffs"] != 0:
                raise ValueError(
                    f"{who}: exhausted with {p['frontier_cutoffs']} "
                    f"frontier cut-offs")
        if p["decision_points"] == 0 and p["branches_taken"] != 0:
            raise ValueError(
                f"{who}: {p['branches_taken']} branches without any "
                f"decision point")
        if p["states_explored"] < p["branches_taken"]:
            # Every branch the walk takes runs to a classified leaf, so
            # leaves can only exceed branches (never trail them).
            raise ValueError(
                f"{who}: {p['states_explored']} states from "
                f"{p['branches_taken']} branches")

    want_all = all(p["exhausted"] for p in mc["pairs"])
    if mc["all_exhausted"] != want_all:
        raise ValueError(
            f"mc.all_exhausted {mc['all_exhausted']} inconsistent with "
            f"the pair flags (all exhausted: {want_all})")

    confirmed = {k: 0 for k in pairs}
    for i, v in enumerate(mc["violations"]):
        key = (v["app"], v["runtime"])
        if key not in pairs:
            raise ValueError(
                f"mc.violations[{i}]: {v['app']}/{v['runtime']} was "
                f"never explored")
        if v["confirmed"]:
            confirmed[key] += 1
    for key, p in pairs.items():
        if p["confirmed_violations"] != confirmed[key]:
            raise ValueError(
                f"mc pair {key[0]}/{key[1]}: confirmed_violations "
                f"{p['confirmed_violations']} != {confirmed[key]} "
                f"confirmed violation rows")


def validate_fleet(fleet, grid):
    """The fleet section: a ticssweep --workers run's bookkeeping."""
    total = fleet["cells_total"]
    done = fleet["cells_completed"]
    if done > total:
        raise ValueError(f"fleet: {done} cells completed of {total}")
    if fleet["complete"] != (done == total):
        raise ValueError(
            f"fleet: complete {fleet['complete']} inconsistent with "
            f"{done}/{total} cells")
    if grid is not None and done != len(grid["cells"]):
        raise ValueError(
            f"fleet: cells_completed {done} != {len(grid['cells'])} "
            f"grid cells in the same document")

    workers = fleet["workers"]
    shards = [w["shard"] for w in workers]
    if shards != sorted(set(shards)):
        raise ValueError("fleet.workers not one entry per shard, "
                         "sorted by shard index")
    if sum(w["spawns"] for w in workers) != fleet["workers_spawned"]:
        raise ValueError(
            f"fleet: workers_spawned {fleet['workers_spawned']} != "
            f"sum of per-shard spawns")
    if sum(w["completed"] for w in workers) != done:
        raise ValueError(
            f"fleet: cells_completed {done} != sum of per-shard "
            f"completed counts")
    for w in workers:
        if w["completed"] > w["assigned"]:
            raise ValueError(
                f"fleet shard {w['shard']}: completed {w['completed']} "
                f"> assigned {w['assigned']}")
    # Every retry respawns a shard that crashed or timed out first.
    if fleet["retries"] > fleet["crashes"] + fleet["timeouts"]:
        raise ValueError(
            f"fleet: {fleet['retries']} retries exceed "
            f"{fleet['crashes']} crashes + {fleet['timeouts']} "
            f"timeouts")
    if fleet["envs"] != sorted(set(fleet["envs"])):
        raise ValueError("fleet.envs not sorted and distinct")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(SCHEMA_PATH) as f:
        schema = json.load(f)
    ok = True
    for path in argv[1:]:
        try:
            with open(path) as f:
                report = json.load(f)
            validate_schema(report, schema)
            validate_invariants(report)
            nruns = len(report["runs"])
            print(f"{path}: OK ({report['bench']}, {nruns} runs)")
        except Exception as e:  # noqa: BLE001 — report and keep going
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
