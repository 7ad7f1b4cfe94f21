"""Validate the checked-in ``BENCH_*.json`` benchmark reports.

``make test-all`` runs this checker over every ``BENCH_*.json`` at the
repository root.  Six layers of checks keep the perf trajectory honest:

1. **hygiene** -- the file parses, is non-empty, and contains no ``NaN`` /
   ``Infinity`` / ``null`` measurement anywhere (an absent or non-finite
   number means the benchmark silently failed mid-run);
2. **shape** -- the per-file required top-level sections are present, so a
   regenerated report cannot quietly drop the section an acceptance test
   reads;
3. **floors** -- the numeric floors the test suite asserts against these
   files (e.g. the eval-plan multiplication saving or the arena tracker
   speedup) hold in the checked-in numbers too, so a regeneration that
   regressed below an alarm floor fails here instead of at the next slow
   test run;
4. **scenarios** -- every solve-level report must carry the registry's
   per-scenario matrix (>= 4 named scenarios), each entry with the
   declared workload knobs, every identity verdict ``true`` (bit-for-bit
   contracts hold on every shape), and -- where the entry records both --
   the converged/solution count equal to the classically known root count;
5. **start savings** -- the start-strategy report must show the diagonal
   start never exceeding the Bezout bound, realising a *strict* path
   saving on at least one scenario (the triangular family), and the warm
   family serving beating the cold per-query floor by at least 2x;
6. **robustness** -- the shard report must carry the supervised runtime's
   fault matrix: every fault mode recovered (bit-for-bit identity or an
   explicitly recorded degradation), persistent workers beating the
   fresh-pool dispatch tax, and the persistent row beating single-process
   wall-clock wherever the recording hardware has parallel capacity
   (``cpus >= 2``; on a single schedulable CPU the dispatch win is the
   gate, since no pool can beat one process without a second core).

Exit status 0 means every report passed; failures are printed per file and
the exit status is 1, which is what lets the Makefile (and CI) gate on
benchmark health.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Required top-level sections per report (shape layer).
REQUIRED_KEYS = {
    "BENCH_batch_tracking.json": ("d", "dd", "qd", "scenarios"),
    "BENCH_escalation.json": ("rows", "saving_factor", "paths_total",
                              "paths_converged", "recovered_by_escalation",
                              "scenarios"),
    "BENCH_eval_plan.json": ("evaluation", "op_counts", "tracker",
                             "qd_tracker_wall_speedup", "arena",
                             "scenarios"),
    "BENCH_qd_arith.json": ("per_op", "small_batch", "tracker",
                            "baseline_qd_paths_per_s_wall",
                            "wall_speedup_vs_baseline_at_batch_64"),
    "BENCH_shard.json": ("rows", "ladder", "all_identical", "paths_total",
                         "scenarios", "robustness"),
    "BENCH_start.json": ("scenarios", "family_serving"),
}

#: Numeric floors the acceptance tests assert (floor layer): dotted path
#: into the report -> minimum value the checked-in number must reach.
FLOORS = {
    "BENCH_eval_plan.json": {
        "op_counts.multiplication_saving_factor": 1.5,
        "qd_tracker_wall_speedup": 1.15,
    },
    "BENCH_qd_arith.json": {
        "wall_speedup_vs_baseline_at_batch_64": 1.15,
    },
    "BENCH_escalation.json": {
        "arithmetic_saving_factor": 1.1,
        "warm_vs_cold.warm_restart_saving_factor": 1.0,
    },
    "BENCH_start.json": {
        "family_serving.warm_vs_cold_speedup": 2.0,
    },
}

#: Exact-value requirements (e.g. the shard crash drill must reproduce the
#: single-process solver bit for bit).
EXACT = {
    "BENCH_shard.json": {"all_identical": True},
    "BENCH_start.json": {"family_serving.identical": True},
}

#: Scenario layer: minimum number of named scenarios each solve-level
#: report must record.
MIN_SCENARIOS = 4

#: Knobs every scenario entry must declare, whatever the bench.
SCENARIO_COMMON_KEYS = ("family", "dimension", "bezout_number",
                        "known_root_count")

#: Per-file measurement keys each scenario entry must additionally carry.
SCENARIO_REQUIRED_KEYS = {
    "BENCH_batch_tracking.json": ("rows", "paths_total", "converged",
                                  "paths_per_second_win"),
    "BENCH_escalation.json": ("paths_total", "paths_converged",
                              "recovered_by_escalation"),
    "BENCH_eval_plan.json": ("multiplication_saving_factor",
                             "plan_walk_identical"),
    "BENCH_shard.json": ("solutions", "sharded_solutions", "identical"),
    "BENCH_start.json": ("total_degree_paths", "total_degree_wall_s",
                         "diagonal_paths", "diagonal_wall_s", "solutions",
                         "path_saving_factor", "identical"),
}

#: Identity verdicts: wherever a scenario entry records one of these keys
#: it must be ``true`` -- the bit-for-bit contracts hold on every shape.
SCENARIO_TRUE_KEYS = ("identical", "plan_walk_identical")

#: Per-scenario numeric floors.
SCENARIO_FLOORS = {
    "BENCH_eval_plan.json": {"multiplication_saving_factor": 1.0},
    "BENCH_batch_tracking.json": {"paths_per_second_win": 1.5},
    "BENCH_start.json": {"path_saving_factor": 1.0},
}

#: The key that must equal the scenario's classically known root count
#: (divergent-path families like noon make this a real check: the Bezout
#: number would be wrong).
SCENARIO_ROOT_COUNT_KEYS = {
    "BENCH_batch_tracking.json": "converged",
    "BENCH_escalation.json": "paths_converged",
    "BENCH_shard.json": "solutions",
    "BENCH_start.json": "solutions",
}


def _walk(value, path=""):
    """Yield ``(path, leaf)`` for every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _walk(item, f"{path}[{index}]")
    else:
        yield path, value


def _lookup(report, dotted: str):
    """Resolve a dotted path; returns ``(found, value)``."""
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def check_scenarios(name: str, report) -> list:
    """Run the scenario layer over one solve-level report."""
    errors = []
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict):
        return [f"{name}: 'scenarios' is not an object"]
    if len(scenarios) < MIN_SCENARIOS:
        errors.append(f"{name}: only {len(scenarios)} scenario(s) recorded, "
                      f"need >= {MIN_SCENARIOS}")
    required = SCENARIO_COMMON_KEYS + SCENARIO_REQUIRED_KEYS.get(name, ())
    floors = SCENARIO_FLOORS.get(name, {})
    root_key = SCENARIO_ROOT_COUNT_KEYS.get(name)
    for scenario_name, entry in scenarios.items():
        where = f"{name}: scenarios.{scenario_name}"
        if not isinstance(entry, dict):
            errors.append(f"{where} is not an object")
            continue
        for key in required:
            if key not in entry:
                errors.append(f"{where}.{key} missing")
        for key in SCENARIO_TRUE_KEYS:
            if key in entry and entry[key] is not True:
                errors.append(f"{where}.{key} = {entry[key]!r}, the "
                              "bit-for-bit contract is broken")
        for key, floor in floors.items():
            value = entry.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if value < floor:
                    errors.append(f"{where}.{key} = {value:.4g} below the "
                                  f"asserted floor {floor}")
        if root_key is not None and root_key in entry \
                and "known_root_count" in entry:
            if entry[root_key] != entry["known_root_count"]:
                errors.append(
                    f"{where}.{root_key} = {entry[root_key]!r}, expected "
                    f"the known root count {entry['known_root_count']!r}")
    return errors


def check_start_savings(name: str, report) -> list:
    """The start-savings layer over the start-strategy report: the
    diagonal start must never exceed the Bezout bound and must realise a
    strict saving somewhere (otherwise the strategy layer buys nothing)."""
    errors = []
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict):
        return []  # the scenario layer already reported this
    strict = False
    for scenario_name, entry in scenarios.items():
        if not isinstance(entry, dict):
            continue
        paths = entry.get("diagonal_paths")
        bezout = entry.get("bezout_number")
        if not isinstance(paths, int) or not isinstance(bezout, int):
            continue  # missing keys are the scenario layer's finding
        if paths > bezout:
            errors.append(
                f"{name}: scenarios.{scenario_name}.diagonal_paths = "
                f"{paths} exceeds the Bezout bound {bezout}")
        if paths < bezout:
            strict = True
    if scenarios and not strict:
        errors.append(
            f"{name}: no scenario shows diagonal_paths < bezout_number -- "
            "the diagonal start realises no strict path saving")
    return errors


#: The fault modes the robustness section must drill (kept in sync with
#: ``repro.service.sharded.FAULT_MODES`` -- the checker is deliberately
#: standalone, so the list is spelled out).
ROBUSTNESS_MODES = ("kill", "hang", "slow", "corrupt-checkpoint",
                    "store-io-error")

#: Floor on the persistent-vs-fresh-pool dispatch speedup: persistent
#: workers must at least recoup the fork + system-pickle + tracker
#: construction tax they exist to amortise.
ROBUSTNESS_DISPATCH_FLOOR = 1.1


def check_robustness(name: str, report) -> list:
    """The robustness layer over the shard report's fault matrix."""
    errors = []
    section = report.get("robustness")
    if not isinstance(section, dict):
        return [f"{name}: 'robustness' is not an object"]

    modes = section.get("modes")
    if not isinstance(modes, dict):
        errors.append(f"{name}: robustness.modes is not an object")
    else:
        for mode in ROBUSTNESS_MODES:
            entry = modes.get(mode)
            where = f"{name}: robustness.modes.{mode}"
            if not isinstance(entry, dict):
                errors.append(f"{where} missing")
                continue
            if entry.get("recovered") is not True:
                errors.append(f"{where}.recovered = "
                              f"{entry.get('recovered')!r}; the drill did "
                              "not end in recovery")
            if entry.get("identical") is not True \
                    and not entry.get("degradations"):
                errors.append(
                    f"{where}: neither bit-for-bit identical nor an "
                    "explicitly recorded degradation -- a silent wrong "
                    "answer")

    dispatch = section.get("dispatch")
    if not isinstance(dispatch, dict):
        errors.append(f"{name}: robustness.dispatch missing")
    else:
        speedup = dispatch.get("persistent_speedup_vs_fresh")
        if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
            errors.append(f"{name}: robustness.dispatch."
                          "persistent_speedup_vs_fresh is not a number")
        elif speedup < ROBUSTNESS_DISPATCH_FLOOR:
            errors.append(
                f"{name}: robustness.dispatch.persistent_speedup_vs_fresh "
                f"= {speedup:.4g} below the floor "
                f"{ROBUSTNESS_DISPATCH_FLOOR} -- persistent workers do "
                "not recoup the fresh-pool dispatch tax")

    row = section.get("persistent")
    if not isinstance(row, dict):
        errors.append(f"{name}: robustness.persistent row missing")
    else:
        for key in ("scenario", "workers", "single_wall_s",
                    "persistent_wall_s", "speedup_vs_single",
                    "beats_single", "identical"):
            if key not in row:
                errors.append(f"{name}: robustness.persistent.{key} missing")
        if isinstance(row.get("workers"), int) and row["workers"] < 2:
            errors.append(f"{name}: robustness.persistent.workers = "
                          f"{row['workers']}, need >= 2")
        if row.get("identical") is not True:
            errors.append(f"{name}: robustness.persistent.identical = "
                          f"{row.get('identical')!r}, the bit-for-bit "
                          "contract is broken")
        cpus = section.get("cpus")
        if row.get("beats_single") is not True and \
                not (isinstance(cpus, int) and cpus <= 1):
            errors.append(
                f"{name}: robustness.persistent.beats_single = "
                f"{row.get('beats_single')!r} with cpus = {cpus!r} -- on "
                "parallel hardware the persistent pool must beat "
                "single-process wall-clock")
    return errors


def check_report(path: Path) -> list:
    """Run all five layers over one report; return error strings."""
    name = path.name
    errors = []
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable or invalid JSON ({exc})"]
    if not report:
        return [f"{name}: empty report"]

    for leaf_path, leaf in _walk(report):
        if leaf is None:
            errors.append(f"{name}: {leaf_path} is null (absent measurement)")
        elif isinstance(leaf, float) and not math.isfinite(leaf):
            errors.append(f"{name}: {leaf_path} is {leaf!r} "
                          "(non-finite measurement)")

    for key in REQUIRED_KEYS.get(name, ()):
        if key not in report:
            errors.append(f"{name}: required section {key!r} missing")

    for dotted, floor in FLOORS.get(name, {}).items():
        found, value = _lookup(report, dotted)
        if not found:
            errors.append(f"{name}: asserted floor key {dotted!r} missing")
        elif not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            errors.append(f"{name}: {dotted} is {value!r}, not a finite "
                          "number")
        elif value < floor:
            errors.append(f"{name}: {dotted} = {value:.4g} below the "
                          f"asserted floor {floor}")

    for dotted, expected in EXACT.get(name, {}).items():
        found, value = _lookup(report, dotted)
        if not found:
            errors.append(f"{name}: required key {dotted!r} missing")
        elif value != expected:
            errors.append(f"{name}: {dotted} = {value!r}, expected "
                          f"{expected!r}")

    if name in SCENARIO_REQUIRED_KEYS and "scenarios" in report:
        errors.extend(check_scenarios(name, report))
    if name == "BENCH_start.json":
        errors.extend(check_start_savings(name, report))
    if name == "BENCH_shard.json" and "robustness" in report:
        errors.extend(check_robustness(name, report))
    return errors


def default_reports() -> list:
    return sorted(REPO_ROOT.glob("BENCH_*.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", type=Path,
                        help="benchmark reports to check "
                             "(default: BENCH_*.json at the repo root)")
    args = parser.parse_args(argv)

    reports = [p.resolve() for p in args.paths] or default_reports()
    if not reports:
        print("bench check FAILED: no BENCH_*.json reports found",
              file=sys.stderr)
        return 1
    failures = []
    for path in reports:
        print(f"checking {path.name}")
        failures.extend(check_report(path))

    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        print(f"bench check FAILED: {len(failures)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"bench check passed: {len(reports)} report(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
