"""Checks of the repository benchmark itself.

The traced-run test is marked slow (two traced runs per workload); run it
with ``python -m pytest perfbench -m "slow or not slow"``.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_metrics",
                                               HERE / "metrics.py")
metrics = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(metrics)

#: Counts the traced run must repeat exactly for one seed.
REPEATABLE_COUNTS = (
    "tracking.batch_tracker.rounds",
    "tracking.batch_tracker.lane_evals",
    "tracking.newton.iterations",
    "multiprec.backend.calls",
    "service.store.puts",
    "tracking.escalation.escalated_paths",
)


def _triples(entries):
    return [(e["name"], e["unit"], e["better"]) if isinstance(e, dict)
            else (e.name, e.unit, e.better) for e in entries]


def test_benchmark_json_lists_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _triples(spec["end_to_end"]) == _triples(metrics.END_TO_END)
    assert _triples(spec["per_layer"]) == _triples(metrics.PER_LAYER)
    assert all(entry.moves for entry in metrics.PER_LAYER)


def _traced_run(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["d-registry", "xprec-fixed",
                                      "escalate-divergent", "service-pool"])
def test_traced_counts_repeat_for_one_seed(workload):
    first = _traced_run(workload, seed=7)
    second = _traced_run(workload, seed=7)
    assert first["correct"] and second["correct"]
    for name in REPEATABLE_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
