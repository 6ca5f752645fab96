"""Checks on the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Two runs with the same seed must print the same determinism digest, the
traced decomposition must reproduce the dispatcher's outcomes, and the metric
tables in worker.py must match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

import pytest

from worker import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, trace: int = 0) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.strip().startswith("digest "))
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["find-small", "find-large", "ramsey"])
def test_same_seed_prints_same_digest(workload):
    first, result = _run(workload, 5)
    second, _ = _run(workload, 5)
    assert first == second
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == set(END_TO_END)


def test_traced_run_reproduces_the_dispatcher():
    plain, _ = _run("find-small", 6)
    traced, result = _run("find-small", 6, trace=1)
    assert traced == plain
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["find-large", "ramsey"]
