"""Smoke test of the benchmark on its micro workload (TR(a, 2a), a = 1..2).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "micro", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_named_with_its_unit(trace, section):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1  # failed_frac = 0
    want = {m["name"]: m["unit"] for m in bench_spec()[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_no_sources_means_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
