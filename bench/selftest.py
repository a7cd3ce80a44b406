"""Self-tests of the curvlens benchmark, at tiny sizes.

    python3 -m pytest bench/selftest.py

Run from the root of a checkout.  They check that a smoke run emits every
metric of BENCHMARK.json with its unit, that every traced layer is reached by
some workload, that a deliberately corrupted output raises the error rate,
and that the benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Event counts that read 0 whenever the program behaves: no run breaks down, clamps or fails.
ZERO_WHEN_HEALTHY = {"lanczos.run.breakdowns", "optim.refresh.clamps", "error_rate"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--seed", "3",
                           "--seconds", "1", "--smoke", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    cache = {}

    def run(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = result(bench("--workload", workload, "--trace", str(trace)))
        return cache[workload, trace]

    return run


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(smoke, workload, trace):
    res = smoke(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_every_layer_metric_is_reached_by_some_workload(smoke):
    reached = {name for workload in WORKLOADS
               for name, m in smoke(workload, 1)["metrics"].items() if m["value"] != 0}
    assert {m["name"] for m in SPEC["per_layer"]} - ZERO_WHEN_HEALTHY - reached == set()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_raises_error_rate(workload, trace):
    res = result(bench("--workload", workload, "--trace", str(trace), "--corrupt"))
    assert not res["correct"]
    assert res["failed"] > 0
    if trace:
        assert res["metrics"]["error_rate"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
