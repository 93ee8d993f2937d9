"""Smoke check of the benchmark on tiny inputs (ba:64:3:3, grid:6:6).

Runs every workload once traced, checks that it emits every metric named in
BENCHMARK.json with its unit and that every output passes its checks, and
that the benchmark refuses to run without the program's sources.  No
assertion depends on how long anything takes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_match_the_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, tmp_path):
    run = bench.measure(workload, seed=1, seconds=0.01, trace=True, workdir=tmp_path,
                        tiny=True, setup_repeats=1)
    res = run["result"]
    assert res["correct"] and res["failed"] == 0, run["details"]["problems"]
    assert res["attempted"] == 2 * len(bench.WORKLOADS[workload])
    layer = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == bench.PER_LAYER
    assert set(run["details"]["end_to_end"]) == set(bench.END_TO_END)
    assert all(v > 0 for v in run["details"]["end_to_end"].values())
    routed = layer["routing.route_all_pairs.calls"]
    if workload == "sweep-bottleneck":
        assert routed > 0 and layer["routing.pairs_routed"] > 0
        assert layer["engine.sweep.calls"] == 3 and layer["engine.samples"] > 3
    else:
        assert routed == 0
    if workload == "diagnostics":
        assert layer["engine.sweep.calls"] == 0 and layer["spectral.eigenvalues.s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "diagnostics",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
