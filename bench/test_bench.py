"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd, "bench", "run.py")), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def _worker(tmp_path, name, *extra):
    out = tmp_path / ("traced" if extra else "plain")
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", name,
         "--seed", "5", "--out", str(out), "--smoke", *extra],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, **run.BLAS_ENV))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    return out, json.loads(lines[-1])


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_prints_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "2", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert math.isfinite(result["metrics"][metric]["value"])
        row = next(line.split() for line in lines if line.split()[:1] == [metric])
        assert row[2] == unit and int(row[3]) >= 1       # unit and sample count
    if trace == "0":
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["err_final"]["value"] > 0


def test_gate_rejects_wrong_exact_target(tmp_path):
    w = workloads.get("torus-converge", smoke=True)
    out, _ = _worker(tmp_path, w.name)
    text = (out / "converge.csv").read_text()
    assert workloads.check_converge(w, text, workloads.gauss_bonnet(0))[0] == []
    assert workloads.check_converge(w, text, workloads.gauss_bonnet(2))[0]
    assert workloads.check_converge(w, text, 1e-3)[0]


def test_gate_rejects_wrong_target_on_degree_sweep(tmp_path):
    w = workloads.get("runge-sweep", smoke=True)
    out, _ = _worker(tmp_path, w.name)
    text = (out / "runge.csv").read_text()
    assert workloads.check_runge(w, text, workloads.gauss_bonnet(0))[0] == []
    assert workloads.check_runge(w, text, 1e-3)[0]


def test_gate_rejects_wrong_surface_and_topology(tmp_path):
    w = workloads.get("ellipsoid-export", smoke=True)
    out, result = _worker(tmp_path, w.name)
    params = workloads.surface_params(w.surface, 5)
    csv = str(out / "nodes.csv")
    assert workloads.check_export(w, result["audit"], csv, params)[0] == []
    assert workloads.check_export(w, result["audit"], csv, params, chi_target=0)[0]
    wrong = dict(params, c=params["c"] * (1 + 1e-9))
    assert workloads.check_export(w, result["audit"], csv, wrong)[0]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_replay_reproduces_untraced_outputs(tmp_path, name):
    _, plain = _worker(tmp_path, name)
    _, traced = _worker(tmp_path, name, "--trace", str(tmp_path / "spans.json"))
    assert plain["ok"] and traced["ok"], (plain["problems"], traced["problems"])
    assert traced["digests"] == plain["digests"]
    assert traced["audit"] == plain["audit"]
    assert traced["err_final"] == plain["err_final"]
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {"setup", "run", "cli"} <= {s["name"] for s in spans}


def test_seed_zero_is_nominal_and_seeds_repeat():
    assert workloads.surface_params("torus", 0) == {"R": 2.0, "r": 1.0}
    assert workloads.surface_params("ellipsoid", 0) == {"a": 1.0, "b": 1.0, "c": 0.6}
    for seed in (1, 7, 12345):
        p = workloads.surface_params("ellipsoid", seed)
        assert p == workloads.surface_params("ellipsoid", seed)
        for key, nominal in workloads.NOMINAL["ellipsoid"].items():
            assert p[key] != nominal
            assert abs(p[key] / nominal - 1) <= workloads.PERTURBATION


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "runge-sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
