"""Smoke test of the benchmark harness at toy sizes.

Runs every workload's timed and traced paths on a handful of tiny
invocations, checks that the oracle passes them and rejects a corrupted
report, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads
from spawn import Spawner, child_env


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_toy_timed_run_passes_the_oracle(name, at_root):
    checker, metrics, info = run.timed_run(name, seed=3, seconds=0, toy=True)
    assert checker.errors == []
    assert checker.failed == 0 and checker.attempted > info["timed_invocations"] > 0
    for metric in run._declared_metrics()["end_to_end"]:
        assert metrics[metric] > 0, metric


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_toy_traced_run_counts_every_layer(name, at_root):
    checker, metrics, _ = run.traced_run(name, seed=3, seconds=0, toy=True)
    assert checker.errors == []
    assert set(run._declared_metrics()["per_layer"]) <= set(metrics)
    assert metrics["cli.main.calls"] > 0
    if name == "mixed_audits":
        assert metrics["linalg.DensityOperator.validate_psd.calls"] > 0
    if name == "sampling":
        assert metrics["measurement.records_built"] == 4000


def test_tracer_restores_the_program(at_root):
    import entroscope.entropy as entropy
    from tracer import Tracer

    original = entropy.hermitian_eigenvalues
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missed() == []
        assert entropy.hermitian_eigenvalues is not original
    finally:
        tracer.uninstall()
    assert entropy.hermitian_eigenvalues is original


def test_oracle_rejects_a_corrupted_report(at_root, tmp_path):
    wl = workloads.build("pure_diagrams", 3, str(tmp_path), toy=True)
    wl.write_inputs()
    inv = wl.invocations[0]
    with Spawner(child_env(run.SRC), tmp_path) as spawner:
        good = spawner.cli(inv.argv).stdout
        table = spawner.cli(("scenario", "epr_pair", "--format", "table")).stdout
    assert oracle.check(inv.spec, good) == []
    doc = json.loads(good)
    key = next(iter(doc["diagram"]["atoms"]))
    doc["diagram"]["atoms"][key] += 1e-6
    assert oracle.check(inv.spec, json.dumps(doc))
    spec = {"kind": "epr_pair", "format": "table"}
    assert oracle.check(spec, table) == []
    assert oracle.check(spec, table.replace("-1.000000000", "-0.999999000", 1))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scenario_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
