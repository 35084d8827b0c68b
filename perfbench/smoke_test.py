"""Smoke test of the benchmark itself, on tiny variants of every workload.

    python3 -m pytest -q perfbench/smoke_test.py

It checks that every metric named in BENCHMARK.json is printed with its unit,
that the tracer's wrappers leave the ``eapr`` module attributes as they found
them, that an injected failure is counted instead of crashing the harness,
and that the command refuses to run without the program's source.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from tracer import Tracer, binding_snapshot  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, info = run.Run(workload, seed=5, seconds=0.0, tiny=True).execute(bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]
    assert info["inputs"]["csv_sha256"] and info["report_sha256"]
    assert info["src_lines"] > 0 and info["nproc"] >= 1


def test_generators_are_pure_functions_of_the_seed():
    for gen in (
        workloads.ga_search,
        workloads.sparse_portfolio,
    ):
        assert gen(3, tiny=True).digests() == gen(3, tiny=True).digests()
        assert gen(3, tiny=True).csv != gen(4, tiny=True).csv


def test_tracer_wraps_every_binding_and_restores_it():
    from eapr import classify, cli, selection

    before = binding_snapshot()
    original = classify.train_svm
    tracer = Tracer()
    tracer.install()
    try:
        assert classify.train_svm is not original
        assert selection.train_svm is classify.train_svm
        assert cli._STAGE_FNS["plot"] is cli.stage_plot
        assert cli.stage_plot is not before[("eapr.cli", "stage_plot", "")]
    finally:
        tracer.uninstall()
    after = binding_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_missing_input_counts_as_failed_instead_of_crashing():
    bench = run.Run("ga-search", seed=5, seconds=0.0, tiny=True)
    setup = bench.setup

    def setup_then_lose_input():
        setup()
        bench.input_path.unlink()

    bench.setup = setup_then_lose_input
    result, info = bench.execute(False)
    assert not result["correct"]
    assert result["failed"] >= 1 and info["failed_ratio"] > 0.0
    assert any("E_IO" in f for f in info["failures"])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
