"""Tests of the benchmark itself: ``python3 -m pytest bench``.

Smoke runs of every workload at tiny size through the command line, the
transparency of the tracing wrappers, and the self-time arithmetic.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_checked_result(name, trace):
    proc = _run_cli(
        ROOT, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert result["metrics"] == {
        metric: {"value": result["metrics"][metric]["value"], "unit": unit}
        for metric, unit in units.items()
    }
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        for metric, unit in units.items():
            assert f"{metric} " in proc.stdout and f" {unit}\n" in proc.stdout


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(tmp_path, "--workload", "ar1-suave", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _bindings(fv):
    return {
        (module.__name__, attr): value
        for module in tr._library_modules(fv)
        for attr, value in vars(module).items()
        if callable(value)
    } | {
        ("UniformReservoir", "offer"): fv.umcmc.UniformReservoir.__dict__["offer"],
        ("RngStream", "generator"): fv.RngStream.__dict__["generator"],
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_result_and_restores_bindings(name):
    fv = workloads.import_fishyvar(ROOT)
    workload = workloads.WORKLOADS[name]
    size = workload.sizes["tiny"]
    n_workers = 2 if workload.pool_check else 1
    targets = workload.setup(fv, 11, size)
    plain = run.run_pass(fv, workload, targets, 11, size, n_workers)
    before = _bindings(fv)

    tracer = tr.Tracer()
    with tr.installed(tracer, fv):
        traced = run.run_pass(fv, workload, tr.traced_targets(tracer, fv, targets), 11, size, n_workers)

    assert plain.digest is not None and traced.digest == plain.digest
    assert all(call[1] for call in plain.calls + traced.calls)
    assert _bindings(fv) == before
    totals = tracer.totals()
    for span in ("rng.generator", "couplings.coupled_step", "chains.h", "simulate.run_coupled"):
        assert totals[span][0] > 0
    if name == "cauchy-optimal":
        assert totals["couplings.maximal_coupling"][0] > 0
        assert totals["umcmc.signed_measure"][0] > 0
        assert "umcmc.reservoir_offer" not in totals
    else:
        assert totals["umcmc.reservoir_offer"][0] > 0


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = tr.Tracer(clock=lambda: next(ticks))
    root = tracer.push("root")  # 0 .. 10
    a = tracer.push("a")  # 1 .. 4
    tracer.pop(a)
    b = tracer.push("b")  # 5 .. 9
    c = tracer.push("c")  # 6 .. 7
    tracer.pop(c)
    tracer.pop(b)
    tracer.pop(root)

    totals = tracer.totals()
    assert totals["root"] == (1, 10.0, 3.0)  # 10 - 3 (a) - 4 (b)
    assert totals["a"] == (1, 3.0, 3.0)
    assert totals["b"] == (1, 4.0, 3.0)  # 4 - 1 (c)
    assert totals["c"] == (1, 1.0, 1.0)
    parents = {span[0]: span[2] for span in tracer.spans()}
    assert parents == {"root": None, "a": root.id, "b": root.id, "c": b.id}


def test_overlapping_children_cover_their_union():
    assert tr.covered([]) == 0.0
    assert tr.covered([(2.0, 6.0), (0.0, 4.0), (8.0, 9.0), (8.5, 8.7)]) == 7.0

    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    tracer = tr.Tracer(clock=lambda: next(ticks))
    fanout = tracer.push("fanout")  # 0 .. 10
    first = tracer.push("replicate", parent=fanout.id, new_replicate=True)  # 1 .. 6
    second = tracer.push("replicate", parent=fanout.id, new_replicate=True)  # 2 .. 5
    end_second = tracer.pop(second)
    end_first = tracer.pop(first)
    tracer.pop(fanout, cover=tr.covered([(1.0, end_first), (2.0, end_second)]))
    totals = tracer.totals()
    assert totals["fanout"] == (1, 10.0, 5.0)  # 10 - |[1, 6]|
    replicates = sorted(span[3] for span in tracer.spans() if span[0] == "replicate")
    assert replicates == [0, 1]


def test_setup_terms_split_the_build_from_the_oracle_solve():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 8.0, 10.0])
    tracer = tr.Tracer(clock=lambda: next(ticks))
    setup = tracer.push("setup")  # 0 .. 10
    solve = tracer.push("oracle.solve_finite")  # 2 .. 5
    tracer.pop(solve)
    build = tracer.push("config.build_bundle")  # 6 .. 8
    tracer.pop(build)
    tracer.pop(setup)
    assert tr.setup_metrics(tracer) == {"oracle.solve_s": 3.0, "config.build_s": 7.0}


def test_a_failed_check_marks_the_first_call_of_a_split_phase():
    calls = [["sample_suave#0", True, ""], ["sample_suave#1", True, ""], ["inefficiency", True, ""]]
    workloads.fail_call(calls, "sample_suave", "biased")
    assert calls == [
        ["sample_suave#0", False, "biased"],
        ["sample_suave#1", True, ""],
        ["inefficiency", True, ""],
    ]
