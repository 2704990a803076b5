"""Golden outputs: CLI artifacts for fixed seeds, compared with committed fixtures.

Each case runs one ``fishyvar`` command in-process and compares every artifact
it writes with the file of the same name under ``tests/golden/<case>/``.
Integers (replicate indices, meeting times, lags, costs, burn-in) and strings
must match exactly.  A float must agree with its fixture within 1e-9 of the
largest magnitude in its CSV column or JSON field, so summation-order changes
pass while a moved random draw, which shifts values by the column's own
scale, fails.

Regenerate fixtures, after a change that moves draws on purpose, with::

    PYTHONPATH=src python tests/test_golden.py [case ...]

Only the named cases are rewritten, so a case whose draws did not move keeps
its fixture bytes; with no names, every case is rewritten.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from fishyvar.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9

CHAIN_CSV = "to_0,to_1,to_2,to_3\n0.1,0.4,0.3,0.2\n0.3,0.2,0.2,0.3\n0.25,0.25,0.4,0.1\n0.5,0.1,0.1,0.3\n"

AR1 = ["--model", "ar1", "--phi", "0.9"]
FINITE = ["--model", "finite", "--transition-csv", "{chain}"]

CASES = {
    "meetings": ["meetings", *AR1, "--lag", "1", "--reps", "200", "--seed", "11"],
    "fishy": ["fishy", *AR1, "--grid", "-2", "0", "2", "--y", "0", "--reps", "20", "--seed", "12"],
    "umcmc_ar1": [
        "umcmc", *AR1, "--k", "20", "--L", "10", "--ell", "100", "--reps", "40", "--seed", "13",
    ],
    "umcmc_finite": [
        "umcmc", *FINITE, "--k", "3", "--L", "2", "--ell", "15", "--reps", "300", "--seed", "14",
    ],
    "suave_uniform_ar1": [
        "suave", *AR1, "--k", "20", "--L", "10", "--ell", "100", "--R", "5", "--y", "0",
        "--reps", "20", "--seed", "15",
    ],
    "suave_uniform_finite_k0": [
        "suave", *FINITE, "--k", "0", "--L", "2", "--ell", "10", "--R", "2", "--y", "0",
        "--reps", "200", "--seed", "19",
    ],
    "suave_optimal_cauchy": [
        "suave", "--model", "cauchy-gibbs", "--k", "5", "--L", "5", "--ell", "25", "--R", "5",
        "--y", "0", "--xi", "optimal", "--grid", "-16", "-8", "0", "8", "16", "24",
        "--reps", "20", "--seed", "16",
    ],
    "suave_identity_and_square": [
        "suave", *AR1, "--test-function", "identity-and-square", "--k", "20", "--L", "10",
        "--ell", "100", "--R", "5", "--y", "0", "--reps", "20", "--seed", "17",
    ],
    "epave": [
        "epave", *AR1, "--t-steps", "200", "--thin", "10", "--y", "0", "--reps", "10",
        "--seed", "18",
    ],
    "oracle": ["oracle", *FINITE],
    "theory_check_ar1": [
        "theory-check", "--model", "ar1", "--phi", "0.5", "--n-max", "20", "--reps", "200",
        "--seed", "20",
    ],
    "meetings_cauchy_mrth": [
        "meetings", "--model", "cauchy-mrth", "--lag", "1", "--reps", "100", "--seed", "21",
    ],
    "umcmc_finite_crn": [
        "umcmc", *FINITE, "--coupling", "common-random-numbers", "--k", "3", "--L", "2",
        "--ell", "15", "--reps", "100", "--seed", "22",
    ],
}


def run_case(name: str, work_dir: Path, out_dir: Path) -> None:
    """Run one case's command, writing its artifacts into ``out_dir``."""
    chain = work_dir / "chain.csv"
    chain.write_text(CHAIN_CSV)
    argv = [arg.format(chain=chain) for arg in CASES[name]] + ["--out", str(out_dir)]
    assert main(argv) == 0


def _is_int_literal(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _scale(values) -> float:
    """Largest finite float magnitude in a column or field, nested lists included."""
    magnitudes = [
        _scale(v) if isinstance(v, list) else abs(v)
        for v in values
        if isinstance(v, list) or isinstance(v, float) and math.isfinite(v)
    ]
    return max(magnitudes, default=0.0)


def _close(expected, actual, scale: float, where: str) -> None:
    if isinstance(expected, float) and not isinstance(actual, bool):
        assert isinstance(actual, (int, float)), f"{where}: {actual!r} is not a number"
        if math.isnan(expected):
            assert math.isnan(actual), f"{where}: expected nan, got {actual!r}"
            return
        assert abs(actual - expected) <= REL_TOL * scale or actual == expected, (
            f"{where}: {actual!r} differs from {expected!r} by more than {REL_TOL} x {scale!r}"
        )
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


def compare_json(expected, actual, where: str, scale: float | None = None) -> None:
    """Compare JSON payloads; a field's floats scale by that field's largest magnitude."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), f"{where}: keys differ"
        for key in expected:
            compare_json(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), f"{where}: length"
        field_scale = _scale(expected) if scale is None else scale
        for i, (e, a) in enumerate(zip(expected, actual)):
            compare_json(e, a, f"{where}[{i}]", field_scale)
    else:
        _close(expected, actual, _scale([expected]) if scale is None else scale, where)


def compare_csv(expected_path: Path, actual_path: Path) -> None:
    """Compare CSV tables column by column; integer cells must match exactly."""
    with open(expected_path, newline="") as fh:
        expected = list(csv.reader(fh))
    with open(actual_path, newline="") as fh:
        actual = list(csv.reader(fh))
    assert actual[0] == expected[0], f"{actual_path.name}: header differs"
    assert len(actual) == len(expected), f"{actual_path.name}: row count differs"
    for col, name in enumerate(expected[0]):
        cells = [row[col] for row in expected[1:]]
        got = [row[col] for row in actual[1:]]
        if all(_is_int_literal(c) for c in cells):
            assert got == cells, f"{actual_path.name}:{name}: integer column differs"
            continue
        values = [float(c) for c in cells]
        scale = _scale(values)
        for row, (e, a) in enumerate(zip(values, got), start=1):
            _close(e, float(a), scale, f"{actual_path.name}:{name}[{row}]")


def test_matrix_fields_scale_by_their_largest_entry():
    # a d x d matrix (the oracle's g_star and v) is one field, as a flat list is
    expected = {"v": [[2.0, -0.5], [-0.5, 1.0]]}
    compare_json(expected, {"v": [[2.0 + 1e-15, -0.5], [-0.5, 1.0 - 1e-15]]}, "v.json")
    with pytest.raises(AssertionError, match="differs"):
        compare_json(expected, {"v": [[2.0, -0.5], [-0.5, 1.0 + 1e-6]]}, "v.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifacts_match_golden(name, tmp_path, capsys):
    out = tmp_path / "out"
    run_case(name, tmp_path, out)
    capsys.readouterr()
    fixture_dir = GOLDEN_DIR / name
    expected_files = sorted(p.name for p in fixture_dir.iterdir())
    assert expected_files, f"no fixtures for {name}"
    assert sorted(p.name for p in out.iterdir()) == expected_files
    for file_name in expected_files:
        if file_name.endswith(".csv"):
            compare_csv(fixture_dir / file_name, out / file_name)
        else:
            expected = json.loads((fixture_dir / file_name).read_text())
            actual = json.loads((out / file_name).read_text())
            compare_json(expected, actual, file_name)


def write_fixtures(names: list[str]) -> None:
    """Rewrite the named cases' fixtures (every case if none is named) from the current code."""
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden cases {unknown}; known: {sorted(CASES)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(names or CASES):
            target = GOLDEN_DIR / name
            shutil.rmtree(target, ignore_errors=True)
            run_case(name, Path(tmp), target)


if __name__ == "__main__":
    write_fixtures(sys.argv[1:])
    sys.exit(0)
