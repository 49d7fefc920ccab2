"""The scripts under scripts/ run end to end and print their rows."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> list[str]:
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def assert_blas_threads_recorded(report: dict):
    # every sweep records the three BLAS thread variables as it found them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert report["environment"][var] == os.environ.get(var), var


def test_run_worked_example_prints_comparison_and_ledger():
    lines = run_script("run_worked_example.py")
    assert lines[0] == "step 1"
    assert lines[1].startswith("  x_hat quantum ")
    assert lines[2].startswith("  x_hat classical ")
    assert "degree 57" in lines[6] and "Newton steps" in lines[6]
    labels = [line.split()[1] for line in lines[7:]]
    assert labels[0] == "alpha_31" and labels[-1] == "alpha_P"
    assert len(labels) == 17


def test_shot_noise_ladder_climbs_the_shot_ladder():
    lines = run_script("shot_noise_ladder.py")
    assert lines[0].startswith("exact x_hat: ")
    assert lines[1].split() == ["total", "shots", "RMS", "error", "RMS", "x",
                                "sqrt(shots)"]
    rows = np.array([[float(v) for v in line.split()] for line in lines[2:]])
    np.testing.assert_array_equal(rows[:, 0], 16384 * 10 ** np.arange(4))
    assert np.all(np.diff(rows[:, 1]) < 0)  # error falls with more shots
    scaled = rows[:, 2]
    assert scaled.max() < 3 * scaled.min()  # 1/sqrt(shots) scaling


def test_phase_solver_sweep_writes_a_row_per_point(tmp_path):
    out = tmp_path / "BENCH_phase_solver.json"
    lines = run_script("phase_solver_sweep.py", "--out", str(out))
    assert lines[-1].endswith(str(out))
    report = json.loads(out.read_text())
    assert_blas_threads_recorded(report)
    rows = report["rows"]
    assert [(r["kappa"], r["eps_prime"]) for r in rows] == [
        (k, e) for k in (1.5, 2.0, 3.5, 5.0, 8.0, 12.0, 14.3, 20.0)
        for e in (1e-2, 1e-3)]
    # kappa 20 at eps' 1e-3 needs degree 515, above the default cap 501
    failed = [(r["kappa"], r["eps_prime"]) for r in rows if "error" in r]
    assert failed == [(20.0, 1e-3)]
    for r in rows:
        if "error" not in r:
            assert r["iterations"] <= 20
            assert r["iterations"] <= 10  # the arccos finish at the peak node
            assert r["residual"] <= 1e-6
            assert 0 <= r["kernel_ms"] + r["solve_ms"] <= r["total_ms"]
            assert r["build_ms"] > 0
    assert report["summary"]["build_ms"] == pytest.approx(
        sum(r["build_ms"] for r in rows if "error" not in r))


def test_sampling_sweep_writes_a_row_per_point(tmp_path):
    out = tmp_path / "BENCH_sampling.json"
    lines = run_script("sampling_sweep.py", "--out", str(out))
    assert lines[-1].endswith(str(out))
    report = json.loads(out.read_text())
    assert_blas_threads_recorded(report)
    rows = report["rows"]
    assert [(r["outcomes"], r["iterations"]) for r in rows] == [
        (o, i) for o in (3, 5) for i in (1, 10, 100, 1000)]
    for r in rows:
        assert r["within_6_sigma"]
        assert r["pooled_ms"] > 0 and r["reference_ms"] > 0


def test_transform_sweep_writes_a_row_per_point(tmp_path):
    out = tmp_path / "BENCH_transform.json"
    lines = run_script("transform_sweep.py", "--out", str(out))
    assert lines[-1].endswith(str(out))
    report = json.loads(out.read_text())
    assert_blas_threads_recorded(report)
    rows = report["rows"]
    assert [(r["system_qubits"], r["kappa"], r["eps_prime"]) for r in rows] == [
        (s, k, 0.01) for s in (1, 2, 3) for k in (3.0, 6.0, 12.0)]
    assert [r["degree"] for r in rows[:3]] == [47, 105, 231]
    for r in rows:
        assert r["max_abs_diff"] <= 1e-12
        assert r["unitarity_residual"] <= 1e-12
        assert r["tree_ms"] > 0 and 0 < r["dense_ms"]


def test_encoding_sweep_writes_a_row_per_point(tmp_path):
    out = tmp_path / "BENCH_encoding.json"
    lines = run_script("encoding_sweep.py", "--out", str(out))
    assert lines[-1].endswith(str(out))
    report = json.loads(out.read_text())
    assert_blas_threads_recorded(report)
    encodings = report["encodings"]
    assert [r["system_qubits"] for r in encodings] == [1, 2, 3, 4, 5]
    for r in encodings:
        s = r["system_qubits"]
        assert r["leaf_qubits"] == 2 * s
        assert r["leaf_bytes"] == 16 * 2 ** (4 * s)
        assert r["unitarity_residual"] <= 1e-14
        assert r["max_abs_decode_error"] <= 1e-12
        assert r["encode_ms"] > 0
    steps = report["steps"]
    assert [(r["states"], r["degree"]) for r in steps] == [(16, 119), (32, 177)]
    for r in steps:
        assert r["x_hat_error"] <= r["x_hat_eps"]
        assert r["step_s"] > 0 and r["peak_rss_mb"] > 0
