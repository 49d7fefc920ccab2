"""The scripts under scripts/ run end to end and print their rows."""

import pathlib
import subprocess
import sys

import numpy as np

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str) -> list[str]:
    done = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


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
