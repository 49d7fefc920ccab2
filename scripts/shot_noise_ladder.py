#!/usr/bin/env python3
"""Shot-noise scaling demo: RMS readout error across a shot ladder.

Runs the first step of the bundled example with exact readout for the
reference estimate, then repeats it with sampled readout at increasing
total shot counts and prints RMS error of x_hat times sqrt(shots), which
should sit in a narrow band if the error scales as 1/sqrt(shots).
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qkalman.cli import parse_config  # noqa: E402
from qkalman.kalman import q_filter_run  # noqa: E402

SHOTS = 16384
REPEATS = 8


def main() -> int:
    config_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "worked_example.yaml"
    config = parse_config(config_path.read_text())

    def final_x_hat(readout_mode, **sampling):
        trajectory, _ = q_filter_run(
            config.model, config.init, config.controls, config.measurements, 1,
            readout_mode, kappa_policy=config.kappa_policy,
            eps_prime=config.eps_prime, **sampling)
        return trajectory[-1].x_hat

    exact = final_x_hat("exact")
    print(f"exact x_hat: {np.array2string(exact, precision=6)}")
    print(f"{'total shots':>12}  {'RMS error':>10}  {'RMS x sqrt(shots)':>18}")
    for iterations in (1, 10, 100, 1000):
        errs = [final_x_hat("sampled", shots=SHOTS, iterations=iterations,
                            seed=1000 * iterations + rep) - exact
                for rep in range(REPEATS)]
        rms = float(np.sqrt(np.mean(np.square(errs))))
        total = SHOTS * iterations
        print(f"{total:>12}  {rms:>10.5f}  {rms * np.sqrt(total):>18.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
