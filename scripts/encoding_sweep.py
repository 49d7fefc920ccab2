#!/usr/bin/env python3
"""Data-structure encoding per size, and one exact filter step at 16 and 32 states.

    python scripts/encoding_sweep.py [--out BENCH_encoding.json]

Encoding rows, for s = 1..5 system qubits: `kalman.encode_matrix` of a
random real 2^s x 2^s matrix, timed REPEATS times (median ms). Each row
records the leaf's qubits and bytes (the encoding is one dense leaf on
2s qubits), its `unitarity_residual` and the max |decode - M|.

Step rows, for n = 16 and 32 states: one exact `q_filter_run` step of
the reference-sweep model, each in a fresh process, so the recorded
peak RSS is that step's own (imports included):

* A = 0.9 (random orthogonal), B = H = I, Q = 0.1 I, P0 = 0.2 I;
* R chosen so that the innovation covariance S = A P0 A^T + Q + R has
  spectrum linspace(2, 1, n) in a random basis, so cond(S) = 2;
* x0, the control and the measurement standard normal;
* Philox seed 61, margin kappa (x1.1), eps' = 0.01.

Each step row records the wall time of the step, the degree, the
inf-norm error of x_hat against the classical step next to the
ledger's eps on it, and the process's peak RSS. The BLAS thread
variables are recorded as found: set them on the command line to
compare thread counts, e.g.

    OPENBLAS_NUM_THREADS=1 python scripts/encoding_sweep.py --out e1.json
"""

import argparse
import json
import multiprocessing
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

from bench_env import environment

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qkalman.block_encoding import decode  # noqa: E402
from qkalman.kalman import (  # noqa: E402
    FilterState,
    KalmanModel,
    KappaPolicy,
    classical_step,
    encode_matrix,
    q_filter_run,
)
from qkalman.tensor_ops import unitarity_residual  # noqa: E402

SYSTEM_QUBITS = (1, 2, 3, 4, 5)
STEP_STATES = (16, 32)
REPEATS = 21
SEED = 61


def rand_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def encoding_row(s: int) -> dict:
    rng = np.random.Generator(np.random.Philox(SEED + s))
    m = rng.standard_normal((2**s, 2**s))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        be = encode_matrix(m, s)
        times.append(time.perf_counter() - t0)
    return {
        "system_qubits": s,
        "encode_ms": 1e3 * statistics.median(times),
        "leaf_qubits": be.op.nqubits,
        "leaf_bytes": be.op.matrix.nbytes,
        "unitarity_residual": unitarity_residual(be.op),
        "max_abs_decode_error": float(np.max(np.abs(decode(be) - m))),
    }


def step_row(n: int) -> dict:
    """One exact reference-sweep step on n states; runs in its own process."""
    rng = np.random.Generator(np.random.Philox(SEED))
    eye = np.eye(n)
    A = 0.9 * rand_orthogonal(rng, n)
    P0 = 0.2 * eye
    Q = 0.1 * eye
    rot = rand_orthogonal(rng, n)
    S = (rot * np.linspace(2.0, 1.0, n)) @ rot.T
    R = S - (A @ P0 @ A.T + Q)
    R = 0.5 * (R + R.T)
    model = KalmanModel(A, eye, eye, Q, R)
    init = FilterState(rng.standard_normal(n), P0)
    u, z = rng.standard_normal((1, n)), rng.standard_normal((1, n))
    t0 = time.perf_counter()
    traj, ledger = q_filter_run(model, init, u, z, 1,
                                kappa_policy=KappaPolicy.margin(1.1))
    step_s = time.perf_counter() - t0
    want = classical_step(model, init, u[0], z[0])
    return {
        "states": n,
        "step_s": step_s,
        "degree": ledger.qsvt_info[1]["degree"],
        "x_hat_error": float(np.max(np.abs(traj[1].x_hat - want.x_hat))),
        "x_hat_eps": ledger.find("alpha_x_hat", 1).eps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fresh_process_step(n: int) -> dict:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(step_row, (n,))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "BENCH_encoding.json")
    args = parser.parse_args()

    encodings = [encoding_row(s) for s in SYSTEM_QUBITS]
    steps = [fresh_process_step(n) for n in STEP_STATES]
    report = {
        "environment": environment(),
        "repeats": REPEATS,
        "encodings": encodings,
        "steps": steps,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'s':>2} {'encode ms':>10} {'qubits':>6} {'leaf MB':>8} "
          f"{'unitarity':>9} {'decode err':>10}")
    for r in encodings:
        print(f"{r['system_qubits']:>2} {r['encode_ms']:>10.3f} "
              f"{r['leaf_qubits']:>6} {r['leaf_bytes'] / 2**20:>8.3f} "
              f"{r['unitarity_residual']:>9.1e} {r['max_abs_decode_error']:>10.1e}")
    print(f"{'n':>2} {'step s':>7} {'degree':>6} {'x_hat err':>9} {'eps':>7} "
          f"{'RSS MB':>7}")
    for r in steps:
        print(f"{r['states']:>2} {r['step_s']:>7.2f} {r['degree']:>6} "
              f"{r['x_hat_error']:>9.1e} {r['x_hat_eps']:>7.3f} "
              f"{r['peak_rss_mb']:>7.1f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
