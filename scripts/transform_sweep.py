#!/usr/bin/env python3
"""Inverse transform build: the lazy circuit compacted against the dense chain.

    python scripts/transform_sweep.py [--out BENCH_transform.json]

For s in {1, 2, 3} system qubits and kappa in {3, 6, 12} at eps' 0.01 it
builds the phases of `inverse_poly(kappa, eps')` and a data-structure
encoding of a random 2^s x 2^s matrix (2s qubits, as the filter's
re-encoded innovation), then times, REPEATS times each, the two ways of
turning the transform into one dense leaf:

* `tree_ms`: the lazy `_qsvt_circuit` (Hadamard-wrapped select over
  the Phi and -Phi circuits), then `compact_operator`, which walks
  every basis column through the 4d+4 nodes of the two circuits;
* `dense_ms`: `inversion._transform`, which runs the two sign circuits
  as one chain of d batched matmuls and averages them in closed form,
  the leaf `be_invert` hands the filter.

Each row records the degree, those medians, the max |entry difference|
between the two transform unitaries and the dense one's
`unitarity_residual`. The BLAS thread variables are recorded as found:
set them on the command line to compare thread counts, e.g.

    OPENBLAS_NUM_THREADS=1 python scripts/transform_sweep.py --out t1.json
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

import numpy as np

from bench_env import environment

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qkalman.inversion as inversion  # noqa: E402
from qkalman.block_encoding import encode_data_structure  # noqa: E402
from qkalman.tensor_ops import (  # noqa: E402
    adjoint,
    compact_operator,
    materialize,
    unitarity_residual,
)

SYSTEM_QUBITS = (1, 2, 3)
KAPPAS = (3.0, 6.0, 12.0)
EPS_PRIME = 0.01
REPEATS = 5
SEED = 2024


def tree_route(be, phi):
    """The lazy transform circuit, compacted into one leaf."""
    return compact_operator(
        inversion._qsvt_circuit(be.op, adjoint(be.op), be.ancillas, phi.angles))


def median_ms(fn, *args):
    """Median wall ms of REPEATS calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), out


def sweep() -> list[dict]:
    rng = np.random.Generator(np.random.Philox(SEED))
    rows = []
    for s in SYSTEM_QUBITS:
        dim = 2**s
        be = encode_data_structure(rng.standard_normal((dim, dim)))
        for kappa in KAPPAS:
            phi = inversion.solve_phase_factors(inversion.inverse_poly(kappa, EPS_PRIME))
            tree_ms, tree = median_ms(tree_route, be, phi)
            dense_ms, dense = median_ms(inversion._transform, be, phi)
            width = be.op.nqubits + 1
            diff = np.max(np.abs(materialize(tree, width) - dense.op.matrix))
            rows.append({
                "system_qubits": s, "kappa": kappa, "eps_prime": EPS_PRIME,
                "degree": phi.degree, "tree_ms": tree_ms, "dense_ms": dense_ms,
                "max_abs_diff": float(diff),
                "unitarity_residual": unitarity_residual(dense.op),
            })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "BENCH_transform.json")
    args = parser.parse_args()

    rows = sweep()
    report = {
        "environment": environment(),
        "repeats": REPEATS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'s':>2} {'kappa':>6} {'deg':>4} {'tree ms':>8} {'dense ms':>9} "
          f"{'max diff':>9} {'unitarity':>9}")
    for r in rows:
        print(f"{r['system_qubits']:>2} {r['kappa']:>6} {r['degree']:>4} "
              f"{r['tree_ms']:>8.2f} {r['dense_ms']:>9.2f} "
              f"{r['max_abs_diff']:>9.1e} {r['unitarity_residual']:>9.1e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
