#!/usr/bin/env python3
"""Cold phase-solver sweep: Newton steps, residual and where the time goes.

    python scripts/phase_solver_sweep.py [--out BENCH_phase_solver.json]

For each kappa in {1.5, 2, 3.5, 5, 8, 12, 14.3, 20} and eps' in {1e-2, 1e-3}
it builds `inverse_poly(kappa, eps')` cold and solves its phases cold
(the cache cleared before every build and every solve), REPEATS times
each. Per point it records the degree, Newton iterations, verification
residual and the median over repeats of the build's ms, of the solve's
total ms, of the ms spent in the residual/Jacobian kernel and of the ms
spent in `np.linalg.solve`, plus the worst repeat's `np.linalg.solve`
ms, where BLAS thread stalls show; the summary sums the medians and
keeps the largest of those worst repeats.
The inner timings come from wrappers this script installs around
`inversion._residual_pass`, `inversion._jacobian` (together the kernel)
and `np.linalg.solve`; the package is not changed. A point whose
polynomial needs more than `inversion.DEGREE_CAP` gets an `error` row
instead. `OPENBLAS_NUM_THREADS` is recorded as found:
set it on the command line to compare thread counts, e.g.

    OPENBLAS_NUM_THREADS=1 python scripts/phase_solver_sweep.py --out t1.json
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qkalman.inversion as inversion  # noqa: E402
from qkalman.errors import QkError  # noqa: E402

KAPPAS = (1.5, 2.0, 3.5, 5.0, 8.0, 12.0, 14.3, 20.0)
EPS_PRIMES = (1e-2, 1e-3)
REPEATS = 5


class Timed:
    """Callable wrapper that adds each call's wall time to `seconds`."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


def cold_build(kappa: float, eps: float):
    """One `inverse_poly` with the cache empty: (poly, ms)."""
    inversion.clear_cache()
    t0 = time.perf_counter()
    poly = inversion.inverse_poly(kappa, eps)
    return poly, 1e3 * (time.perf_counter() - t0)


def cold_solve(poly, kernel: list[Timed], solve: Timed):
    """One solve with the cache empty: (phases, total, kernel, solve) in ms."""
    inversion.clear_cache()
    for part in kernel:
        part.seconds = 0.0
    solve.seconds = 0.0
    t0 = time.perf_counter()
    phi = inversion.solve_phase_factors(poly)
    total = time.perf_counter() - t0
    return (phi, 1e3 * total, 1e3 * sum(part.seconds for part in kernel),
            1e3 * solve.seconds)


def sweep() -> list[dict]:
    kernel = [Timed(inversion._residual_pass), Timed(inversion._jacobian)]
    solve = Timed(np.linalg.solve)
    inversion._residual_pass, inversion._jacobian = kernel
    np.linalg.solve = solve
    try:
        rows = []
        for kappa in KAPPAS:
            for eps in EPS_PRIMES:
                row = {"kappa": kappa, "eps_prime": eps}
                try:
                    builds = [cold_build(kappa, eps) for _ in range(REPEATS)]
                    poly = builds[0][0]
                    runs = [cold_solve(poly, kernel, solve) for _ in range(REPEATS)]
                except QkError as exc:
                    row["error"] = f"{type(exc).__name__}: {exc}"
                    rows.append(row)
                    continue
                phi = runs[0][0]
                total, kern, lin = (statistics.median(r[i] for r in runs)
                                    for i in (1, 2, 3))
                row.update(degree=poly.degree, iterations=phi.iterations,
                           residual=phi.residual,
                           build_ms=statistics.median(ms for _, ms in builds),
                           total_ms=total, kernel_ms=kern, solve_ms=lin,
                           other_ms=total - kern - lin,
                           solve_ms_max=max(r[3] for r in runs))
                rows.append(row)
        return rows
    finally:
        inversion._residual_pass, inversion._jacobian = (part.fn for part in kernel)
        np.linalg.solve = solve.fn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "BENCH_phase_solver.json")
    args = parser.parse_args()

    rows = sweep()
    solved = [r for r in rows if "error" not in r]
    totals = {key: sum(r[key] for r in solved)
              for key in ("build_ms", "total_ms", "kernel_ms", "solve_ms",
                          "other_ms")}
    report = {
        "environment": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
        },
        "repeats": REPEATS,
        "summary": {
            **totals,
            "kernel_share": totals["kernel_ms"] / totals["total_ms"],
            "solve_share": totals["solve_ms"] / totals["total_ms"],
            "solve_ms_max": max(r["solve_ms_max"] for r in solved),
        },
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'kappa':>6} {'eps':>6} {'deg':>4} {'it':>3} {'residual':>9} "
          f"{'build ms':>9} {'total ms':>9} {'kernel':>7} {'solve':>7}")
    for r in rows:
        if "error" in r:
            print(f"{r['kappa']:>6} {r['eps_prime']:>6} {r['error']}")
            continue
        print(f"{r['kappa']:>6} {r['eps_prime']:>6} {r['degree']:>4} "
              f"{r['iterations']:>3} {r['residual']:>9.1e} {r['build_ms']:>9.1f} "
              f"{r['total_ms']:>9.1f} "
              f"{r['kernel_ms']:>7.1f} {r['solve_ms']:>7.1f}")
    s = report["summary"]
    print(f"build {s['build_ms']:.1f} ms; "
          f"solve total {s['total_ms']:.1f} ms: kernel {s['kernel_share']:.0%}, "
          f"solve {s['solve_share']:.0%} (worst repeat {s['solve_ms_max']:.1f} ms in solve); "
          f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
