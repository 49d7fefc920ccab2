"""Self-test of the benchmark and its checks.

    python3 perfbench/selftest.py

Runs one round of each workload at a tiny size (the s=2 workload keeps
its one full-size step, about 20 s) and requires that no step fails.
Then, on the last step of each workload, it moves the output just past
each check's bound, which the check must reject, and just inside it,
which the check must accept. So no check is vacuous, and none is looser
or tighter than it says. Exits 1 if any of this misses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import run  # first: it sets the BLAS thread count before numpy loads

import numpy as np  # noqa: E402

from checks import ALPHA_RTOL, SIGMAS, check_step, reference_step  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "models-s1-margin": {},
    "demo-s1-sampled": {"steps": 2, "iterations": 4},
    "filter-s2-sampled": {},
}


def _rejects(key, track, state, u, z, out, shots) -> bool:
    """Whether the check named `key` flags `out`."""
    return any(key in f for f in check_step(track, state.x_hat, state.P, u, z, out, shots))


def boundary_cases(track, state, u, z, out, shots):
    """(check, output past its bound, output inside it) triples."""
    x_ref, p_ref = reference_step(track.A, track.B, track.H, track.Q, track.R,
                                  state.x_hat, state.P, u, z)
    e0 = np.zeros_like(out.x_hat)
    e0[0] = 1.0
    cases = []
    for field in ("alpha_x_minus", "alpha_P_minus"):
        v = getattr(out, field)
        cases.append((field, replace(out, **{field: v * (1 + 2 * ALPHA_RTOL)}),
                      replace(out, **{field: v * (1 + 0.5 * ALPHA_RTOL)})))
    if shots is None:
        cases.append(("|x_hat - ref|_inf",
                      replace(out, x_hat=x_ref + 1.001 * out.eps_x * e0),
                      replace(out, x_hat=x_ref + 0.999 * out.eps_x * e0)))
        corner = np.outer(e0, e0)
        cases.append(("|P - ref|_2",
                      replace(out, P=p_ref + 1.001 * out.eps_P * corner),
                      replace(out, P=p_ref + 0.999 * out.eps_P * corner)))
    else:
        se = 1.0 / (2.0 * math.sqrt(shots))
        bx = out.eps_x + SIGMAS * out.alpha_x * se
        cases.append(("x_hat entry",
                      replace(out, x_hat=x_ref + 1.001 * bx * e0),
                      replace(out, x_hat=x_ref + 0.999 * bx * e0)))
        bp = out.eps_P + SIGMAS * out.alpha_P * se
        off = np.zeros_like(out.P)
        off[0, 1] = off[1, 0] = 1.0
        cases.append(("P entry",
                      replace(out, P=p_ref + 1.001 * bp * off),
                      replace(out, P=p_ref + 0.999 * bp * off)))
    return cases


def main() -> int:
    qk = run.import_package()
    ok = True
    for name, size in TINY.items():
        workload = replace(WORKLOADS[name], **size)
        seen = []
        res = run.run_rounds(qk, workload, seed=0, seconds=0.0,
                             inspect=lambda *step: seen.append(step))
        good = res["failed"] == 0 and res["attempted"] == len(seen) > 0
        ok &= good
        print(f"{name}: {res['attempted']} steps, {res['failed']} failed "
              f"{'ok' if good else 'FAIL'}")
        track, state, u, z, out, shots = seen[-1]
        for key, far, near in boundary_cases(track, state, u, z, out, shots):
            rejected = _rejects(key, track, state, u, z, far, shots)
            accepted = not _rejects(key, track, state, u, z, near, shots)
            ok &= rejected and accepted
            print(f"  {key}: rejects past bound {rejected}, accepts inside {accepted}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
