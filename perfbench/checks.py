"""Correctness checks that do not use the program's own classical oracle.

The reference is a plain numpy predict/update written here, started from
the same prior state the quantum step received. The bounds come from the
step's own ledger: `eps` of the readout encodings (polynomial error),
plus six standard errors of the shot noise for sampled readout, where the
standard error is computed here from alpha and the shot count N as
alpha / (2 sqrt(N)), the largest value the delta-method error
alpha sqrt(1 - p) / (2 sqrt(N)) of alpha sqrt(count / N) can take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMAS = 6.0
ALPHA_RTOL = 1e-9


@dataclass(frozen=True)
class StepOutput:
    """What one quantum filter step returned, as the checks read it."""

    x_hat: np.ndarray
    P: np.ndarray
    alpha_x_minus: float
    alpha_P_minus: float
    alpha_x: float
    eps_x: float
    alpha_P: float
    eps_P: float

    @classmethod
    def from_run(cls, trajectory, ledger) -> "StepOutput":
        step = trajectory[-1].k
        x, p = (ledger.find(label, step) for label in ("alpha_x_hat", "alpha_P"))
        return cls(trajectory[-1].x_hat, trajectory[-1].P,
                   ledger.find("alpha_x_minus", step).alpha,
                   ledger.find("alpha_P_minus", step).alpha,
                   x.alpha, x.eps, p.alpha, p.eps)


def reference_step(A, B, H, Q, R, x, P, u, z):
    """One exact Kalman predict/update: (x_hat, P)."""
    x_minus = A @ x + B @ u
    p_minus = A @ P @ A.T + Q
    s = H @ p_minus @ H.T + R
    gain = np.linalg.solve(s, H @ p_minus).T  # S symmetric: K = P- H^T S^-1
    x_hat = x_minus + gain @ (z - H @ x_minus)
    p_hat = p_minus - gain @ H @ p_minus
    return x_hat, 0.5 * (p_hat + p_hat.T)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ALPHA_RTOL * abs(want)


def check_step(track, x_prior, P_prior, u, z, out: StepOutput,
               shots: int | None) -> list[str]:
    """Failures of one step; empty when every check passes.

    `shots` is the pooled shot count N of sampled readout, None for exact.
    """
    fro = np.linalg.norm
    fails = []
    want = fro(track.A) * fro(x_prior) + fro(track.B) * fro(u)
    if not _close(out.alpha_x_minus, want):
        fails.append(f"alpha_x_minus {out.alpha_x_minus!r} != |A||x|+|B||u| {want!r}")
    want = fro(track.A) ** 2 * fro(P_prior) + fro(track.Q)
    if not _close(out.alpha_P_minus, want):
        fails.append(f"alpha_P_minus {out.alpha_P_minus!r} != |A|^2|P|+|Q| {want!r}")

    x_ref, p_ref = reference_step(track.A, track.B, track.H, track.Q, track.R,
                                  x_prior, P_prior, u, z)
    if shots is None:
        dx = float(np.max(np.abs(out.x_hat - x_ref)))
        if not dx <= out.eps_x:
            fails.append(f"|x_hat - ref|_inf {dx:.3g} > eps {out.eps_x:.3g}")
        dp = float(np.linalg.norm(out.P - p_ref, 2))
        if not dp <= out.eps_P:
            fails.append(f"|P - ref|_2 {dp:.3g} > eps {out.eps_P:.3g}")
    else:
        for name, got, ref, alpha, eps in (("x_hat", out.x_hat, x_ref, out.alpha_x, out.eps_x),
                                           ("P", out.P, p_ref, out.alpha_P, out.eps_P)):
            bound = eps + SIGMAS * alpha / (2.0 * math.sqrt(shots))
            dev = float(np.max(np.abs(got - ref)))
            if not dev <= bound:
                fails.append(f"{name} entry off by {dev:.3g} > eps + 6 SE {bound:.3g}")
    return fails
