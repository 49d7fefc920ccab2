"""Seeded inputs for the three benchmark workloads.

A run repeats whole rounds. A round is a fixed number of tracks, and a
track is one model filtered for a fixed number of steps from its own
prior. Every input comes from numpy's Philox generator keyed by
(workload, seed, round), so a seed always gives the same inputs and each
round gets fresh ones.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Track:
    """One model and prior, with the controls and measurements of its steps."""

    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    P0: np.ndarray
    controls: np.ndarray  # (steps, c)
    measurements: np.ndarray  # (steps, m)

    @property
    def steps(self) -> int:
        return len(self.controls)


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; its round maker builds the tracks of a round."""

    name: str
    readout_mode: str
    kappa: float | None  # pinned kappa; None means the margin policy (x1.1)
    steps: int  # per track
    shots: int = 16384
    iterations: int = 100

    def make_round(self, seed: int, rnd: int) -> list[Track]:
        key = [zlib.crc32(self.name.encode()), seed, rnd]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
        return MAKERS[self.name](self, rng, rnd)

    def program_seed(self, seed: int, rnd: int, track: int) -> int:
        """Sampling seed handed to the program for one track."""
        return int(np.random.SeedSequence([seed, rnd, track]).generate_state(1)[0])


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _psd_sqrt_inv(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v / np.sqrt(w)) @ v.T


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _model_with_innovation(rng, spectrum, steps: int) -> Track:
    """Random model whose first-step innovation covariance has `spectrum`.

    S = H M H^T + R is built from the target spectrum and a random
    rotation; the prior covariance M = A P0 A^T + Q fills a random share
    (30-70 %) of S, so R = S - H M H^T stays positive definite, and
    A P0 A^T fills a random share of M, so Q does too. One control.
    """
    n = len(spectrum)
    rot = _rotation(rng, n)
    S = _sym((rot * np.asarray(spectrum)) @ rot.T) * rng.uniform(0.5, 2.0)
    H = _rotation(rng, n) * rng.uniform(0.7, 1.4, size=n)
    g = rng.normal(size=(n, n))
    M = g @ g.T + 0.2 * np.eye(n)
    s_half = _psd_sqrt_inv(S)
    M *= rng.uniform(0.3, 0.7) / np.linalg.eigvalsh(s_half @ H @ M @ H.T @ s_half)[-1]
    R = _sym(S - H @ M @ H.T)
    g = rng.normal(size=(n, n))
    P0 = g @ g.T + 0.2 * np.eye(n)
    A = rng.normal(size=(n, n))
    m_half = _psd_sqrt_inv(M)
    A *= np.sqrt(rng.uniform(0.3, 0.7)
                 / np.linalg.eigvalsh(m_half @ A @ P0 @ A.T @ m_half)[-1])
    Q = _sym(M - A @ P0 @ A.T)
    B = rng.normal(size=(n, 1))
    x0 = rng.normal(size=n)
    return Track(A, B, H, Q, R, x0, P0,
                 rng.normal(size=(steps, 1)), rng.normal(size=(steps, n)))


# Frobenius condition numbers kappa_F = ||S||_F / sigma_min of the
# innovation blocks. KAPPA_POINTS cells split KAPPA_RANGE, and each cell
# gets two models per round, at offsets phi and 1 - phi: the pair cancels
# the first-order effect of phi on the round's polynomial cost, so rounds
# cost alike. One more model sits near the middle of the range, between
# the two halves of the grid (phi > 0.1 keeps them apart), so the median
# step of a run is always a step near that kappa and never jumps between
# two cells of different cost. phi and the middle kappa follow a
# golden-ratio sequence, the same for every seed: no two rounds of a run
# share a kappa, so the polynomial, and above the lowest degrees (where
# the phase cache key ceil(kappa^2 ln(kappa/eps')) can repeat) the
# phases, are new at every step. With the x1.1 margin, degrees run from
# about 37 to 280.
KAPPA_RANGE = (2.0, 13.0)
KAPPA_POINTS = 4
GOLDEN = (5**0.5 - 1) / 2


def _margin_round(w: Workload, rng, rnd: int) -> list[Track]:
    lo, hi = KAPPA_RANGE
    h = (hi - lo) / KAPPA_POINTS
    u = (0.5 + rnd * GOLDEN) % 1.0
    phi = 0.1 + 0.35 * u
    cells = lo + h * np.arange(KAPPA_POINTS)
    kappas = np.concatenate([cells + phi * h, cells + (1.0 - phi) * h,
                             [(lo + hi) / 2 + 0.5 * (u - 0.5)]])
    # 2x2: ||S||_F^2 / sigma_min^2 = (sigma_max / sigma_min)^2 + 1
    return [_model_with_innovation(rng, (np.sqrt(kf**2 - 1.0), 1.0), w.steps)
            for kf in kappas]


def _demo_round(w: Workload, rng, rnd: int) -> list[Track]:
    """The bundled worked example (configs/worked_example.yaml). Its one
    control (1) and measurement (1, 1) are repeated with seeded N(0, 0.5^2)
    noise, which keeps x_hat near a fixed point well away from 0, so the
    sampled state entries always draw counts."""
    return [Track(
        A=np.array([[1.0, -1.0], [1.0, 1.0]]),
        B=np.array([[1.0], [1.0]]),
        H=np.array([[2.0, 0.0], [0.0, 1.0]]),
        Q=np.eye(2),
        R=np.eye(2),
        x0=np.array([2.0, 1.0]),
        P0=np.eye(2),
        controls=1.0 + 0.5 * rng.normal(size=(w.steps, 1)),
        measurements=1.0 + 0.5 * rng.normal(size=(w.steps, 2)),
    )]


def _s2_round(w: Workload, rng, rnd: int) -> list[Track]:
    return [_model_with_innovation(rng, S2_SPECTRUM, w.steps)]


# Innovation spectrum of the 4-state model: kappa_F = ||S||_F/sigma_min
# = sqrt(9 + 4 + 2.25 + 1) = 4.03, well inside the pinned kappa 6.
S2_SPECTRUM = (3.0, 2.0, 1.5, 1.0)

MAKERS = {
    "models-s1-margin": _margin_round,
    "demo-s1-sampled": _demo_round,
    "filter-s2-sampled": _s2_round,
}

WORKLOADS = {
    w.name: w for w in (
        Workload("models-s1-margin", "exact", None, steps=1),
        Workload("demo-s1-sampled", "sampled", 6.0, steps=30),
        Workload("filter-s2-sampled", "sampled", 6.0, steps=1,
                 shots=2**20, iterations=1),
    )
}
