"""Shared random-matrix helpers for the test suite."""

import numpy as np


def philox(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def rand_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rand_with_sigma(rng: np.random.Generator, sigma) -> np.ndarray:
    """Random real matrix with the given singular values."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size
    return rand_orthogonal(rng, n) @ np.diag(sigma) @ rand_orthogonal(rng, n)


def rand_spd(rng: np.random.Generator, n: int, lo: float = 0.5,
             hi: float = 1.5) -> np.ndarray:
    eigs = rng.uniform(lo, hi, size=n)
    basis = rand_orthogonal(rng, n)
    return basis @ np.diag(eigs) @ basis.T


def _psd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v / np.sqrt(w)) @ v.T


def model_with_innovation(rng: np.random.Generator, spectrum, steps: int):
    """Random n-state model whose first innovation covariance has `spectrum`.

    S = H M H^T + R has the given eigenvalues (times a random scale) in a
    random basis. The prior M = A P0 A^T + Q fills 30-70 % of S and
    A P0 A^T fills 30-70 % of M, so R and Q stay positive definite.
    Returns (A, B, H, Q, R, x0, P0, controls, measurements), one control.
    """
    n = len(spectrum)
    rot = rand_orthogonal(rng, n)
    S = rot @ np.diag(spectrum) @ rot.T * rng.uniform(0.5, 2.0)
    H = rand_orthogonal(rng, n) * rng.uniform(0.7, 1.4, size=n)
    g = rng.standard_normal((n, n))
    M = g @ g.T + 0.2 * np.eye(n)
    s_half = _psd_inv_sqrt(S)
    M *= rng.uniform(0.3, 0.7) / np.linalg.eigvalsh(s_half @ H @ M @ H.T @ s_half)[-1]
    R = S - H @ M @ H.T
    g = rng.standard_normal((n, n))
    P0 = g @ g.T + 0.2 * np.eye(n)
    A = rng.standard_normal((n, n))
    m_half = _psd_inv_sqrt(M)
    A *= np.sqrt(rng.uniform(0.3, 0.7)
                 / np.linalg.eigvalsh(m_half @ A @ P0 @ A.T @ m_half)[-1])
    Q = M - A @ P0 @ A.T
    B = rng.standard_normal((n, 1))
    x0 = rng.standard_normal(n)
    return (A, B, H, 0.5 * (Q + Q.T), 0.5 * (R + R.T), x0, P0,
            rng.standard_normal((steps, 1)), rng.standard_normal((steps, n)))
