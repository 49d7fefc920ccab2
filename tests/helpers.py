"""Shared random-matrix helpers and reference implementations for the test suite."""

import math
from fractions import Fraction

import numpy as np

from qkalman.block_encoding import BlockEncoding
from qkalman.errors import DimensionError, ParityError
from qkalman.inversion import (
    _GRID_POINTS,
    ChebPoly,
    _clenshaw_odd,
    _measured_error,
    _normalized,
    _odd_series_one_over_x,
    smoothing_order,
)
from qkalman.tensor_ops import (
    Dense,
    Extend,
    Product,
    ProjectorPhase,
    QOperator,
    Select,
    adjoint,
)


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


def stacked_insertions(psis: np.ndarray, x: np.ndarray):
    """Reference response and derivative insertions from stacked 2x2 products.

    For any angle vector psi_0..psi_d (no symmetry assumed): one loop builds
    the suffixes E_k W ... E_d, a second the prefixes E_0 W ... E_{k-1} W.
    Returns the response <0|U|0>, shape (n,), and the insertions
    d resp / d psi_k = (prefix[k] @ iZ @ suffix[k])[0, 0], shape (d+1, n).
    """
    d = psis.size - 1
    n = x.size
    root = np.sqrt(np.clip(1.0 - x**2, 0.0, None))
    w = np.empty((n, 2, 2), dtype=complex)
    w[:, 0, 0] = x
    w[:, 0, 1] = 1j * root
    w[:, 1, 0] = 1j * root
    w[:, 1, 1] = x
    rots = np.stack([np.exp(1j * psis), np.exp(-1j * psis)], axis=1)  # (d+1, 2)

    suffix = np.empty((d + 1, n, 2, 2), dtype=complex)
    suffix[d] = 0.0
    suffix[d][:, 0, 0] = rots[d, 0]
    suffix[d][:, 1, 1] = rots[d, 1]
    for k in range(d - 1, -1, -1):
        suffix[k] = rots[k][None, :, None] * (w @ suffix[k + 1])

    prefix = np.empty((d + 1, n, 2, 2), dtype=complex)
    prefix[0] = np.eye(2, dtype=complex)[None]
    for k in range(d):
        prefix[k + 1] = (prefix[k] * rots[k][None, None, :]) @ w

    insertions = 1j * (prefix[:, :, 0, 0] * suffix[:, :, 0, 0]
                       - prefix[:, :, 0, 1] * suffix[:, :, 1, 0])
    return suffix[0][:, 0, 0], insertions


def stacked_residual_and_jac(free: np.ndarray, x: np.ndarray, target: np.ndarray):
    """Reference phase-solver residual and Jacobian from stacked 2x2 products.

    The straightforward form of `inversion._residual_pass` followed by
    `inversion._jacobian`: each free angle's column sums the
    `stacked_insertions` at k = m and k = d - m, with no use of the
    palindrome identity.
    """
    psis = np.concatenate([free, free[::-1]])
    d = psis.size - 1
    resp, insertions = stacked_insertions(psis, x)
    r = resp.real - target
    jac = np.empty((x.size, free.size))
    for m in range(free.size):
        jac[:, m] = (insertions[m] + insertions[d - m]).real
    return r, jac


def stacked_response(angles: np.ndarray, x: np.ndarray, convention: str) -> np.ndarray:
    """Reference <0|U|0> of the alternating rotation product from stacked 2x2s.

    The straightforward form of `inversion._response_batch`: the full
    2x2 running product diag(e^{i psi_0}, e^{-i psi_0}) times, per further
    angle, the signal matrix and diag(e^{i psi}, e^{-i psi}), one matrix
    per point; the reflection convention adds the global phase i^d.
    """
    x = np.asarray(x, dtype=float)
    root = np.sqrt(np.clip(1.0 - x**2, 0.0, None))
    n = x.size
    signal = np.empty((n, 2, 2), dtype=complex)
    if convention == "wx":
        signal[:, 0, 0] = x
        signal[:, 0, 1] = 1j * root
        signal[:, 1, 0] = 1j * root
        signal[:, 1, 1] = x
        prefactor = 1.0 + 0j
    else:
        signal[:, 0, 0] = x
        signal[:, 0, 1] = root
        signal[:, 1, 0] = root
        signal[:, 1, 1] = -x
        prefactor = 1j ** ((angles.size - 1) % 4)
    acc = np.zeros((n, 2, 2), dtype=complex)
    acc[:, 0, 0] = np.exp(1j * angles[0])
    acc[:, 1, 1] = np.exp(-1j * angles[0])
    for ang in angles[1:]:
        acc = acc @ signal
        acc = acc * np.array([np.exp(1j * ang), np.exp(-1j * ang)])[None, None, :]
    return prefactor * acc[:, 0, 0]


def fraction_series_one_over_x(b: int) -> np.ndarray:
    """Reference odd Chebyshev coefficients of (1 - (1-x^2)^b)/x, all b.

    Every tail sum_{i=j+1}^{b} C(2b, b+i) from `math.comb`, each
    coefficient 4 (-1)^j float(Fraction(tail, 4^b)).
    """
    denom = 4**b
    tails = [0] * b
    partial = 0
    for j in range(b - 1, -1, -1):
        partial += math.comb(2 * b, b + j + 1)
        tails[j] = partial
    return np.array([4 * (-1) ** j * float(Fraction(tails[j], denom))
                     for j in range(b)])


def _apply_batch(op: QOperator, arr: np.ndarray) -> np.ndarray:
    """Apply op to arr of shape (2**op.nqubits, batch)."""
    if isinstance(op, Dense):
        return op.matrix @ arr
    if isinstance(op, Product):
        for child in reversed(op.children):
            arr = _apply_batch(child, arr)
        return arr
    if isinstance(op, Select):
        half = arr.shape[0] // 2
        out = np.empty_like(arr)
        out[:half] = _apply_batch(op.u0, arr[:half])
        out[half:] = _apply_batch(op.u1, arr[half:])
        return out
    if isinstance(op, Extend):
        n, k, batch = op.total, op.child.nqubits, arr.shape[1]
        if k == 0:
            scalar = _apply_batch(op.child, np.ones((1, 1), dtype=complex))[0, 0]
            return arr * scalar
        tensor = arr.reshape((2,) * n + (batch,))
        moved = np.moveaxis(tensor, op.wires, range(k))
        rest_shape = moved.shape[k:]
        flat = moved.reshape(2**k, -1)
        flat = _apply_batch(op.child, flat)
        moved = flat.reshape((2,) * k + rest_shape)
        tensor = np.moveaxis(moved, range(k), op.wires)
        return tensor.reshape(2**n, batch)
    if isinstance(op, ProjectorPhase):
        n, batch = op.total, arr.shape[1]
        out = arr * np.exp(-1j * op.phi)
        tensor = out.reshape((2,) * n + (batch,))
        idx = [slice(None)] * (n + 1)
        for w in op.wires:
            idx[w] = 0
        tensor[tuple(idx)] *= np.exp(2j * op.phi)
        return tensor.reshape(2**n, batch)
    raise TypeError(f"unknown operator node {type(op).__name__}")


def materialize_block(op: QOperator, rows, cols) -> np.ndarray:
    """Entries <row_i| U |col_j>, computed by applying op to basis columns.

    The full-register reference for the package's one executor, the
    ancilla walk: `_apply_batch` dispatches on node types on its own.
    """
    rows = list(rows)
    cols = list(cols)
    dim = 2**op.nqubits
    if rows and (min(rows) < 0 or max(rows) >= dim):
        raise DimensionError("row index out of range")
    if cols and (min(cols) < 0 or max(cols) >= dim):
        raise DimensionError("column index out of range")
    basis = np.zeros((dim, len(cols)), dtype=complex)
    for j, c in enumerate(cols):
        basis[c, j] = 1.0
    image = _apply_batch(op, basis)
    return image[rows, :]


def inverse_poly_at_degree(kappa: float, eps_prime: float, degree: int) -> ChebPoly:
    """Truncation of the fixed-b series at a caller-chosen odd degree."""
    if degree % 2 == 0:
        raise ParityError(f"degree must be odd, got {degree}")
    b = smoothing_order(kappa, eps_prime)
    odd = _odd_series_one_over_x(b, (degree + 1) // 2)
    return _normalized(odd, b, kappa, _measured_error(odd, kappa, b))


def full_grid_measured_error(odd_coeffs: np.ndarray, kappa: float) -> float:
    """Reference `inversion._measured_error`: every point of the grid on [1/kappa, 1]."""
    xs = np.linspace(1.0 / kappa, 1.0, _GRID_POINTS)
    return float(np.max(np.abs(_clenshaw_odd(odd_coeffs, xs) - 1.0 / xs)))


def full_grid_series_max(odd_coeffs: np.ndarray) -> tuple[float, float]:
    """Reference `inversion._series_max`: every point of the [-1, 1] grid, then
    the same 65-point refinement."""
    xs = np.linspace(-1.0, 1.0, _GRID_POINTS)
    peak = where = 0.0
    while True:
        vals = np.abs(_clenshaw_odd(odd_coeffs, xs))
        i = int(np.argmax(vals))
        if vals[i] > peak:
            peak, where = float(vals[i]), abs(float(xs[i]))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        if hi - lo <= 1e-13:
            return peak, where
        xs = np.linspace(lo, hi, 65)


def _complete_columns(cols: np.ndarray) -> np.ndarray:
    """Unitary whose first k columns are the given orthonormal columns."""
    dim, k = cols.shape
    if k == dim:
        return cols.copy()
    q, _ = np.linalg.qr(cols, mode="complete")
    return np.hstack([cols, q[:, k:]])


def encode_data_structure_qr(m) -> BlockEncoding:
    """Reference data-structure encoding: Product((U_L^dag, U_R)) by QR completion.

    U_R |0,j> = |j> (x) col_j/||col_j|| (|0> for a zero column) and
    U_L |0,j> = |weights> (x) |j>, each completed to a unitary by a full
    QR. Same block and alpha as `encode_data_structure`, another complement.
    """
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    s = int(dim).bit_length() - 1
    alpha = float(np.linalg.norm(m))
    col_norms = np.linalg.norm(m, axis=0)
    ur_cols = np.zeros((dim * dim, dim), dtype=complex)
    for j in range(dim):
        sys_part = np.zeros(dim, dtype=complex)
        if col_norms[j] > 0:
            sys_part = m[:, j] / col_norms[j]
        else:
            sys_part[0] = 1.0
        anc_part = np.zeros(dim, dtype=complex)
        anc_part[j] = 1.0
        ur_cols[:, j] = np.kron(anc_part, sys_part)
    weights = col_norms / alpha
    ul_cols = np.kron(weights.reshape(-1, 1), np.eye(dim, dtype=complex))
    op = Product((adjoint(Dense(_complete_columns(ul_cols))),
                  Dense(_complete_columns(ur_cols))))
    return BlockEncoding(op, alpha, s, s)
