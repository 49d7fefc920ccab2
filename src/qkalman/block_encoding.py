"""Construct, decode, and validate (alpha, a, eps)-block-encodings.

A BlockEncoding holds a unitary U on a+s qubits such that

    M ~= alpha * (<0^a| (x) I_s) U (|0^a> (x) I_s)

with the ancilla register most significant. Two constructors are
provided: the data-structure encoding (alpha = Frobenius norm, a = s),
one dense leaf in closed form, and a single-ancilla dilation built from
the SVD of a contraction.

Note on the data-structure encoding: with ancillas most significant,
the decoded entry is <0,i|U_L^dag U_R|0,j>, and making that equal
M_ij/||M||_F requires COLUMN-based preparations (no QR completion):

    U_R |c>|d> = |d> (x) V_d |c>,  V_d|0> = col_d/||col_d||
    U_L |c>|j> = V_w |c> (x) |j>,  V_w|0> = sum_i ||col_i||/||M||_F |i>
    <a,i| U_L^dag U_R |c,d> = conj(V_w[d, a]) V_d[i, c]

A row-based variant decodes to the transpose; the constructor here is
pinned by golden tests on a non-symmetric matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, SigmaRangeError
from .tensor_ops import (
    Dense,
    Extend,
    Product,
    QOperator,
    Select,
    ancilla_block,
    as_matrix,
    identity_op,
    svd,
    unitarity_residual,
)


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary op with the target matrix in its top-left alpha-scaled block."""

    op: QOperator
    alpha: float
    ancillas: int
    system_qubits: int
    eps: float = 0.0
    shape: tuple | None = None  # pre-padding (rows, cols) for decode cropping

    def __post_init__(self):
        if self.alpha <= 0:
            raise DimensionError(f"alpha must be positive, got {self.alpha}")
        if self.eps < 0:
            raise DimensionError("eps must be nonnegative")
        if self.op.nqubits != self.ancillas + self.system_qubits:
            raise DimensionError(
                f"operator acts on {self.op.nqubits} qubits, expected "
                f"{self.ancillas}+{self.system_qubits}"
            )

    @property
    def nqubits(self):
        return self.ancillas + self.system_qubits


def register_qubits(*dims: int) -> int:
    """System qubits s = max(1, ceil(log2 max(dims))) of the register holding dims."""
    return max(1, math.ceil(math.log2(max(dims))))


def pad_to_square(m, s: int) -> np.ndarray:
    """Embed m in the upper-left corner of a 2^s x 2^s zero matrix (shape only)."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    dim = 2**s
    if m.ndim != 2 or m.shape[0] > dim or m.shape[1] > dim:
        raise DimensionError(f"matrix {m.shape} does not fit in 2^{s} x 2^{s}")
    out = np.zeros((dim, dim), dtype=complex)
    out[:m.shape[0], :m.shape[1]] = m
    return out


def _state_preparations(vecs) -> np.ndarray:
    """Unitaries V_k with V_k e_0 = vecs[k] exactly, one Householder reflection each.

    With theta the phase of v_0 and w = e^{-i theta} v + e_0 (w^dag w >= 2),
    V = -e^{i theta} (I - 2 w w^dag / w^dag w); column 0 is then set to v.
    """
    vecs = np.asarray(vecs, dtype=complex)
    phase = np.exp(1j * np.angle(vecs[:, 0]))[:, None]
    w = vecs * phase.conj()
    w[:, 0] += 1.0
    scale = 2.0 / np.einsum("ki,ki->k", w.conj(), w).real
    out = np.einsum("ki,kj->kij", w * scale[:, None], w.conj())
    out -= np.eye(vecs.shape[1])
    out *= phase[:, :, None]
    out[:, :, 0] = vecs
    return out


def encode_data_structure(m, shape: tuple | None = None) -> BlockEncoding:
    """Block-encode a square matrix with alpha = ||M||_F and a = s ancillas.

    The operator is one Dense leaf U = U_L^dag U_R on 2s qubits with
    <a,i|U|c,d> = conj(V_w[d, a]) V_d[i, c] (module note; a zero column
    prepares |0>), from n + 1 batched `_state_preparations`: O(n^4) time
    and memory for n = 2^s. Exact in simulation (eps = 0).
    """
    m = as_matrix(m)
    dim = m.shape[0]
    s = int(dim).bit_length() - 1
    if m.shape[0] != m.shape[1] or dim != 2**s:
        raise DimensionError(f"need a 2^s square matrix, got {m.shape}")
    alpha = float(np.linalg.norm(m))
    if alpha == 0.0:
        raise DegenerateInputError("cannot encode the zero matrix")

    col_norms = np.linalg.norm(m, axis=0)
    cols = np.zeros((dim + 1, dim), dtype=complex)
    cols[:dim, 0] = 1.0
    nonzero = col_norms > 0
    cols[:dim][nonzero] = (m[:, nonzero] / col_norms[nonzero]).T
    cols[dim] = col_norms / alpha
    preps = _state_preparations(cols)
    leaf = np.einsum("da,dic->aicd", preps[dim].conj(), preps[:dim], order="C")
    return BlockEncoding(Dense(leaf.reshape(dim * dim, dim * dim)), alpha, s, s,
                         0.0, shape)


def encode_svd_dilation(m_scaled, alpha: float = 1.0,
                        shape: tuple | None = None) -> BlockEncoding:
    """Single-ancilla encoding of a contraction via its SVD.

    The caller passes M/alpha with spectral norm <= 1 and the recorded
    alpha. The operator is the three-factor product

        [[W,0],[0,I]] [[S, sqrt(I-S^2)], [sqrt(I-S^2), -S]] [[Vh,0],[0,I]]

    whose top-left block is exactly W S Vh = M/alpha.
    """
    m_scaled = as_matrix(m_scaled)
    dim = m_scaled.shape[0]
    s = int(dim).bit_length() - 1
    if m_scaled.shape[0] != m_scaled.shape[1] or dim != 2**s:
        raise DimensionError(f"need a 2^s square matrix, got {m_scaled.shape}")
    w, sigma, vh = svd(m_scaled)
    if sigma[0] > 1 + 1e-10:
        raise SigmaRangeError(float(sigma[0]), 0.0, 1.0)
    sigma = np.minimum(sigma, 1.0)
    root = np.sqrt(1.0 - sigma**2)
    mid = np.block([
        [np.diag(sigma), np.diag(root)],
        [np.diag(root), -np.diag(sigma)],
    ])
    op = Product((
        Select(Dense(w), identity_op(s)),
        Dense(mid),
        Select(Dense(vh), identity_op(s)),
    ))
    return BlockEncoding(op, alpha, 1, s, 0.0, shape)


def encode_zero(s: int, alpha: float = 1.0,
                shape: tuple | None = None) -> BlockEncoding:
    """Encoding of the zero matrix (the Frobenius constructors reject it).

    s ancillas, like the data-structure encoding. An X gate on the
    leading ancilla makes the <0...0| block vanish identically; alpha is
    free (alpha * 0 = 0) and defaults to 1 so downstream product/sum
    bookkeeping stays positive.
    """
    if s < 1:
        raise DimensionError("zero encoding needs at least one ancilla")
    flip = Dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    op = Extend(flip, 2 * s, (0,))
    return BlockEncoding(op, alpha, s, s, 0.0, shape)


def decode(be: BlockEncoding) -> np.ndarray:
    """alpha times the top-left block, cropped to the pre-padding shape.

    Only the columns kept by the crop are computed, through the
    ancilla-zero evaluator (no full-register statevector).
    """
    rows, cols = be.shape if be.shape is not None else (2**be.system_qubits,) * 2
    return be.alpha * ancilla_block(be.op, be.ancillas, range(cols))[:rows]


@dataclass(frozen=True)
class ValidationReport:
    deviation: float
    unitarity: float
    tolerance: float
    ok: bool


def validate(be: BlockEncoding, expected, nstates: int = 4) -> ValidationReport:
    """Report ||expected - decode(be)||_2 against eps (report only, no raise)."""
    expected = as_matrix(expected)
    got = decode(be)
    if got.shape != expected.shape:
        raise DimensionError(f"expected {expected.shape}, decoded {got.shape}")
    deviation = float(np.linalg.norm(expected - got, 2))
    resid = unitarity_residual(be.op, nstates=nstates)
    tol = be.eps + 1e-9
    return ValidationReport(deviation, resid, tol, deviation <= tol)
