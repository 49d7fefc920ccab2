"""Construct, decode, and validate (alpha, a, eps)-block-encodings.

A BlockEncoding holds a unitary U on a+s qubits such that

    M ~= alpha * (<0^a| (x) I_s) U (|0^a> (x) I_s)

with the ancilla register most significant. Two constructors are
provided: the data-structure encoding (alpha = Frobenius norm, a = s)
whose row/column state preparations are completed to full unitaries by
QR, and a single-ancilla dilation built from the SVD of a contraction.

Note on the data-structure encoding: with ancillas most significant,
the decoded entry is <0,i|U_L^dag U_R|0,j>, and making that equal
M_ij/||M||_F requires COLUMN-based preparations:

    U_R |0^s>|j> = |j> (x) sum_i (M_ij/||col_j||) |i>
    U_L |0^s>|j> = (sum_i ||col_i||/||M||_F |i>) (x) |j>

A row-based variant decodes to the transpose; the constructor here is
pinned by golden tests on a non-symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, SigmaRangeError
from .tensor_ops import (
    Dense,
    Extend,
    Product,
    QOperator,
    Select,
    adjoint,
    ancilla_block,
    as_matrix,
    frobenius_norm,
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


def pad_to_square(m, s: int) -> np.ndarray:
    """Embed m in the upper-left corner of a 2^s x 2^s zero matrix."""
    m = as_matrix(m)
    dim = 2**s
    rows, cols = m.shape
    if rows > dim or cols > dim:
        raise DimensionError(f"matrix {m.shape} does not fit in 2^{s} x 2^{s}")
    out = np.zeros((dim, dim), dtype=complex)
    out[:rows, :cols] = m
    return out


def _complete_columns(cols: np.ndarray) -> np.ndarray:
    """Unitary whose first k columns are the given orthonormal columns."""
    dim, k = cols.shape
    if k == dim:
        return cols.copy()
    q, _ = np.linalg.qr(cols, mode="complete")
    return np.hstack([cols, q[:, k:]])


def encode_data_structure(m, shape: tuple | None = None) -> BlockEncoding:
    """Block-encode a square matrix with alpha = ||M||_F and a = s ancillas.

    The operator is Product((U_L^dag, U_R)) on 2s qubits: two dense
    unitaries built from normalized column preparations and completed by
    QR, U_L^dag stored as its conjugate transpose (`adjoint`). Exact in
    simulation (eps = 0).
    """
    m = as_matrix(m)
    dim = m.shape[0]
    s = int(dim).bit_length() - 1
    if m.shape[0] != m.shape[1] or dim != 2**s:
        raise DimensionError(f"need a 2^s square matrix, got {m.shape}")
    alpha = frobenius_norm(m)
    if alpha == 0.0:
        raise DegenerateInputError("cannot encode the zero matrix")

    col_norms = np.linalg.norm(m, axis=0)
    # U_R columns: |0,j> -> |j> (x) |col_j / ||col_j||>; zero columns prepare |0>.
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
    u_r = Dense(_complete_columns(ur_cols))

    # U_L columns: |0,j> -> |weights> (x) |j> with weights_i = ||col_i|| / ||M||_F.
    weights = col_norms / alpha
    ul_cols = np.kron(weights.reshape(-1, 1), np.eye(dim, dtype=complex))
    u_l = Dense(_complete_columns(ul_cols))

    op = Product((adjoint(u_l), u_r))
    return BlockEncoding(op, alpha, s, s, 0.0, shape)


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
