"""Arithmetic on block encodings: LCU addition, multiplication, adjoint, negation.

Addition follows the two-term LCU construction: a fresh combiner ancilla
is prepended (wire 0), the narrower operand is extended with identity on
the most significant of the wider operand's ancilla wires, and

    W = (V^dag (x) I) Select(U_A, U_B) (V (x) I)

with V built from the weights (sqrt(alpha), sqrt(beta)). Multiplication
concatenates ancilla registers, A's outermost, so A's operator acts on
non-contiguous wires (its own ancillas plus the system register).
Normalization factors and error bounds compose as

    add:      (alpha+beta, max(a,b)+1, eps_a+eps_b)
    multiply: (alpha*beta, a+b,        alpha*eps_b + beta*eps_a)
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .block_encoding import BlockEncoding
from .errors import DimensionError
from .tensor_ops import Dense, Extend, Product, ProjectorPhase, Select, adjoint


def _require_same_system(be_a: BlockEncoding, be_b: BlockEncoding):
    if be_a.system_qubits != be_b.system_qubits:
        raise DimensionError(
            f"system registers differ: {be_a.system_qubits} vs {be_b.system_qubits}"
        )


def _extend_ancillas(be: BlockEncoding, ancillas: int):
    """Embed be.op into a register with `ancillas` ancilla wires.

    The operand keeps its own ancillas adjacent to the system register;
    the extra wires sit above them (most significant) and carry identity,
    so the enlarged all-zero ancilla block still exposes the same matrix.
    """
    if be.ancillas == ancillas:
        return be.op
    total = ancillas + be.system_qubits
    wires = tuple(range(ancillas - be.ancillas, total))
    return Extend(be.op, total, wires)


def be_add(be_a: BlockEncoding, be_b: BlockEncoding) -> BlockEncoding:
    """Encode A + B via the two-term LCU combiner."""
    _require_same_system(be_a, be_b)
    s = be_a.system_qubits
    inner_anc = max(be_a.ancillas, be_b.ancillas)
    alpha, beta = be_a.alpha, be_b.alpha
    total = 1 + inner_anc + s

    select = Select(_extend_ancillas(be_a, inner_anc), _extend_ancillas(be_b, inner_anc))
    norm = np.sqrt(alpha + beta)
    v = np.array([
        [np.sqrt(alpha), np.sqrt(beta)],
        [np.sqrt(beta), -np.sqrt(alpha)],
    ]) / norm
    v_in = Extend(Dense(v), total, (0,))
    v_out = Extend(Dense(v.conj().T), total, (0,))
    op = Product((v_out, select, v_in))

    shape = be_a.shape if be_a.shape == be_b.shape else None
    return BlockEncoding(op, alpha + beta, inner_anc + 1, s,
                         be_a.eps + be_b.eps, shape)


def be_multiply(be_a: BlockEncoding, be_b: BlockEncoding) -> BlockEncoding:
    """Encode A @ B by concatenating ancilla registers (A's outermost)."""
    _require_same_system(be_a, be_b)
    s = be_a.system_qubits
    a, b = be_a.ancillas, be_b.ancillas
    total = a + b + s
    system = tuple(range(a + b, total))
    op_a = Extend(be_a.op, total, tuple(range(a)) + system)
    op_b = Extend(be_b.op, total, tuple(range(a, a + b)) + system)
    op = Product((op_a, op_b))

    shape = None
    if be_a.shape is not None and be_b.shape is not None:
        shape = (be_a.shape[0], be_b.shape[1])
    return BlockEncoding(op, be_a.alpha * be_b.alpha, a + b, s,
                         be_a.alpha * be_b.eps + be_b.alpha * be_a.eps, shape)


def be_adjoint(be_a: BlockEncoding) -> BlockEncoding:
    """Encode A^dag (the transpose for real A) with unchanged bookkeeping.

    The operator is the `adjoint` tree of be_a.op, which copies each
    dense leaf conjugate-transposed.
    """
    shape = None if be_a.shape is None else (be_a.shape[1], be_a.shape[0])
    return replace(be_a, op=adjoint(be_a.op), shape=shape)


def be_negate(be_a: BlockEncoding) -> BlockEncoding:
    """Encode -A by a global pi phase on the unitary."""
    n = be_a.op.nqubits
    op = Product((ProjectorPhase(np.pi, n, ()), be_a.op))
    return replace(be_a, op=op)
