"""Dense complex linear algebra plus a lazy operator tree for multi-qubit unitaries.

Conventions used throughout the package:

* Wire 0 is the MOST significant qubit. A basis state |q0 q1 ... q_{n-1}>
  has flat index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}. Ancilla
  registers are always prepended most-significant, so the state
  |0^a>|j> of an (a+s)-qubit register has flat index j.
* Operators are trees with one executor, `_walk`. It reads columns of
  the <0^a|.|0^a> block only: its state holds the system register
  plus the ancilla wires that nodes have touched and nodes still to
  come will touch, so a register of a+s qubits costs about
  2^(live wires) amplitudes per column. ``ancilla_block`` is that walk
  on basis columns; ``apply`` and ``materialize`` are the walk with no
  ancillas, where the ancilla-zero block is the whole unitary.
* Dense leaves have whatever width their builder chose (a
  data-structure encoding is one leaf on 2s qubits).
  ``DENSE_THRESHOLD`` limits what ``compact_operator`` and
  ``materialize`` turn into a dense matrix, and so the encodings whose
  inverse transform ``inversion`` builds as one dense leaf.
* ``Product((A, B))`` means the matrix product A @ B, i.e. B is applied
  first. ``Select(u0, u1)`` is |0><0| (x) u0 + |1><1| (x) u1 with the
  control on wire 0. ``Extend`` embeds a child operator on an explicit
  wire list, identity elsewhere. ``ProjectorPhase(phi, wires)`` is
  exp(i*phi*(2P - I)) where P projects onto |0...0> of the named wires;
  with an empty wire set it degenerates to the global phase exp(i*phi).
  These five are the only nodes: ``adjoint`` returns U^dag as a new
  tree (reversed products, conjugate-transposed leaves, negated phases).

The walk is vectorized over a trailing batch axis, which is also how
small materializations are computed (walk a batch of basis columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalFailureError

DENSE_THRESHOLD = 6  # qubits; larger operators stay lazy trees


# ---------------------------------------------------------------------------
# dense-matrix helpers
# ---------------------------------------------------------------------------

def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D complex ndarray and insist on finite entries."""
    m = np.atleast_2d(np.asarray(data, dtype=complex))
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NumericalFailureError("matrix contains non-finite entries")
    return m


def svd(m):
    """Singular value decomposition M = W diag(S) Vh.

    Returns
    -------
    (W, S, Vh) with S descending. Raises NumericalFailureError if the
    underlying iteration does not converge.
    """
    m = as_matrix(m)
    try:
        w, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return w, s, vh


# ---------------------------------------------------------------------------
# operator tree
# ---------------------------------------------------------------------------

class QOperator:
    """Base class; every node knows its qubit count and is unitary."""

    @property
    def nqubits(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Dense(QOperator):
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        n = int(m.shape[0]).bit_length() - 1
        if m.shape[0] != m.shape[1] or m.shape[0] != 2**n:
            raise DimensionError(f"dense operator must be 2^k square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_nqubits", n)

    @property
    def nqubits(self):
        return self._nqubits


@dataclass(frozen=True, eq=False)
class Product(QOperator):
    """Matrix product of children; children[-1] is applied first."""

    children: tuple

    def __post_init__(self):
        kids = tuple(self.children)
        if not kids:
            raise DimensionError("Product needs at least one child")
        n = kids[0].nqubits
        if any(c.nqubits != n for c in kids):
            raise DimensionError("Product children must share a qubit count")
        object.__setattr__(self, "children", kids)

    @property
    def nqubits(self):
        return self.children[0].nqubits


@dataclass(frozen=True, eq=False)
class Select(QOperator):
    """|0><0| (x) u0 + |1><1| (x) u1, control on wire 0 (most significant)."""

    u0: QOperator
    u1: QOperator

    def __post_init__(self):
        if self.u0.nqubits != self.u1.nqubits:
            raise DimensionError("Select branches must share a qubit count")

    @property
    def nqubits(self):
        return self.u0.nqubits + 1


@dataclass(frozen=True, eq=False)
class Extend(QOperator):
    """Child operator on wires[i] (child wire i -> global wire), identity elsewhere."""

    child: QOperator
    total: int
    wires: tuple

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(wires) != self.child.nqubits:
            raise DimensionError("Extend wires must match the child qubit count")
        if len(set(wires)) != len(wires):
            raise DimensionError("Extend wires must be distinct")
        if wires and (min(wires) < 0 or max(wires) >= self.total):
            raise DimensionError("Extend wires out of range")
        if self.total < self.child.nqubits:
            raise DimensionError("Extend cannot shrink an operator")

    @property
    def nqubits(self):
        return self.total


@dataclass(frozen=True, eq=False)
class ProjectorPhase(QOperator):
    """exp(i*phi*(2P - I)) with P = |0..0><0..0| on the named wires."""

    phi: float
    total: int
    wires: tuple = field(default=())

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(set(wires)) != len(wires):
            raise DimensionError("ProjectorPhase wires must be distinct")
        if wires and (min(wires) < 0 or max(wires) >= self.total):
            raise DimensionError("ProjectorPhase wires out of range")

    @property
    def nqubits(self):
        return self.total


def identity_op(nqubits: int) -> QOperator:
    """Identity on n qubits, represented without a dense matrix."""
    return Extend(Dense(np.eye(1)), nqubits, ())


def adjoint(op: QOperator) -> QOperator:
    """The adjoint as a new tree: reversed products, conjugated leaves, negated phases."""
    if isinstance(op, Dense):
        return Dense(op.matrix.conj().T)
    if isinstance(op, Product):
        return Product(tuple(adjoint(c) for c in reversed(op.children)))
    if isinstance(op, Select):
        return Select(adjoint(op.u0), adjoint(op.u1))
    if isinstance(op, Extend):
        return Extend(adjoint(op.child), op.total, op.wires)
    if isinstance(op, ProjectorPhase):
        return ProjectorPhase(-op.phi, op.total, op.wires)
    raise TypeError(f"unknown operator node {type(op).__name__}")


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

class _AncillaZeroWalk:
    """One traversal for `_walk`; holds nothing past the call.

    The state is an array of shape (2,)*len(live) + (batch,) whose axes
    carry the global wires in `live`. A wire outside `live` is exactly
    |0> in every component. Each node maps local wires to global ones
    through `wmap` and learns, through `future`, the global wires that
    nodes applied after it touch; after the node, every live ancilla
    wire outside `future` is projected onto |0>.
    """

    def __init__(self, ancillas: int):
        self.ancillas = ancillas
        self._support: dict = {}  # id(node) -> local wires; nodes live for the call

    def support(self, op: QOperator) -> frozenset:
        """Local wires op may act on non-trivially."""
        hit = self._support.get(id(op))
        if hit is not None:
            return hit
        if isinstance(op, Dense):
            hit = frozenset(range(op.nqubits))
        elif isinstance(op, Product):
            hit = frozenset().union(*(self.support(c) for c in op.children))
        elif isinstance(op, Select):
            inner = self.support(op.u0) | self.support(op.u1)
            hit = frozenset({0}) | frozenset(w + 1 for w in inner)
        elif isinstance(op, Extend):
            hit = frozenset(op.wires[w] for w in self.support(op.child))
        elif isinstance(op, ProjectorPhase):
            hit = frozenset(op.wires)
        else:
            raise TypeError(f"unknown operator node {type(op).__name__}")
        self._support[id(op)] = hit
        return hit

    def walk(self, op, arr, live, wmap, future):
        """Apply op to the live state, then project."""
        if isinstance(op, Dense):
            arr, live = _apply_on_live(op.matrix, wmap, arr, live)
        elif isinstance(op, Product):
            kids = op.children[::-1]  # application order
            after = [future] * len(kids)
            for i in range(len(kids) - 1, 0, -1):
                after[i - 1] = after[i] | {wmap[w] for w in self.support(kids[i])}
            for kid, fut in zip(kids, after):
                arr, live = self.walk(kid, arr, live, wmap, fut)
        elif isinstance(op, Select):
            control, sub = wmap[0], wmap[1:]
            if control not in live:  # control is |0>: only u0 acts
                arr, live = self.walk(op.u0, arr, live, sub, future)
            else:
                pos = live.index(control)
                rest = live[:pos] + live[pos + 1:]
                branches = [self.walk(u, np.take(arr, bit, axis=pos), rest, sub, future)
                            for bit, u in ((0, op.u0), (1, op.u1))]
                order = list(branches[0][1])
                order += [w for w in branches[1][1] if w not in order]
                arr = np.stack([_align(a, lv, order) for a, lv in branches])
                live = [control] + order
        elif isinstance(op, Extend):
            arr, live = self.walk(op.child, arr, live,
                                  tuple(wmap[w] for w in op.wires), future)
        elif isinstance(op, ProjectorPhase):
            arr = arr * np.exp(-1j * op.phi)
            idx = [slice(None)] * arr.ndim
            for w in op.wires:  # a wire outside live is |0> and always marked
                if wmap[w] in live:
                    idx[live.index(wmap[w])] = 0
            arr[tuple(idx)] *= np.exp(2j * op.phi)
        else:
            raise TypeError(f"unknown operator node {type(op).__name__}")
        done = [w for w in live if w < self.ancillas and w not in future]
        if done:
            idx = tuple(0 if w in done else slice(None) for w in live)
            arr = arr[idx]
            live = [w for w in live if w not in done]
        return arr, live


def _apply_on_live(mat, wires, arr, live):
    """Apply mat on global wires; wires not yet live enter as |0>."""
    k = len(wires)
    fresh = [w not in live for w in wires]
    if any(fresh):  # keep the input indices whose fresh wires read 0
        cut = tuple(0 if f else slice(None) for f in fresh)
        mat = mat.reshape((2**k,) + (2,) * k)[(slice(None),) + cut]
        mat = mat.reshape(2**k, -1)
    pos = [live.index(w) for w, f in zip(wires, fresh) if not f]
    if pos != list(range(len(pos))):  # wires a node just acted on already lead
        arr = np.moveaxis(arr, pos, range(len(pos)))
    out = mat @ arr.reshape(2 ** len(pos), -1)
    live = list(wires) + [w for w in live if w not in wires]
    return out.reshape((2,) * k + arr.shape[len(pos):]), live


def _align(arr, live, order):
    """Pad arr with |0> axes for the wires of order it lacks, then permute."""
    missing = [w for w in order if w not in live]
    if missing:
        padded = np.zeros((2,) * len(missing) + arr.shape, dtype=arr.dtype)
        padded[(0,) * len(missing)] = arr
        arr, live = padded, missing + list(live)
    return arr.transpose([live.index(w) for w in order] + [len(order)])


def _walk(op: QOperator, ancillas: int, start: np.ndarray) -> np.ndarray:
    """Rows 0..2**(n - ancillas) - 1 of op applied to |0^a> (x) start.

    start has shape (2**(n - ancillas), batch), one system-register
    column per batch entry. The tree is walked with a state over live
    wires only: the system register, plus each ancilla wire from the
    first node that touches it until after the last one, where it is
    projected onto |0>. Exact: a projection commutes with every later
    node, which acts as identity on that wire. With no ancillas every
    wire is live throughout and the result is op applied to start.
    """
    n = op.nqubits
    s = n - ancillas
    batch = start.shape[1]
    system = list(range(ancillas, n))
    arr, live = _AncillaZeroWalk(ancillas).walk(
        op, start.reshape((2,) * s + (batch,)), system, tuple(range(n)),
        frozenset())
    return _align(arr, live, system).reshape(2**s, batch)


def ancilla_block(op: QOperator, ancillas: int, cols) -> np.ndarray:
    """Columns of the ancilla-zero block: <0^a, i| U |0^a, j> for every i.

    Returns an array of shape (2**(n - ancillas), len(cols)), equal to
    rows 0..2**(n - ancillas) - 1 of op applied to the basis columns
    `cols`, computed by one walk over live wires (`_walk`).
    """
    n = op.nqubits
    s = n - ancillas
    if not 0 <= ancillas <= n:
        raise DimensionError(f"{ancillas} ancillas on a {n}-qubit operator")
    cols = list(cols)
    if cols and (min(cols) < 0 or max(cols) >= 2**s):
        raise DimensionError("column index out of range")
    start = np.zeros((2**s, len(cols)), dtype=complex)
    start[cols, range(len(cols))] = 1.0
    return _walk(op, ancillas, start)


def apply(op: QOperator, psi: np.ndarray) -> np.ndarray:
    """Apply a QOperator to a full-register statevector (a walk with no ancillas)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2**op.nqubits,):
        raise DimensionError(
            f"state has {psi.shape}, operator acts on {2**op.nqubits} amplitudes"
        )
    return _walk(op, 0, psi.reshape(-1, 1))[:, 0]


def materialize(op: QOperator, threshold: int = DENSE_THRESHOLD) -> np.ndarray:
    """Full dense matrix of op (a copy for a bare leaf); refuses above the threshold."""
    if op.nqubits > threshold:
        raise DimensionError(
            f"refusing to materialize {op.nqubits} qubits (threshold {threshold})"
        )
    if isinstance(op, Dense):
        return op.matrix.copy()
    return _walk(op, 0, np.eye(2**op.nqubits, dtype=complex))


def compact_operator(op: QOperator, threshold: int = DENSE_THRESHOLD) -> QOperator:
    """Materialize every subtree at or below the threshold into one Dense leaf.

    Semantically a no-op (same unitary). Building a leaf walks all 2^n
    basis columns through the subtree, so it pays off only for a
    sub-circuit that repeats work, such as the singular value transform,
    which applies one encoding and its adjoint d times. The filter makes
    no call to it: `inversion` builds that transform as one dense leaf
    itself at or below the threshold, by a cheaper chain than this one.
    It stays a public utility for callers that compact a tree of their
    own (and the benchmark's tracer counts its calls).
    """
    if op.nqubits <= threshold:
        if isinstance(op, Dense):
            return op
        return Dense(materialize(op, threshold))
    if isinstance(op, Product):
        return Product(tuple(compact_operator(c, threshold) for c in op.children))
    if isinstance(op, Select):
        return Select(
            compact_operator(op.u0, threshold), compact_operator(op.u1, threshold)
        )
    if isinstance(op, Extend):
        return Extend(compact_operator(op.child, threshold), op.total, op.wires)
    return op


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def unitarity_residual(op: QOperator, nstates: int = 16, seed: int = 0) -> float:
    """max over random states of || U^dag U psi - psi ||_2."""
    rng = np.random.Generator(np.random.Philox(seed))
    dim = 2**op.nqubits
    worst = 0.0
    adj = adjoint(op)
    for _ in range(nstates):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        back = apply(adj, apply(op, psi))
        worst = max(worst, float(np.linalg.norm(back - psi)))
    return worst


def op_stats(op: QOperator) -> dict:
    """Operation counts used by the per-run report: depth and node tallies."""
    counts = {"dense": 0, "product": 0, "select": 0, "extend": 0,
              "projector_phase": 0}

    def walk(node):
        kind = type(node).__name__.lower()
        key = {"dense": "dense", "product": "product", "select": "select",
               "extend": "extend", "projectorphase": "projector_phase"}[kind]
        counts[key] += 1
        if isinstance(node, Product):
            return 1 + max(walk(c) for c in node.children)
        if isinstance(node, Select):
            return 1 + max(walk(node.u0), walk(node.u1))
        if isinstance(node, Extend):
            return 1 + walk(node.child)
        return 1

    depth = walk(op)
    return {"qubits": op.nqubits, "depth": depth, **counts}
