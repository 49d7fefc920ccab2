import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import _apply_batch, materialize_block, philox, rand_orthogonal
from qkalman import tensor_ops
from qkalman.errors import DimensionError, NumericalFailureError
from qkalman.tensor_ops import (
    Dense,
    Extend,
    Product,
    ProjectorPhase,
    Select,
    adjoint,
    ancilla_block,
    apply,
    compact_operator,
    identity_op,
    materialize,
    op_stats,
    unitarity_residual,
)


def rand_unitary_op(rng, n):
    return Dense(rand_orthogonal(rng, 2**n).astype(complex))


def test_dense_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        Dense(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        Dense(np.ones((3, 3)))
    with pytest.raises(NumericalFailureError):
        Dense(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(DimensionError, match="^expected a matrix, got ndim=3$"):
        tensor_ops.as_matrix(np.ones((2, 2, 2)))


def test_product_applies_right_to_left():
    rng = philox(0)
    a, b = rand_unitary_op(rng, 1), rand_unitary_op(rng, 1)
    got = materialize(Product((a, b)))
    np.testing.assert_allclose(got, a.matrix @ b.matrix, atol=1e-14)


def test_product_requires_matching_children():
    with pytest.raises(DimensionError):
        Product((identity_op(1), identity_op(2)))
    with pytest.raises(DimensionError, match="^Product needs at least one child$"):
        Product(())
    with pytest.raises(DimensionError,
                       match="^Select branches must share a qubit count$"):
        Select(identity_op(1), identity_op(2))


def test_adjoint_is_conjugate_transpose():
    rng = philox(1)
    u = rand_unitary_op(rng, 2)
    np.testing.assert_allclose(materialize(adjoint(u)), u.matrix.conj().T,
                               atol=1e-14)


def test_adjoint_rewrite_matches_node():
    rng = philox(2)
    op = Product((rand_unitary_op(rng, 1),
                  Select(rand_unitary_op(rng, 0), rand_unitary_op(rng, 0))))
    np.testing.assert_allclose(materialize(adjoint(op)),
                               materialize(op).conj().T, atol=1e-13)


def test_select_is_block_diagonal():
    rng = philox(3)
    u0, u1 = rand_unitary_op(rng, 1), rand_unitary_op(rng, 1)
    got = materialize(Select(u0, u1))
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = u0.matrix
    want[2:, 2:] = u1.matrix
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_extend_places_child_on_wires():
    rng = philox(4)
    u = rand_unitary_op(rng, 1)
    # child on the least significant wire of two
    got = materialize(Extend(u, 2, (1,)))
    np.testing.assert_allclose(got, np.kron(np.eye(2), u.matrix), atol=1e-14)
    # child on the most significant wire
    got = materialize(Extend(u, 2, (0,)))
    np.testing.assert_allclose(got, np.kron(u.matrix, np.eye(2)), atol=1e-14)


def test_extend_wire_swap_transposes_tensor_factors():
    rng = philox(5)
    u = rand_unitary_op(rng, 2)
    swapped = materialize(Extend(u, 2, (1, 0)))
    m = u.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    np.testing.assert_allclose(swapped, m, atol=1e-14)


def test_extend_zero_qubit_child_is_scalar():
    # identity_op wraps a 1x1 matrix; the empty-wire path must still apply
    got = materialize(identity_op(2))
    np.testing.assert_allclose(got, np.eye(4), atol=1e-15)


def test_extend_validates_wires():
    u = Dense(np.eye(2, dtype=complex))
    with pytest.raises(DimensionError):
        Extend(u, 2, (0, 1))
    with pytest.raises(DimensionError):
        Extend(u, 2, (2,))
    with pytest.raises(DimensionError):
        Extend(u, 1, (0, 0))
    with pytest.raises(DimensionError, match="^Extend wires must be distinct$"):
        Extend(Dense(np.eye(4)), 3, (1, 1))


@pytest.mark.parametrize("wires, message", [
    ((0, 0), "ProjectorPhase wires must be distinct"),
    ((2,), "ProjectorPhase wires out of range"),
    ((-1,), "ProjectorPhase wires out of range"),
], ids=["repeated", "above", "negative"])
def test_projector_phase_validates_wires(wires, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        ProjectorPhase(0.3, 2, wires)


def test_projector_phase_global():
    op = ProjectorPhase(0.7, 2, ())
    got = materialize(op)
    np.testing.assert_allclose(got, np.exp(1j * 0.7) * np.eye(4), atol=1e-14)


def test_projector_phase_reflects_marked_subspace():
    # exp(i phi (2P - I)) with P = |0><0| on the leading wire
    phi = 0.3
    got = materialize(ProjectorPhase(phi, 2, (0,)))
    want = np.diag([np.exp(1j * phi)] * 2 + [np.exp(-1j * phi)] * 2)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_apply_checks_state_shape():
    with pytest.raises(DimensionError):
        apply(identity_op(2), np.ones(3))


def test_apply_matches_materialize():
    rng = philox(6)
    op = Product((
        Extend(rand_unitary_op(rng, 1), 3, (1,)),
        Select(rand_unitary_op(rng, 2), rand_unitary_op(rng, 2)),
        ProjectorPhase(0.4, 3, (0, 1)),
    ))
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    want = _apply_batch(op, vec.reshape(-1, 1))[:, 0]
    np.testing.assert_allclose(apply(op, vec), want, atol=1e-12)
    np.testing.assert_allclose(materialize(op) @ vec, want, atol=1e-12)


def test_materialize_copies_a_dense_leaf():
    u = Dense(rand_orthogonal(philox(8), 4))
    got = materialize(u)
    assert np.array_equal(got, u.matrix) and got is not u.matrix
    got[0, 0] = 7.0
    assert u.matrix[0, 0] != 7.0


def test_materialize_refuses_large_operators():
    with pytest.raises(DimensionError):
        materialize(identity_op(12))


def test_materialize_block_selects_entries():
    rng = philox(7)
    u = rand_unitary_op(rng, 3)
    got = materialize_block(u, [0, 3], [1, 2])
    np.testing.assert_allclose(got, u.matrix[np.ix_([0, 3], [1, 2])],
                               atol=1e-14)
    with pytest.raises(DimensionError):
        materialize_block(u, [8], [0])


def test_compact_preserves_action_and_drops_adjoints():
    rng = philox(8)
    inner = Product((
        adjoint(rand_unitary_op(rng, 2)),
        Select(rand_unitary_op(rng, 1), rand_unitary_op(rng, 1)),
    ))
    op = Extend(inner, 3, (0, 2))
    compacted = compact_operator(op)
    np.testing.assert_allclose(materialize(compacted), materialize(op),
                               atol=1e-12)


def test_compact_materializes_small_trees():
    rng = philox(9)
    op = Product((rand_unitary_op(rng, 2), rand_unitary_op(rng, 2)))
    compacted = compact_operator(op)
    assert isinstance(compacted, Dense)


def test_unitarity_residual_flags_non_unitaries():
    rng = philox(10)
    good = rand_unitary_op(rng, 2)
    assert unitarity_residual(good) < 1e-12
    bad = Dense(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex))
    assert unitarity_residual(bad) > 1e-2


def _residual_per_state(op, nstates):
    # one walk per state and direction, drawing from the same Philox stream
    rng = philox(0)
    dim = 2**op.nqubits
    adj = adjoint(op)
    worst = 0.0
    for _ in range(nstates):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        worst = max(worst, float(np.linalg.norm(apply(adj, apply(op, psi)) - psi)))
    return worst


@pytest.mark.parametrize("nstates", [1, 4, 16])
def test_unitarity_residual_walks_once_per_direction(monkeypatch, nstates):
    calls = []
    walk = tensor_ops._walk

    def spy(op, ancillas, start):
        calls.append(start.shape)
        return walk(op, ancillas, start)

    monkeypatch.setattr(tensor_ops, "_walk", spy)
    op = rand_tree(philox(13), 4, 3)
    assert unitarity_residual(op, nstates=nstates) < 1e-12
    assert calls == [(16, nstates)] * 2


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 6), depth=st.integers(0, 4), nstates=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_unitarity_residual_matches_a_per_state_loop(n, depth, nstates, seed):
    rng = philox(seed)
    op = rand_tree(rng, n, depth)
    bad = Product((op, Dense(np.diag(rng.uniform(0.5, 1.0, 2**n)))))
    for tree in (op, bad):
        assert abs(unitarity_residual(tree, nstates=nstates)
                   - _residual_per_state(tree, nstates)) <= 1e-15


def test_op_stats_counts_nodes():
    op = Product((identity_op(2), adjoint(identity_op(2))))
    stats = op_stats(op)
    assert set(stats) == {"qubits", "depth", "dense", "product", "select",
                          "extend", "projector_phase"}
    assert stats["qubits"] == 2
    assert stats["depth"] == 3
    assert stats["product"] == 1
    assert stats["extend"] == 2
    assert stats["dense"] == 2


# ---------------------------------------------------------------------------
# ancilla-zero block
# ---------------------------------------------------------------------------

def rand_tree(rng, n, depth):
    """Random operator tree on n qubits using every node type."""
    kinds = ["dense", "extend", "phase"]
    if depth > 0:
        kinds += ["product", "adjoint", "extend"] + (["select"] if n > 0 else [])
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "dense":
        return rand_unitary_op(rng, n)
    if kind == "phase":
        wires = rng.permutation(n)[: int(rng.integers(n + 1))]
        return ProjectorPhase(float(rng.uniform(-np.pi, np.pi)), n, tuple(wires))
    if kind == "product":
        return Product(tuple(rand_tree(rng, n, depth - 1)
                             for _ in range(int(rng.integers(2, 4)))))
    if kind == "adjoint":
        return adjoint(rand_tree(rng, n, depth - 1))
    if kind == "select":
        return Select(rand_tree(rng, n - 1, depth - 1),
                      rand_tree(rng, n - 1, depth - 1))
    k = int(rng.integers(n + 1))
    return Extend(rand_tree(rng, k, max(depth - 1, 0)), n,
                  tuple(rng.permutation(n)[:k]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), depth=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_ancilla_block_matches_materialize_block(n, depth, seed):
    op = rand_tree(philox(seed), n, depth)
    np.testing.assert_allclose(materialize(adjoint(op)), materialize(op).conj().T,
                               atol=1e-12)
    for ancillas in range(n + 1):
        idx = range(2 ** (n - ancillas))
        np.testing.assert_allclose(ancilla_block(op, ancillas, idx),
                                   materialize_block(op, idx, idx), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 6), depth=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_walk_entry_points_match_the_full_register_reference(n, depth, seed):
    # apply, materialize and a walk with no ancillas all run through the
    # one executor; the full-register dispatch in helpers is the reference
    rng = philox(seed)
    op = rand_tree(rng, n, depth)
    dim = 2**n
    want = _apply_batch(op, np.eye(dim, dtype=complex))
    np.testing.assert_allclose(materialize(op), want, rtol=0, atol=1e-12)
    cols = rng.permutation(dim)[: int(rng.integers(1, dim + 1))]
    np.testing.assert_allclose(ancilla_block(op, 0, cols), want[:, cols],
                               rtol=0, atol=1e-12)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    np.testing.assert_allclose(apply(op, vec), want @ vec, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 6), depth=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_node_acts_as_identity_outside_its_support(n, depth, seed):
    op = rand_tree(philox(seed), n, depth)
    assert adjoint(op).support == op.support
    assert op.support <= set(range(n))
    m = materialize(op).reshape((2,) * (2 * n))
    for w in set(range(n)) - op.support:  # output axis w, input axis n + w
        block = [[np.take(np.take(m, i, axis=n + w), o, axis=w) for i in (0, 1)]
                 for o in (0, 1)]
        np.testing.assert_array_equal(block[0][1], 0)
        np.testing.assert_array_equal(block[1][0], 0)
        np.testing.assert_allclose(block[0][0], block[1][1], rtol=0, atol=1e-12)


def test_ancilla_block_select_on_untouched_control_is_u0():
    rng = philox(11)
    u0, u1 = rand_unitary_op(rng, 2), rand_unitary_op(rng, 2)
    got = ancilla_block(Select(u0, u1), 1, [3, 0])
    np.testing.assert_allclose(got, u0.matrix[:, [3, 0]], atol=1e-15)


def test_ancilla_block_projects_flipped_ancilla_to_zero():
    flip = Dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    op = Product((Extend(rand_unitary_op(philox(12), 1), 2, (1,)),
                  Extend(flip, 2, (0,))))
    np.testing.assert_allclose(ancilla_block(op, 1, [0, 1]), 0.0, atol=0)


def test_ancilla_block_validates_arguments():
    op = identity_op(3)
    with pytest.raises(DimensionError):
        ancilla_block(op, 1, [4])
    with pytest.raises(DimensionError):
        ancilla_block(op, 4, [0])
    assert ancilla_block(op, 3, [0]).shape == (1, 1)
