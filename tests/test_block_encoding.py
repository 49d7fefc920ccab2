from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import encode_data_structure_qr, materialize_block, philox, rand_with_sigma
from qkalman.arithmetic import be_add, be_adjoint, be_multiply, be_negate
from qkalman.block_encoding import (
    BlockEncoding,
    _state_preparations,
    decode,
    encode_data_structure,
    encode_svd_dilation,
    encode_zero,
    pad_to_square,
)
from qkalman.errors import (
    DegenerateInputError,
    DimensionError,
    SigmaRangeError,
)
from qkalman.inversion import be_invert, inverse_poly, solve_phase_factors
from qkalman.tensor_ops import (
    Dense,
    ancilla_block,
    compact_operator,
    identity_op,
    unitarity_residual,
)


def test_pad_to_square_embeds_top_left():
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = pad_to_square(m, 2)
    assert out.shape == (4, 4)
    np.testing.assert_allclose(out[:3, :2], m)
    assert np.all(out[3:, :] == 0) and np.all(out[:, 2:] == 0)
    with pytest.raises(DimensionError):
        pad_to_square(m, 1)


def test_encode_demo_matrix_golden():
    a = np.array([[1.0, -1.0], [1.0, 1.0]])
    be = encode_data_structure(a)
    assert be.alpha == pytest.approx(2.0, abs=1e-12)
    assert be.ancillas == 1 and be.system_qubits == 1
    np.testing.assert_allclose(decode(be), a, atol=1e-12)


def test_encode_is_column_oriented_not_transposed():
    # a non-symmetric matrix pins the orientation: entry (0,1) must come
    # back as 2, not as the (1,0) entry 3
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    block = decode(encode_data_structure(m))
    assert block[0, 1] == pytest.approx(2.0, abs=1e-12)
    assert block[1, 0] == pytest.approx(3.0, abs=1e-12)


def test_encode_handles_zero_columns():
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(decode(encode_data_structure(m)), m, atol=1e-12)


def test_encode_rejects_zero_and_odd_shapes():
    with pytest.raises(DegenerateInputError):
        encode_data_structure(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        encode_data_structure(np.ones((3, 3)))
    with pytest.raises(DimensionError):
        encode_data_structure(np.ones((2, 4)))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_encode_random_roundtrip(s):
    rng = philox(100 + s)
    dim = 2**s
    for _ in range(5):
        m = rng.standard_normal((dim, dim))
        be = encode_data_structure(m)
        assert be.alpha == pytest.approx(np.linalg.norm(m), rel=1e-12)
        assert be.ancillas == s
        np.testing.assert_allclose(decode(be), m, atol=1e-10 * be.alpha)
        assert unitarity_residual(be.op) < 1e-10


def test_encode_complex_matrix():
    rng = philox(11)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(decode(encode_data_structure(m)), m, atol=1e-10)


def test_encode_shape_crops_decode():
    vec = np.array([[3.0], [4.0]])
    be = encode_data_structure(pad_to_square(vec, 1), shape=(2, 1))
    assert be.alpha == pytest.approx(5.0)
    out = decode(be)
    assert out.shape == (2, 1)
    np.testing.assert_allclose(out, vec, atol=1e-12)


def encoding_inputs(s):
    """Real, complex, zero-column and identity inputs on s system qubits."""
    rng = philox(500 + s)
    dim = 2**s
    zero_cols = rng.standard_normal((dim, dim))
    zero_cols[:, ::2] = 0.0
    return {
        "real": rng.standard_normal((dim, dim)),
        "complex": rng.standard_normal((dim, dim))
        + 1j * rng.standard_normal((dim, dim)),
        "zero_columns": zero_cols,
        "identity": np.eye(dim),
    }


@pytest.mark.parametrize("kind", ["real", "complex", "zero_columns", "identity"])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_encoding_is_one_leaf_with_the_qr_pairs_block(s, kind):
    # the closed-form leaf and the QR-completed pair differ only in the
    # complement: the ancilla-zero block and alpha agree bit for bit
    m = encoding_inputs(s)[kind]
    be = encode_data_structure(m)
    ref = encode_data_structure_qr(m)
    assert isinstance(be.op, Dense) and be.op.nqubits == 2 * s
    assert be.alpha == ref.alpha
    assert (be.ancillas, be.system_qubits) == (ref.ancillas, ref.system_qubits)
    cols = range(2**s)
    assert np.array_equal(ancilla_block(be.op, s, cols),
                          ancilla_block(ref.op, s, cols))
    assert np.array_equal(decode(be), decode(ref))
    assert unitarity_residual(be.op) <= 1e-14


def edge_vectors(dim):
    """e_0, -e_0, a zero first entry and a complex first entry, normalized."""
    rng = philox(600 + dim)
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    zero_first = rng.standard_normal(dim) + 0j
    zero_first[0] = 0.0
    complex_first = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vecs = np.stack([e0, -e0, zero_first, complex_first])
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


@pytest.mark.parametrize("dim", range(2, 17))
def test_state_preparations_are_unitary_and_prepare_exactly(dim):
    vecs = edge_vectors(dim)
    preps = _state_preparations(vecs)
    for v, prep in zip(vecs, preps):
        assert np.array_equal(prep[:, 0], v)
        assert np.max(np.abs(prep.conj().T @ prep - np.eye(dim))) <= 1e-14


@pytest.mark.parametrize("s", [1, 2, 3])
def test_svd_dilation_roundtrip(s):
    rng = philox(200 + s)
    dim = 2**s
    sigma = rng.uniform(0.2, 0.95, size=dim)
    m = rand_with_sigma(rng, sigma)
    alpha = 1.7
    be = encode_svd_dilation(m, alpha=alpha)
    assert be.ancillas == 1
    np.testing.assert_allclose(decode(be), alpha * m, atol=1e-10)
    assert unitarity_residual(be.op) < 1e-10


def test_svd_dilation_rejects_expansions():
    with pytest.raises(SigmaRangeError):
        encode_svd_dilation(np.diag([1.2, 0.5]))
    with pytest.raises(DimensionError, match=r"^need a 2\^s square matrix, got \(3, 3\)$"):
        encode_svd_dilation(0.1 * np.eye(3))


def test_encode_zero_decodes_to_zero():
    be = encode_zero(2, shape=(3, 3))
    assert be.alpha == 1.0
    out = decode(be)
    assert out.shape == (3, 3)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)
    assert unitarity_residual(be.op) < 1e-12
    with pytest.raises(DimensionError,
                       match="^zero encoding needs at least one ancilla$"):
        encode_zero(0)


def test_block_encoding_validates_fields():
    with pytest.raises(DimensionError):
        BlockEncoding(identity_op(2), 0.0, 1, 1)
    with pytest.raises(DimensionError):
        BlockEncoding(identity_op(2), 1.0, 1, 2)
    with pytest.raises(DimensionError):
        BlockEncoding(identity_op(2), 1.0, 1, 1, eps=-1.0)


# ---------------------------------------------------------------------------
# the ancilla-zero evaluator on encoding arithmetic
# ---------------------------------------------------------------------------

MAX_ANCILLAS = 12  # keeps the full-register reference at <= 14 qubits


@lru_cache(maxsize=None)
def inverse_leaf(s):
    """be_invert of a fixed well-conditioned matrix, built once per s."""
    m = rand_with_sigma(philox(300 + s), np.linspace(1.0, 0.6, 2**s))
    be = encode_data_structure(m)
    poly = inverse_poly(1.1 * be.alpha / 0.6, 0.01)
    return be_invert(be, poly, solve_phase_factors(poly))


def draw_encoding(data, s, depth):
    """Random composition of add, multiply, adjoint, negate and invert."""
    ops = ["add", "multiply", "adjoint", "negate"] if depth else ["leaf"]
    op = data.draw(st.sampled_from(ops))
    if op == "leaf":
        if data.draw(st.booleans()):
            return inverse_leaf(s)
        seed = data.draw(st.integers(0, 2**32 - 1))
        return encode_data_structure(philox(seed).standard_normal((2**s, 2**s)))
    if op == "adjoint":
        return be_adjoint(draw_encoding(data, s, depth - 1))
    if op == "negate":
        return be_negate(draw_encoding(data, s, depth - 1))
    left = draw_encoding(data, s, depth - 1)
    right = draw_encoding(data, s, depth - 1)
    out = (be_add if op == "add" else be_multiply)(left, right)
    return out if out.ancillas <= MAX_ANCILLAS else left


@settings(max_examples=60, deadline=None)
@given(s=st.sampled_from([1, 2]), depth=st.integers(0, 3),
       threshold=st.sampled_from([None, 2, 4, 6]), data=st.data())
def test_ancilla_block_matches_full_register_on_compositions(s, depth, threshold,
                                                             data):
    be = draw_encoding(data, s, depth)
    cols = data.draw(st.lists(st.integers(0, 2**s - 1), min_size=1,
                              max_size=2**s, unique=True))
    rows = range(2**s)
    want = materialize_block(be.op, rows, cols)
    op = be.op if threshold is None else compact_operator(be.op, threshold)
    np.testing.assert_allclose(ancilla_block(op, be.ancillas, cols), want,
                               atol=1e-12)


@pytest.mark.parametrize("stage", ["x_minus", "p_minus", "k_be", "x_hat_be",
                                   "p_hat_be"])
def test_ancilla_block_matches_full_register_on_filter_stages(worked, stage):
    be = getattr(worked, stage)
    idx = range(2**be.system_qubits)
    np.testing.assert_allclose(ancilla_block(be.op, be.ancillas, idx),
                               materialize_block(be.op, idx, idx), atol=1e-12)
    rows, cols = be.shape
    np.testing.assert_allclose(
        decode(be), be.alpha * materialize_block(be.op, range(rows), range(cols)),
        atol=1e-12 * be.alpha)
