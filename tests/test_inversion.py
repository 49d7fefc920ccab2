from dataclasses import replace

import numpy as np
import pytest

import qkalman.inversion as inversion
from helpers import (
    fraction_series_one_over_x,
    inverse_poly_at_degree,
    materialize_block,
    philox,
    rand_with_sigma,
    stacked_insertions,
    stacked_residual_and_jac,
    stacked_response,
)
from qkalman.block_encoding import decode, encode_data_structure, encode_svd_dilation
from qkalman.errors import (
    ApproximationError,
    DimensionError,
    ParityError,
    SigmaRangeError,
    SolverError,
)
from qkalman.inversion import (
    ChebPoly,
    PhaseFactors,
    be_invert,
    clear_cache,
    eval_cheb,
    format_angles,
    inverse_poly,
    qsp_response,
    qsvt_apply,
    smoothing_order,
    solve_phase_factors,
)
from qkalman.tensor_ops import (
    DENSE_THRESHOLD,
    Dense,
    adjoint,
    op_stats,
    unitarity_residual,
)


def small_target_poly(seed=42, degree=7):
    """Random odd polynomial safely inside the solvable band."""
    rng = philox(seed)
    coeffs = rng.standard_normal((degree + 1) // 2)
    probe = ChebPoly(coeffs, degree, 2.0, 1.0, 0.0)
    grid = np.linspace(-1, 1, 2001)
    coeffs = 0.9 * coeffs / np.max(np.abs(eval_cheb(probe, grid)))
    return ChebPoly(coeffs, degree, 2.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# polynomial construction
# ---------------------------------------------------------------------------

def test_smoothing_order_demo_value():
    assert smoothing_order(3.5, 0.01) == 72


def test_inverse_poly_demo_construction():
    poly = inverse_poly(3.5, 0.01)
    assert poly.degree == 57
    # scale within 10% of the reference construction's 5.40127692
    assert poly.scale == pytest.approx(5.40127692, rel=0.10)
    # achieved (unscaled) error within the requested tolerance
    assert poly.eps_prime * poly.scale <= 0.01
    xs = np.linspace(1 / 3.5, 1.0, 400)
    err = np.max(np.abs(poly.scale * np.asarray(eval_cheb(poly, xs)) - 1 / xs))
    assert err <= 0.01


def test_inverse_poly_rejects_bad_parameters():
    with pytest.raises(ApproximationError):
        inverse_poly(0.9, 0.01)
    with pytest.raises(ApproximationError):
        inverse_poly(3.5, 1.5)
    with pytest.raises(ApproximationError):
        inverse_poly(30.0, 1e-4, degree_cap=51)


@pytest.mark.parametrize("kappa", [np.inf, np.nan, 1e200, 1e152])
def test_inverse_poly_rejects_non_finite_or_overflowing_kappa(kappa):
    # inf and nan are refused up front; at 1e200 kappa^2 overflows, and at
    # 1e152 the degree bound's 4b/eps' does
    with pytest.raises(ApproximationError):
        inverse_poly(kappa, 0.01)


def test_untruncated_series_matches_smoothed_reciprocal():
    # with every term kept, scale*p(x) must equal (1 - (1-x^2)^b)/x exactly
    kappa, eps = 1.5, 0.3
    b = smoothing_order(kappa, eps)
    poly = inverse_poly_at_degree(kappa, eps, 2 * b - 1)
    xs = np.linspace(-1, 1, 501)[1:-1]
    xs = xs[np.abs(xs) > 1e-3]
    want = (1 - (1 - xs**2) ** b) / xs
    got = poly.scale * np.asarray(eval_cheb(poly, xs))
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("kappa,eps", [(3.5, 1e-2), (12.0, 1e-3)])
def test_series_max_matches_a_dense_scan(kappa, eps):
    degree = inverse_poly(kappa, eps).degree
    odd = inversion._odd_series_one_over_x(smoothing_order(kappa, eps))
    odd = odd[: (degree + 1) // 2]
    full = np.zeros(degree + 1)
    full[1::2] = odd
    xs = np.linspace(-1.0, 1.0, 200001)
    i = int(np.argmax(np.abs(np.polynomial.chebyshev.chebval(xs, full))))
    xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 200001)
    want = np.max(np.abs(np.polynomial.chebyshev.chebval(xs, full)))
    assert inversion._series_max(odd) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("b", [1, 2, 3, 17, 231, 1485])
def test_series_prefix_matches_fraction_reference(b):
    # exact-integer tails and one rounded division give the Fraction values
    # bit for bit; a count past b is clipped to b
    want = fraction_series_one_over_x(b)
    np.testing.assert_array_equal(inversion._odd_series_one_over_x(b), want)
    for count in (b // 2, b, b + 3):
        got = inversion._odd_series_one_over_x(b, count)
        np.testing.assert_array_equal(got, want[:count])


def test_truncation_error_decreases_with_degree():
    errs = []
    for d in (21, 41, 57):
        poly = inverse_poly_at_degree(3.5, 0.01, d)
        errs.append(poly.eps_prime * poly.scale)
    assert errs[0] > errs[1] > errs[2]


def test_eval_cheb_matches_reference_clenshaw():
    rng = philox(13)
    coeffs = rng.standard_normal(5)
    poly = ChebPoly(coeffs, 9, 2.0, 1.0, 0.0)
    full = np.zeros(10)
    full[1::2] = coeffs
    xs = np.linspace(-1, 1, 101)
    want = np.polynomial.chebyshev.chebval(xs, full)
    np.testing.assert_allclose(np.asarray(eval_cheb(poly, xs)), want, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 9, 151, 501])
def test_clenshaw_odd_matches_chebval(degree):
    # the half-length V_j recurrence against numpy on the full coefficient
    # vector, at points that include 0, the ends and 1/kappa
    rng = philox(100 + degree)
    odd = rng.standard_normal((degree + 1) // 2)
    full = np.zeros(degree + 1)
    full[1::2] = odd
    xs = np.concatenate([[0.0, 1.0, -1.0, 1 / 13.0, -1 / 13.0],
                         np.linspace(-1, 1, 2001), rng.uniform(-1, 1, 500)])
    got = inversion._clenshaw_odd(odd, xs)
    want = np.polynomial.chebyshev.chebval(xs, full)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.sum(np.abs(odd)))
    assert np.array_equal(inversion._clenshaw_odd(odd, -xs), -got)


def test_eval_cheb_rejects_out_of_domain():
    poly = ChebPoly([1.0], 1, 2.0, 1.0, 0.0)
    with pytest.raises(SigmaRangeError):
        eval_cheb(poly, 1.5)


def test_chebpoly_validation():
    with pytest.raises(ParityError):
        ChebPoly([1.0], 2, 2.0, 1.0, 0.0)
    with pytest.raises(DimensionError):
        ChebPoly([1.0, 0.0], 1, 2.0, 1.0, 0.0)
    with pytest.raises(ParityError):
        inverse_poly_at_degree(3.5, 0.01, 10)


# ---------------------------------------------------------------------------
# phases and responses
# ---------------------------------------------------------------------------

def test_known_degree_one_phases_give_identity_polynomial():
    phi = PhaseFactors([np.pi / 4, -np.pi / 4])
    xs = np.linspace(-1, 1, 41)
    resp = np.array([qsp_response(phi, x) for x in xs])
    np.testing.assert_allclose(resp.real, xs, atol=1e-12)
    np.testing.assert_allclose(resp.imag, 0.0, atol=1e-12)


def test_solver_reproduces_small_target():
    poly = small_target_poly()
    phi = solve_phase_factors(poly)
    assert phi.degree == poly.degree
    assert phi.residual <= 1e-6
    xs = np.linspace(-1, 1, 301)
    resp = np.array([qsp_response(phi, x) for x in xs])
    np.testing.assert_allclose(resp.real, np.asarray(eval_cheb(poly, xs)),
                               atol=1e-7)


def test_solver_cache_returns_same_object():
    poly = small_target_poly()
    assert solve_phase_factors(poly) is solve_phase_factors(poly)


def test_solver_rescales_oversized_targets():
    # |p| exceeds 1, so the solver clamps it just under the bound
    poly = ChebPoly([1.2], 1, 2.0, 1.0, 0.0)
    phi = solve_phase_factors(poly)
    resp = qsp_response(phi, 0.5)
    assert resp.real == pytest.approx(0.5, abs=1e-7)


@pytest.mark.parametrize(
    "kappa,eps",
    [(k, e) for k in (1.5, 2.0, 3.5, 5.0, 8.0) for e in (1e-2, 1e-3)]
    + [(14.3, 1e-2)])
def test_solver_inverse_poly_sweep(kappa, eps):
    # degrees 23..185, plus 283 (kappa 14.3), the top of the margin
    # policy's range: exact Newton from the standard start takes 16 steps
    # on each of these (the kernel computes the insertion at k once and
    # doubles it for its mirror d - k, which is exact for palindromic
    # phases), and the response matches p on a dense grid
    poly = inverse_poly(kappa, eps)
    phi = solve_phase_factors(poly)
    assert phi.degree == poly.degree
    assert phi.residual <= 1e-6
    assert phi.iterations <= 20
    xs = np.linspace(-1, 1, 2001)
    np.testing.assert_allclose(qsp_response(phi, xs).real,
                               np.asarray(eval_cheb(poly, xs)), atol=1e-8)


@pytest.mark.parametrize("degree", [1, 3, 9, 57, 105, 283, 415])
def test_residual_and_jac_match_stacked_products(degree):
    # the half-length kernel against the stacked 2x2 reference, and two
    # Jacobian columns against central differences
    rng = philox(degree)
    half = (degree + 1) // 2
    free = rng.uniform(-np.pi, np.pi, half)
    nodes = np.cos((2 * np.arange(1, half + 1) - 1) * np.pi / (4 * half))
    target = rng.uniform(-1, 1, half)
    r, jac = inversion._residual_and_jac(free, nodes, target)
    r_ref, jac_ref = stacked_residual_and_jac(free, nodes, target)
    assert jac.shape == (half, half)
    np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(jac, jac_ref, rtol=0, atol=1e-12)
    h = 1e-6
    for m in {0, half - 1}:
        step = np.zeros(half)
        step[m] = h
        up, _ = inversion._residual_and_jac(free + step, nodes, target)
        down, _ = inversion._residual_and_jac(free - step, nodes, target)
        np.testing.assert_allclose(jac[:, m], (up - down) / (2 * h),
                                   rtol=0, atol=1e-6)


@pytest.mark.parametrize("degree", [1, 9, 57, 283])
def test_mirrored_insertions_are_equal(degree):
    # the identity the kernel's doubled Jacobian columns rest on, checked on
    # the stacked reference alone: for palindromic phases the insertion at
    # k = d - m equals the one at k = m
    rng = philox(300 + degree)
    half = (degree + 1) // 2
    nodes = np.cos((2 * np.arange(1, half + 1) - 1) * np.pi / (4 * half))
    free = rng.uniform(-np.pi, np.pi, half)
    _, ins = stacked_insertions(np.concatenate([free, free[::-1]]), nodes)
    np.testing.assert_allclose(ins[:half], ins[::-1][:half], rtol=0, atol=1e-12)
    if degree > 1:
        # a skewed angle vector breaks it (at degree 1 both insertions are
        # i U_00 for any angles, since <0|Z = <0| and Z|0> = |0>)
        skewed = np.concatenate([free, free[::-1] + rng.uniform(0.1, 0.5, half)])
        _, ins = stacked_insertions(skewed, nodes)
        assert np.max(np.abs(ins[:half] - ins[::-1][:half])) > 1e-3


@pytest.mark.parametrize("convention", ["wx"])
@pytest.mark.parametrize("degree", [1, 9, 57, 283])
def test_response_batch_matches_stacked_products(degree, convention):
    # the row-0 recurrence against the full stacked 2x2 product
    rng = philox(200 + degree)
    angles = rng.uniform(-np.pi, np.pi, degree + 1)
    xs = np.concatenate([[0.0, 1.0, -1.0], rng.uniform(-1, 1, 200)])
    np.testing.assert_allclose(
        inversion._response_batch(angles, xs),
        stacked_response(angles, xs, convention), rtol=0, atol=1e-13)


def test_solve_cache_keeps_the_32_most_recent():
    # polynomials and phase lists share one LRU of _CACHE_SIZE entries
    clear_cache()
    size = inversion._CACHE_SIZE
    assert size == 32
    kappas = [2.0 + 0.01 * i for i in range(size // 2)]
    polys = [inverse_poly(k, 0.1) for k in kappas]
    targets = [ChebPoly([0.5 + 0.01 * i], 1, 2.0, 1.0, 0.0)
               for i in range(size // 2)]
    phis = [solve_phase_factors(t) for t in targets]
    assert len(inversion._cache) == size
    assert solve_phase_factors(targets[-1]) is phis[-1]
    # polys[0] is the oldest entry; a hit refreshes it, so the next insert
    # evicts polys[1] instead
    assert inverse_poly(kappas[0], 0.1) is polys[0]
    solve_phase_factors(ChebPoly([0.1], 1, 2.0, 1.0, 0.0))
    assert len(inversion._cache) == size
    assert inverse_poly(kappas[0], 0.1) is polys[0]
    assert solve_phase_factors(targets[0]) is phis[0]
    assert inverse_poly(kappas[1], 0.1) is not polys[1]  # evicted, built anew


def test_clear_cache_forgets_polynomials_and_phases():
    poly = inverse_poly(3.0, 0.05)
    phi = solve_phase_factors(poly)
    assert inverse_poly(3.0, 0.05) is poly
    assert solve_phase_factors(poly) is phi
    clear_cache()
    assert inverse_poly(3.0, 0.05) is not poly
    assert solve_phase_factors(poly) is not phi


def test_solver_raises_on_stall(monkeypatch):
    monkeypatch.setattr(inversion, "_NEWTON_MAXITER", 2)
    with pytest.raises(SolverError) as info:
        solve_phase_factors(small_target_poly(seed=43, degree=9))
    assert info.value.exit_code == 7
    assert info.value.residual > 1e-8


def test_solver_raises_on_singular_step(monkeypatch):
    real = inversion._residual_and_jac

    def singular(free, x, target):
        r, jac = real(free, x, target)
        return r, np.zeros_like(jac)

    monkeypatch.setattr(inversion, "_residual_and_jac", singular)
    with pytest.raises(SolverError) as info:
        solve_phase_factors(small_target_poly(seed=44, degree=9))
    assert info.value.exit_code == 7


def test_solver_raises_on_failed_verification(monkeypatch):
    # a response that misses p at the order-d nodes must not be returned
    monkeypatch.setattr(inversion, "_response_batch",
                        lambda angles, x: np.zeros(x.size, complex))
    with pytest.raises(SolverError) as info:
        solve_phase_factors(small_target_poly(seed=45, degree=9))
    assert info.value.residual > 1e-6


def test_response_parity_and_boundedness():
    phi = solve_phase_factors(small_target_poly())
    rng = philox(14)
    xs = rng.uniform(-1, 1, 100)
    for x in xs:
        plus = qsp_response(phi, x)
        minus = qsp_response(phi, -x)
        assert abs(minus + plus) < 1e-10  # odd degree: p(-x) = -p(x)
    grid = np.linspace(-1, 1, 1001)
    mags = np.abs(np.array([qsp_response(phi, x) for x in grid]))
    assert np.max(mags) <= 1 + 1e-10


def test_reflection_convention_matches_wx():
    # the circuit's reflection angles, run through the reflection-form
    # reference (which adds the global phase i^d), give the W_x response
    phi = solve_phase_factors(small_target_poly())
    xs = np.linspace(-1, 1, 101)
    refl = inversion._reflection_angles(phi.angles)
    np.testing.assert_allclose(stacked_response(refl, xs, "reflection"),
                               qsp_response(phi, xs), rtol=0, atol=1e-10)


def test_format_angles_round_trip():
    phi = solve_phase_factors(small_target_poly())
    text = format_angles(phi)
    values = [float(line) for line in text.strip().splitlines()]
    np.testing.assert_allclose(values, phi.angles, atol=1e-15)


# ---------------------------------------------------------------------------
# the transform circuit
# ---------------------------------------------------------------------------

def test_qsvt_identity_polynomial_reproduces_block():
    # p(x) = x has a real response: the -Phi circuit gives the same block,
    # and the Hadamard-combined average reproduces it
    rng = philox(15)
    m = rand_with_sigma(rng, [0.9, 0.4])
    be = encode_svd_dilation(m)
    out = qsvt_apply(be, PhaseFactors([np.pi / 4, -np.pi / 4]))
    assert out.ancillas == be.ancillas + 1
    assert out.alpha == pytest.approx(1.0)
    np.testing.assert_allclose(decode(out), m, atol=1e-10)


def test_qsvt_transforms_singular_values():
    # oracle: decoded block must equal U p(Sigma) V^T from the input SVD
    poly = small_target_poly()
    phi = solve_phase_factors(poly)
    rng = philox(16)
    count = 0
    for trial in range(50):
        dim = [2, 4, 8][trial % 3]
        sigma = rng.uniform(0.15, 0.95, size=dim)
        m = rand_with_sigma(rng, sigma)
        u, s, vt = np.linalg.svd(m)
        be = encode_svd_dilation(m)
        out = qsvt_apply(be, phi)
        want = u @ np.diag(np.asarray(eval_cheb(poly, s))) @ vt
        np.testing.assert_allclose(decode(out), want, atol=1e-6)
        count += 1
    assert count == 50


def test_qsvt_rejects_bad_inputs():
    m = np.diag([0.5, 0.25])
    be = encode_svd_dilation(m)
    with pytest.raises(ParityError):
        qsvt_apply(be, PhaseFactors([0.1, 0.2, 0.3]))  # degree 2
    fuzzy = type(be)(be.op, be.alpha, be.ancillas, be.system_qubits, 0.01)
    with pytest.raises(ApproximationError):
        qsvt_apply(fuzzy, PhaseFactors([np.pi / 4, -np.pi / 4]))
    from qkalman.tensor_ops import Dense
    stretched = type(be)(Dense(np.eye(4) * 1.2), 1.0, 1, 1)  # block norm 1.2
    with pytest.raises(SigmaRangeError):
        qsvt_apply(stretched, PhaseFactors([np.pi / 4, -np.pi / 4]))


ENCODERS = {"data_structure": encode_data_structure,
            "svd_dilation": encode_svd_dilation}


@pytest.mark.parametrize("degree", [1, 3, 57])
@pytest.mark.parametrize("encoding", sorted(ENCODERS))
@pytest.mark.parametrize("s", [1, 2, 3])
def test_dense_sign_circuits_match_the_lazy_circuits(s, encoding, degree):
    # at or below the threshold the whole transform (the Hadamard average
    # of the Phi and -Phi circuits) is one dense leaf, and it must be the
    # unitary of the lazy H Select H circuit
    rng = philox(1000 * s + degree)
    be = ENCODERS[encoding](rand_with_sigma(rng, rng.uniform(0.1, 0.95, 2**s)))
    assert be.op.nqubits <= DENSE_THRESHOLD
    angles = rng.uniform(-np.pi, np.pi, degree + 1)
    leaf = inversion._transform(be, PhaseFactors(angles)).op
    assert isinstance(leaf, Dense) and leaf.nqubits == be.op.nqubits + 1
    lazy = inversion._qsvt_circuit(be.op, adjoint(be.op), be.ancillas, angles)
    idx = range(2**leaf.nqubits)
    np.testing.assert_allclose(leaf.matrix, materialize_block(lazy, idx, idx),
                               rtol=0, atol=1e-12)
    assert unitarity_residual(leaf) <= 1e-12


@pytest.mark.parametrize("s", [2, 4])
def test_be_invert_copies_the_encoding_leaf_once(s, monkeypatch):
    # one adjoint of the 2s-qubit encoding leaf serves as U, the leaf
    # itself as U^dag; at s = 2 the inverse is one leaf on 2s+1 qubits
    rng = philox(1100 + s)
    be = encode_data_structure(rand_with_sigma(rng, rng.uniform(0.5, 1.0, 2**s)))
    sigma = np.linalg.svd(decode(be) / be.alpha, compute_uv=False)
    poly = inverse_poly(1.1 / sigma[-1], 0.01)
    phi = solve_phase_factors(poly)
    widths = []
    post_init = Dense.__post_init__

    def spy(self):
        post_init(self)
        widths.append(self.nqubits)

    monkeypatch.setattr(Dense, "__post_init__", spy)
    out = be_invert(be, poly, phi)
    monkeypatch.undo()
    assert widths.count(2 * s) == 1
    assert isinstance(out.op, Dense) == (s == 2)


def test_transform_stays_lazy_above_the_dense_threshold():
    rng = philox(1004)
    be = encode_data_structure(rand_with_sigma(rng, rng.uniform(0.1, 0.95, 16)))
    assert be.op.nqubits > DENSE_THRESHOLD
    d = 9
    out = inversion._transform(be, PhaseFactors(rng.uniform(-np.pi, np.pi, d + 1)))
    stats = op_stats(out.op)
    assert stats["projector_phase"] == 2 * (d + 2)
    # one leaf per application of U or U^dag in each circuit, plus the
    # two Hadamards of the select
    assert stats["dense"] == 2 * d + 2


def test_be_invert_random_matrices():
    kappa, eps = 2.5, 0.01
    poly = inverse_poly(kappa, eps)
    phi = solve_phase_factors(poly)
    rng = philox(17)
    for trial in range(20):
        dim = 2 if trial % 2 == 0 else 4
        sigma = rng.uniform(1 / kappa + 0.02, 0.98, size=dim)
        m_scaled = rand_with_sigma(rng, sigma)
        alpha = rng.uniform(0.5, 20.0)
        be = encode_svd_dilation(m_scaled, alpha=alpha)
        inv = be_invert(be, poly, phi)
        assert inv.alpha == pytest.approx(poly.scale / alpha, rel=1e-12)
        assert inv.eps == pytest.approx(poly.eps_prime * inv.alpha, rel=1e-12)
        target = np.linalg.inv(alpha * m_scaled)
        gap = np.linalg.norm(decode(inv) - target, 2)
        assert gap <= inv.eps + 1e-9


def test_be_invert_rejects_out_of_range_sigma():
    poly = inverse_poly(2.5, 0.01)
    be = encode_svd_dilation(np.diag([0.9, 0.1]))  # 0.1 < 1/2.5
    with pytest.raises(SigmaRangeError):
        be_invert(be, poly, solve_phase_factors(poly))


def test_be_invert_sigma_window_comes_from_poly_kappa():
    # the same phases on the same encoding are refused or accepted by the
    # kappa the polynomial records: the window is [1/poly.kappa, 1]
    poly = inverse_poly(2.5, 0.01)
    phi = solve_phase_factors(poly)
    be = encode_svd_dilation(np.diag([0.9, 0.3]))  # 0.3 < 1/2.5
    with pytest.raises(SigmaRangeError) as info:
        be_invert(be, poly, phi)
    assert (info.value.sigma, info.value.lo) == (pytest.approx(0.3), 1 / 2.5)
    inv = be_invert(be, replace(poly, kappa=4.0), phi)
    assert inv.alpha == poly.scale
