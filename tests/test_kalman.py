import math
import tracemalloc

import numpy as np
import pytest

import qkalman.block_encoding as block_encoding
import qkalman.kalman as kalman
import qkalman.tensor_ops as tensor_ops
from helpers import model_with_innovation, philox
from qkalman.arithmetic import be_add, be_adjoint, be_multiply, be_negate
from qkalman.block_encoding import decode
from qkalman.errors import (
    ConfigError,
    DimensionError,
    MeasurementBudgetError,
    SigmaRangeError,
    SingularityError,
)
from qkalman.kalman import (
    FilterState,
    KalmanModel,
    KappaPolicy,
    NormLedger,
    classical_intermediates,
    classical_step,
    encode_matrix,
    encode_vector,
    q_filter_run,
    q_gain,
    q_predict_cov,
    q_predict_state,
    q_update_cov,
    q_update_state,
)
from qkalman.tensor_ops import Dense, ancilla_block

DEMO_KWARGS = dict(shots=1, iterations=1)


def demo_parts():
    model = KalmanModel([[1, -1], [1, 1]], [[1], [1]], [[2, 0], [0, 1]],
                        np.eye(2), np.eye(2))
    init = FilterState([2.0, 1.0], np.eye(2))
    return model, init, np.array([1.0]), np.array([1.0, 1.0])


def random_model(rng, n, spread=0.25):
    a = rng.uniform(-spread, spread, (n, n))
    b = rng.uniform(-0.5, 0.5, (n, 1))
    return KalmanModel(a, b, np.eye(n), np.eye(n), np.eye(n))


# ---------------------------------------------------------------------------
# the exact classical filter
# ---------------------------------------------------------------------------

def test_classical_demo_step_golden():
    model, init, u, z = demo_parts()
    mid = classical_intermediates(model, init, u, z)
    np.testing.assert_allclose(mid["x_minus"], [2.0, 4.0], atol=1e-14)
    np.testing.assert_allclose(mid["P_minus"], 3 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(mid["A_temp"], np.diag([13.0, 4.0]), atol=1e-10)
    np.testing.assert_allclose(mid["K"], np.diag([6 / 13, 3 / 4]), atol=1e-14)
    np.testing.assert_allclose(mid["x_hat"], [8 / 13, 7 / 4], atol=1e-14)
    np.testing.assert_allclose(mid["P"], np.diag([3 / 13, 3 / 4]), atol=1e-14)
    after = classical_step(model, init, u, z)
    np.testing.assert_allclose(after.x_hat, mid["x_hat"], atol=1e-14)
    assert after.k == 1


def test_classical_perfect_measurement_limit():
    n = 3
    rng = philox(21)
    model = KalmanModel(rng.uniform(-1, 1, (n, n)), np.zeros((n, 1)),
                        np.eye(n), np.eye(n), 1e-8 * np.eye(n))
    init = FilterState(rng.uniform(-1, 1, n), np.eye(n))
    z = rng.uniform(-1, 1, n)
    after = classical_step(model, init, [0.0], z)
    np.testing.assert_allclose(after.x_hat, z, atol=1e-6)


def test_classical_singular_innovation_raises():
    model = KalmanModel(np.eye(2), np.zeros((2, 1)), np.zeros((2, 2)),
                        np.eye(2), np.zeros((2, 2)))
    init = FilterState([0.0, 0.0], np.eye(2))
    with pytest.raises(SingularityError):
        classical_step(model, init, [0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# model plumbing
# ---------------------------------------------------------------------------

def test_model_validation_names_offending_field():
    eye = np.eye(2)
    col = np.ones((2, 1))
    with pytest.raises(DimensionError, match="A"):
        KalmanModel(np.ones((2, 3)), col, eye, eye, eye)
    with pytest.raises(DimensionError, match="B"):
        KalmanModel(eye, np.ones((3, 1)), eye, eye, eye)
    with pytest.raises(DimensionError, match="H"):
        KalmanModel(eye, col, np.ones((2, 3)), eye, eye)
    with pytest.raises(DimensionError, match="Q"):
        KalmanModel(eye, col, eye, np.eye(3), eye)
    with pytest.raises(DimensionError, match="R"):
        KalmanModel(eye, col, eye, eye, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DimensionError, match="R"):
        KalmanModel(eye, col, eye, eye, np.diag([1.0, -0.5]))


def test_filter_state_validation():
    with pytest.raises(DimensionError):
        FilterState(np.ones((2, 2)), np.eye(2))
    with pytest.raises(DimensionError):
        FilterState([1.0, 2.0], np.eye(3))
    st = FilterState([1.0, 2.0], np.array([[1.0, 0.3 + 1e-12], [0.3, 1.0]]))
    np.testing.assert_allclose(st.P, st.P.T, atol=0)


def test_kappa_policy():
    assert KappaPolicy.fixed(3.5).resolve(2.0) == 3.5
    assert KappaPolicy.margin(1.2).resolve(2.0) == pytest.approx(2.4)
    with pytest.raises(ConfigError):
        KappaPolicy.fixed(0.9)
    with pytest.raises(ConfigError):
        KappaPolicy.margin(0.99)
    with pytest.raises(ConfigError):
        KappaPolicy("adaptive", 2.0)


@pytest.mark.parametrize("make", [KappaPolicy.fixed, KappaPolicy.margin])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_kappa_policy_rejects_non_finite_values(make, value):
    with pytest.raises(ConfigError, match="finite"):
        make(value)


def test_fixed_kappa_window_failure_through_the_filter():
    # the worked example's innovation block has sigma_min 4/sqrt(185) ~ 0.29,
    # below the window [1/1.5, 1]: be_invert refuses it inside q_filter_run
    model, init, u, z = demo_parts()
    with pytest.raises(SigmaRangeError) as err:
        q_filter_run(model, init, [u], [z], 1,
                     kappa_policy=KappaPolicy.fixed(1.5))
    assert err.value.sigma == pytest.approx(4 / math.sqrt(185))
    assert err.value.lo == pytest.approx(1 / 1.5)


# ---------------------------------------------------------------------------
# staged quantum pipeline on the demo model
# ---------------------------------------------------------------------------

def test_predict_state_golden(worked):
    w = worked
    assert w.x_minus.alpha == pytest.approx(2 * np.sqrt(5) + np.sqrt(2))
    assert w.x_minus.ancillas == 3
    np.testing.assert_allclose(decode(w.x_minus)[:, 0], [2.0, 4.0], atol=1e-9)


def test_predict_cov_golden(worked):
    w = worked
    assert w.p_minus.alpha == pytest.approx(5 * np.sqrt(2))
    assert w.p_minus.ancillas == 4
    np.testing.assert_allclose(decode(w.p_minus), 3 * np.eye(2), atol=1e-9)


def test_gain_internal_chain_golden(worked):
    w = worked
    m51 = be_multiply(w.p_minus, be_adjoint(w.be.h))
    assert m51.alpha == pytest.approx(5 * np.sqrt(10))
    np.testing.assert_allclose(decode(m51), np.diag([6.0, 3.0]), atol=1e-9)
    m52 = be_multiply(w.be.h, m51)
    assert m52.alpha == pytest.approx(25 * np.sqrt(2))
    m53 = be_add(m52, w.be.r)
    assert m53.alpha == pytest.approx(26 * np.sqrt(2))
    assert m53.ancillas == 7
    np.testing.assert_allclose(decode(m53), np.diag([13.0, 4.0]), atol=1e-9)
    block = decode(m53) / m53.alpha
    np.testing.assert_allclose(
        block, np.diag([1 / (2 * np.sqrt(2)), 2 / (13 * np.sqrt(2))]),
        atol=1e-12)


def test_gain_output_golden(worked):
    w = worked
    assert w.k_be.alpha == pytest.approx(6.322536210428794)
    assert w.k_be.ancillas == 7
    np.testing.assert_allclose(decode(w.k_be), np.diag([6 / 13, 3 / 4]),
                               atol=1e-2)


def test_gain_metadata_golden(worked):
    info = worked.ledger.qsvt_info[1]
    assert info["kappa_used"] == pytest.approx(3.5)
    assert info["kappa_measured"] == pytest.approx(np.sqrt(185) / 4)
    assert info["gamma"] == pytest.approx(np.sqrt(185) / (26 * np.sqrt(2)))
    # singular values of the re-encoded innovation block
    assert info["sigma_min"] == pytest.approx(4 / np.sqrt(185))
    assert info["sigma_max"] == pytest.approx(13 / np.sqrt(185))
    assert info["degree"] == 57
    assert info["beta"] == pytest.approx(info["scale"] / 3.5)
    assert info["solver_residual"] <= 1e-8


def test_innovation_block_pin(worked):
    w = worked
    m61 = be_multiply(w.be.h, w.x_minus)
    assert m61.alpha == pytest.approx(10 + np.sqrt(10))
    m62 = be_add(w.be.z, be_negate(m61))
    assert m62.alpha == pytest.approx(10 + np.sqrt(10) + np.sqrt(2))
    np.testing.assert_allclose(decode(m62)[:, 0], [-3.0, -3.0], atol=1e-9)
    block = decode(m62)[:, 0] / m62.alpha
    np.testing.assert_allclose(block, [-0.20581084667074884] * 2, atol=1e-9)
    # reference values for the same quantities
    np.testing.assert_allclose(block, [-0.2056, -0.2071], atol=2e-3)


def test_update_state_golden(worked):
    w = worked
    assert w.x_hat_be.alpha == pytest.approx(98.04674309288863)
    assert w.x_hat_be.ancillas == 13
    got = np.real(decode(w.x_hat_be)[:, 0])
    np.testing.assert_allclose(got, [8 / 13, 7 / 4], atol=2e-2)
    np.testing.assert_allclose(got, [0.6153844200548073, 1.7533384219861368],
                               atol=1e-9)


def test_update_cov_golden(worked):
    w = worked
    assert w.p_hat_be.alpha == pytest.approx(107.03914288108858)
    assert w.p_hat_be.ancillas == 13
    got = np.real(decode(w.p_hat_be))
    np.testing.assert_allclose(np.diag(got), [3 / 13, 3 / 4], atol=2e-2)


def test_ledger_alpha_chain_exact(worked):
    scale = worked.ledger.qsvt_info[1]["scale"]
    r5, r2, r10, r185 = map(np.sqrt, (5.0, 2.0, 10.0, 185.0))
    expected = {
        "alpha_31": 2 * r5,
        "alpha_32": r2,
        "alpha_x_minus": 2 * r5 + r2,
        "alpha_41": 4 * r2,
        "alpha_P_minus": 5 * r2,
        "alpha_51": 5 * r10,
        "alpha_52": 25 * r2,
        "alpha_53": 26 * r2,
        "alpha_53p": r185,
        "alpha_54": scale / r185,
        "alpha_K": 5 * r10 * scale / r185,
        "alpha_61": 10 + r10,
        "alpha_62": 10 + r10 + r2,
        "alpha_63": (5 * r10 * scale / r185) * (10 + r10 + r2),
        "alpha_x_hat": 2 * r5 + r2 + (5 * r10 * scale / r185) * (10 + r10 + r2),
        "alpha_71": (5 * r10 * scale / r185) * r5 * 5 * r2,
        "alpha_P": 5 * r2 + (5 * r10 * scale / r185) * r5 * 5 * r2,
    }
    rows = {e.label: e for e in worked.ledger.entries}
    assert set(rows) == set(expected)
    for label, alpha in expected.items():
        assert rows[label].alpha == pytest.approx(alpha, rel=1e-12), label
    # ancilla growth is linear in the register size (s = 1 here)
    assert rows["alpha_x_minus"].ancillas == 2 * 1 + 1
    assert rows["alpha_P_minus"].ancillas == 3 * 1 + 1
    assert rows["alpha_x_hat"].ancillas == 8 * 1 + 5
    assert rows["alpha_P"].ancillas == 9 * 1 + 4


def test_ledger_find_semantics(worked):
    entry = worked.ledger.find("alpha_x_hat")
    assert entry.step == 1
    with pytest.raises(KeyError):
        worked.ledger.find("alpha_missing")


def test_reencode_idempotence(worked):
    x_hat = np.real(decode(worked.x_hat_be)[:, 0])
    be2 = encode_vector(x_hat, 1)
    np.testing.assert_allclose(decode(be2)[:, 0], x_hat, atol=1e-12)
    assert be2.alpha == pytest.approx(np.linalg.norm(x_hat))
    p_mat = np.real(decode(worked.p_hat_be))
    be3 = encode_matrix(p_mat, 1)
    np.testing.assert_allclose(decode(be3), p_mat, atol=1e-12)


# ---------------------------------------------------------------------------
# whole-filter runs
# ---------------------------------------------------------------------------

def test_filter_run_demo_matches_classical(worked):
    model, init, u, z = demo_parts()
    got = worked.trajectory[1]
    want = classical_step(model, init, u, z)
    np.testing.assert_allclose(got.x_hat, want.x_hat, atol=2e-2)
    np.testing.assert_allclose(np.diag(got.P), np.diag(want.P), atol=2e-2)
    assert got.k == 1


def test_filter_run_zero_steps_returns_initial():
    model, init, *_ = demo_parts()
    traj, ledger = q_filter_run(model, init, [], [], 0)
    assert len(traj) == 1
    assert traj[0] is init
    assert ledger.entries == []


def test_filter_run_rejects_partial_observation():
    model = KalmanModel(np.eye(2), np.ones((2, 1)), np.array([[1.0, 0.0]]),
                        np.eye(2), np.eye(1))
    init = FilterState([0.0, 0.0], np.eye(2))
    with pytest.raises(DimensionError, match="measurement dimension"):
        q_filter_run(model, init, [[0.0]], [[0.0]], 1)


def test_filter_run_rejects_short_inputs():
    model, init, u, z = demo_parts()
    with pytest.raises(DimensionError, match="at least"):
        q_filter_run(model, init, [u], [z], 2)


def test_filter_run_random_models_track_classical():
    rng = philox(31)
    kappa = KappaPolicy.fixed(4.0)
    checked = 0
    for trial in range(25):
        n = 2
        model = random_model(rng, n)
        init = FilterState(rng.uniform(-1, 1, n), np.eye(n))
        u = rng.uniform(-1, 1, 1)
        z = rng.uniform(-1, 1, n)
        traj, _ = q_filter_run(model, init, [u], [z], 1,
                               kappa_policy=kappa)
        want = classical_step(model, init, u, z)
        np.testing.assert_allclose(traj[1].x_hat, want.x_hat, atol=0.4)
        np.testing.assert_allclose(traj[1].P, want.P, atol=0.4)
        checked += 1
    assert checked == 25


def test_filter_run_five_step_trajectory():
    model = KalmanModel([[0.8, 0.1], [-0.1, 0.7]], [[0.5], [0.25]],
                        np.eye(2), np.eye(2), np.eye(2))
    init = FilterState([1.0, -1.0], np.eye(2))
    rng = philox(41)
    controls = rng.uniform(-1, 1, (5, 1))
    zs = rng.uniform(-1, 1, (5, 2))
    traj, ledger = q_filter_run(model, init, controls, zs, 5,
                                kappa_policy=KappaPolicy.fixed(4.0))
    assert len(traj) == 6
    state = init
    for j in range(5):
        state = classical_step(model, state, controls[j], zs[j])
        np.testing.assert_allclose(traj[j + 1].x_hat, state.x_hat, atol=0.05)
        np.testing.assert_allclose(np.diag(traj[j + 1].P), np.diag(state.P),
                                   atol=0.05)
    assert len(ledger.entries) == 5 * 17
    assert sorted(ledger.qsvt_info) == [1, 2, 3, 4, 5]


def test_filter_run_sampled_budget_abort():
    model, init, u, z = demo_parts()
    with pytest.raises(MeasurementBudgetError) as err:
        q_filter_run(model, init, [u], [z], 1, "sampled", seed=0,
                     kappa_policy=KappaPolicy.fixed(3.5), **DEMO_KWARGS)
    traj, ledger = err.value.partial
    assert len(traj) == 1
    assert len(ledger.entries) == 17


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("s", [1, 2])
def test_step_reads_each_block_once_through_decode(s, mode, monkeypatch):
    # four walks per step, in order: the innovation m53 (5s+2 ancillas),
    # its fresh encoding in be_invert's window check (s), x_hat's one
    # column (8s+5) and all of P's columns (9s+4); each column of the
    # batched P block equals its own single-column walk
    n = 2**s
    A, B, H, Q, R, x0, P0, us, zs = model_with_innovation(
        philox(70 + s), np.linspace(2.0, 1.0, n), 1)
    walks = []

    def spy(op, ancillas, cols):
        block = ancilla_block(op, ancillas, cols)
        walks.append((op, ancillas, list(cols), block))
        return block

    monkeypatch.setattr(block_encoding, "ancilla_block", spy)
    q_filter_run(KalmanModel(A, B, H, Q, R), FilterState(x0, P0), us, zs, 1,
                 mode, shots=4096, iterations=1, seed=7,
                 kappa_policy=KappaPolicy.fixed(6.0))
    assert [(ancillas, cols) for _, ancillas, cols, _ in walks] == [
        (5 * s + 2, list(range(n))), (s, list(range(n))),
        (8 * s + 5, [0]), (9 * s + 4, list(range(n)))]
    op, ancillas, _, block = walks[3]
    for col in range(n):
        single = ancilla_block(op, ancillas, [col])[:, 0]
        np.testing.assert_allclose(block[:, col], single, rtol=0, atol=1e-15)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_filter_step_compacts_nothing(s, monkeypatch):
    # the inverse arrives from be_invert as one dense leaf on 2s+1 qubits,
    # so no stage of the step calls compact_operator
    n = 2**s
    A, B, H, Q, R, x0, P0, us, zs = model_with_innovation(
        philox(80 + s), np.linspace(2.0, 1.0, n), 1)
    original = tensor_ops.compact_operator
    compactions = []

    def compact_spy(*args, **kwargs):
        compactions.append(args[0].nqubits)
        return original(*args, **kwargs)

    for module in (tensor_ops, kalman):
        if getattr(module, "compact_operator", None) is original:
            monkeypatch.setattr(module, "compact_operator", compact_spy)
    be_invert = kalman.be_invert
    inverses = []

    def invert_spy(*args):
        inverses.append(be_invert(*args))
        return inverses[-1]

    monkeypatch.setattr(kalman, "be_invert", invert_spy)
    q_filter_run(KalmanModel(A, B, H, Q, R), FilterState(x0, P0), us, zs, 1,
                 kappa_policy=KappaPolicy.fixed(6.0))
    assert compactions == []
    assert len(inverses) == 1
    assert isinstance(inverses[0].op, Dense) and inverses[0].op.nqubits == 2 * s + 1


def test_stage_ancillas_scale_linearly_without_decode():
    # 4-state model: register size s = 2, so the update outputs must sit at
    # 8s+5 = 21 and 9s+4 = 22 ancillas. Construction only, no statevectors.
    rng = philox(51)
    n, s = 4, 2
    model = random_model(rng, n)
    init = FilterState(rng.uniform(-1, 1, n), np.eye(n))
    ledger = NormLedger()
    be_a = encode_matrix(model.A, s)
    be_b = encode_matrix(model.B, s)
    be_h = encode_matrix(model.H, s)
    be_q = encode_matrix(model.Q, s)
    be_r = encode_matrix(model.R, s)
    be_x = encode_vector(init.x_hat, s)
    be_p = encode_matrix(init.P, s)
    be_u = encode_vector(np.array([0.5]), s)
    be_z = encode_vector(rng.uniform(-1, 1, n), s)

    x_minus = q_predict_state(ledger, be_a, be_x, be_b, be_u)
    p_minus = q_predict_cov(ledger, be_a, be_p, be_q)
    assert x_minus.ancillas == 2 * s + 1
    assert p_minus.ancillas == 3 * s + 1
    k_be = q_gain(ledger, p_minus, be_h, be_r, KappaPolicy.margin(1.1), 0.01)
    x_hat = q_update_state(ledger, x_minus, k_be, be_h, be_z)
    p_hat = q_update_cov(ledger, p_minus, k_be, be_h)
    assert x_hat.ancillas == 8 * s + 5
    assert p_hat.ancillas == 9 * s + 4
    assert x_hat.op.nqubits == 8 * s + 5 + s
    assert math.isfinite(x_hat.alpha)


def _check_exact_filter(seed: int, spectrum, s: int, steps: int = 2):
    """Exact margin-policy steps stay within the ledger's eps bounds."""
    A, B, H, Q, R, x0, P0, us, zs = model_with_innovation(
        philox(seed), spectrum, steps)
    model = KalmanModel(A, B, H, Q, R)
    traj, ledger = q_filter_run(model, FilterState(x0, P0), us, zs, steps,
                                kappa_policy=KappaPolicy.margin(1.1))
    assert ledger.find("alpha_P", 1).ancillas == 9 * s + 4
    for k in range(1, steps + 1):
        want = classical_step(model, traj[k - 1], us[k - 1], zs[k - 1])
        x_err = np.max(np.abs(traj[k].x_hat - want.x_hat))
        p_err = np.linalg.norm(traj[k].P - want.P, 2)
        assert x_err <= ledger.find("alpha_x_hat", k).eps
        assert p_err <= ledger.find("alpha_P", k).eps


def test_exact_filter_at_eight_states():
    # s = 3: the update encodings sit on 29 + 3 = 32 and 31 + 3 = 34 qubits,
    # read out without any full-register statevector
    _check_exact_filter(61, (2.0, 1.8, 1.6, 1.4, 1.3, 1.2, 1.1, 1.0), 3)


def test_exact_filter_at_sixteen_states():
    # s = 4: 40 ancillas on P; each data-structure encoding is one 8-qubit leaf
    _check_exact_filter(63, np.linspace(2.0, 1.0, 16), 4)


def test_exact_filter_at_thirty_two_states():
    # s = 5: 49 ancillas on P; one step, each encoding a 10-qubit leaf (16 MB)
    _check_exact_filter(64, np.linspace(2.0, 1.0, 32), 5, steps=1)


def test_four_state_decode_stays_small():
    A, B, H, Q, R, x0, P0, us, zs = model_with_innovation(
        philox(62), (3.0, 2.0, 1.5, 1.0), 1)
    model, s = KalmanModel(A, B, H, Q, R), 2
    ledger = NormLedger()
    be = {name: encode_matrix(m, s)
          for name, m in (("A", A), ("B", B), ("H", H), ("Q", Q), ("R", R),
                          ("P", P0))}
    x_minus = q_predict_state(ledger, be["A"], encode_vector(x0, s),
                              be["B"], encode_vector(us[0], s))
    p_minus = q_predict_cov(ledger, be["A"], be["P"], be["Q"])
    k_be = q_gain(ledger, p_minus, be["H"], be["R"], KappaPolicy.fixed(6.0), 0.01)
    x_hat = q_update_state(ledger, x_minus, k_be, be["H"],
                           encode_vector(zs[0], s))
    p_hat = q_update_cov(ledger, p_minus, k_be, be["H"])
    assert (x_hat.op.nqubits, p_hat.op.nqubits) == (23, 24)

    tracemalloc.start()
    try:
        x_out = decode(x_hat)
        p_out = decode(p_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a single full-register column of x_hat is 2^23 * 16 bytes = 128 MB
    assert peak <= 32 * 2**20
    want = classical_intermediates(model, FilterState(x0, P0), us[0], zs[0])
    assert np.max(np.abs(x_out[:, 0] - want["x_hat"])) <= x_hat.eps
    assert np.linalg.norm(p_out - want["P"], 2) <= p_hat.eps
