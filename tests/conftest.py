import time
from types import SimpleNamespace

import numpy as np
import pytest

from qkalman.kalman import (
    FilterState,
    KalmanModel,
    KappaPolicy,
    NormLedger,
    encode_matrix,
    encode_vector,
    q_filter_run,
    q_gain,
    q_predict_cov,
    q_predict_state,
    q_update_cov,
    q_update_state,
)


@pytest.fixture(scope="session")
def demo_model() -> KalmanModel:
    """Two-state model: rotation-like A, one control, both states observed."""
    return KalmanModel(
        A=[[1.0, -1.0], [1.0, 1.0]],
        B=[[1.0], [1.0]],
        H=[[2.0, 0.0], [0.0, 1.0]],
        Q=np.eye(2),
        R=np.eye(2),
    )


@pytest.fixture(scope="session")
def demo_init() -> FilterState:
    return FilterState([2.0, 1.0], np.eye(2))


@pytest.fixture(scope="session")
def worked(demo_model, demo_init):
    """One fully-built quantum step of the demo model, plus a filter run.

    Session-scoped so the encodings, the degree-57 inversion and the
    filter run are built once and shared by every test that inspects
    them.
    """
    model, init = demo_model, demo_init
    u, z = [1.0], [1.0, 1.0]
    s = 1
    ledger = NormLedger()

    t0 = time.perf_counter()
    be = SimpleNamespace(
        a=encode_matrix(model.A, s),
        b=encode_matrix(model.B, s),
        h=encode_matrix(model.H, s),
        q=encode_matrix(model.Q, s),
        r=encode_matrix(model.R, s),
        x=encode_vector(init.x_hat, s),
        p=encode_matrix(init.P, s),
        u=encode_vector(u, s),
        z=encode_vector(z, s),
    )
    x_minus = q_predict_state(ledger, be.a, be.x, be.b, be.u, step=1)
    p_minus = q_predict_cov(ledger, be.a, be.p, be.q, step=1)
    k_be = q_gain(ledger, p_minus, be.h, be.r, KappaPolicy.fixed(3.5), 0.01,
                  step=1)
    x_hat_be = q_update_state(ledger, x_minus, k_be, be.h, be.z, step=1)
    p_hat_be = q_update_cov(ledger, p_minus, k_be, be.h, step=1)
    t_pipeline = time.perf_counter() - t0

    t0 = time.perf_counter()
    trajectory, run_ledger = q_filter_run(
        model, init, [u], [z], 1, "exact",
        kappa_policy=KappaPolicy.fixed(3.5), seed=7)
    t_filter = time.perf_counter() - t0

    return SimpleNamespace(
        model=model, init=init, u=u, z=z, s=s, be=be, ledger=ledger,
        x_minus=x_minus, p_minus=p_minus, k_be=k_be,
        x_hat_be=x_hat_be, p_hat_be=p_hat_be,
        trajectory=trajectory, run_ledger=run_ledger,
        t_pipeline=t_pipeline, t_filter=t_filter,
    )
