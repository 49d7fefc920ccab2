"""Classical Kalman filter oracle and its block-encoded quantum pipeline.

Per filter step, on s system qubits (ancilla counts in parentheses):

    predict   X- = A X + B U                  (2s, then 2s+1)
              P- = A P A^T + Q                (3s, then 3s+1)
    gain      A_temp = H P- H^T + R           (5s+2), measured exactly,
              re-encoded freshly at s ancillas, inverted by the
              singular value transform (s+1),
              K = P- H^T (A_temp)^-1          (5s+2)
    update    X = X- + K (Z - H X-)           (8s+5)
              P = P- - K H P-                 (9s+4)

Every intermediate encoding's (alpha, ancillas, eps) lands in a
NormLedger; the normalization factors compose by the exact product/sum
rules, so ledger rows are reproducible to machine precision. Inversion
metadata (measured condition number, polynomial degree, scale, solver
residual and iterations) rides along per step.

The filter loop measures at each step boundary and re-encodes the
estimates freshly, so ancillas do not accumulate across steps. A step
reads four blocks, each once and through `decode` (ancilla-zero columns
only, no full-register statevector): the innovation, its fresh encoding
(in `be_invert`'s window check), x_hat and P. Sampled readout then
replaces each decoded column by seeded shots over its n target outcomes
plus one rest outcome for every other basis state, estimating entries as
alpha*sqrt(frequency) with the signs of the decoded values.

Each encoding is one dense leaf; stages combine them into lazy trees,
and nothing in the filter is compacted afterwards. The inverse is the
one sub-circuit that repeats (its transform applies the re-encoded
innovation leaf and its adjoint d times), so `be_invert` builds it as
one dense leaf on 2s+1 qubits when the encoding has at most
`DENSE_THRESHOLD` qubits (s <= 3) and as a lazy tree above that;
every other stage is one product or LCU sum.

The innovation dimension must fill its register exactly (m = 2^s):
zero-padding would make the padded innovation covariance singular and
uninvertible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import be_add, be_adjoint, be_multiply, be_negate
from .block_encoding import (
    BlockEncoding,
    decode,
    encode_data_structure,
    encode_zero,
    pad_to_square,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    MeasurementBudgetError,
    NumericalFailureError,
    SingularityError,
)
from .inversion import be_invert, inverse_poly, solve_phase_factors
from .sampling import estimate_entries, pooled_report, with_rest
from .tensor_ops import op_stats


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _check_cov(name: str, mat: np.ndarray):
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{name} must be square, got {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-9 * scale:
        raise DimensionError(f"{name} must be symmetric")
    if float(np.min(np.linalg.eigvalsh(_sym(mat)))) < -1e-9 * scale:
        raise DimensionError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class KalmanModel:
    """x_k = A x_{k-1} + B u_{k-1} + w,  z_k = H x_k + v, noise covs Q, R."""

    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "H", "Q", "R"):
            mat = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, mat)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionError(
                f"B must have {n} rows to match A, got {self.B.shape}")
        if self.H.shape[1] != n:
            raise DimensionError(
                f"H must have {n} columns to match A, got {self.H.shape}")
        if self.Q.shape != (n, n):
            raise DimensionError(f"Q must be {n}x{n}, got {self.Q.shape}")
        m = self.H.shape[0]
        if self.R.shape != (m, m):
            raise DimensionError(f"R must be {m}x{m}, got {self.R.shape}")
        _check_cov("Q", self.Q)
        _check_cov("R", self.R)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def control_dim(self) -> int:
        return self.B.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class FilterState:
    """Estimate x_hat with error covariance P after step k."""

    x_hat: np.ndarray
    P: np.ndarray
    k: int = 0

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x_hat, dtype=float))
        p = np.atleast_2d(np.asarray(self.P, dtype=float))
        if x.ndim != 1:
            raise DimensionError("x_hat must be a vector")
        if p.shape != (x.size, x.size):
            raise DimensionError(
                f"P must be {x.size}x{x.size} to match x_hat, got {p.shape}")
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "P", _sym(p))


@dataclass(frozen=True)
class KappaPolicy:
    """How the inversion's condition-number bound is chosen per step.

    fixed: use the given kappa as-is and fail if the measured singular
    values fall outside [1/kappa, 1]. margin: multiply the measured
    condition number by a safety factor (always sufficient, but the
    polynomial degree then tracks the data).
    """

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in ("fixed", "margin"):
            raise ConfigError(f"unknown kappa policy mode {self.mode!r}")
        if not math.isfinite(self.value):
            raise ConfigError(f"kappa policy value must be finite, got {self.value}")
        if self.mode == "fixed" and not self.value > 1:
            raise ConfigError(f"fixed kappa must exceed 1, got {self.value}")
        if self.mode == "margin" and not self.value >= 1:
            raise ConfigError(f"margin factor must be >= 1, got {self.value}")

    @classmethod
    def fixed(cls, kappa: float) -> "KappaPolicy":
        return cls("fixed", float(kappa))

    @classmethod
    def margin(cls, factor: float = 1.1) -> "KappaPolicy":
        return cls("margin", float(factor))

    def resolve(self, kappa_measured: float) -> float:
        if self.mode == "fixed":
            return self.value
        return self.value * kappa_measured


@dataclass(frozen=True)
class LedgerEntry:
    step: int
    label: str
    alpha: float
    ancillas: int
    eps: float


@dataclass
class NormLedger:
    """Per-step normalization bookkeeping plus inversion/sampling metadata."""

    entries: list = field(default_factory=list)
    qsvt_info: dict = field(default_factory=dict)
    sampling_info: dict = field(default_factory=dict)
    op_info: dict = field(default_factory=dict)

    def record(self, label: str, be: BlockEncoding, step: int = 0):
        self.entries.append(
            LedgerEntry(step, label, float(be.alpha), be.ancillas, float(be.eps)))

    def find(self, label: str, step: int | None = None) -> LedgerEntry:
        hits = [e for e in self.entries
                if e.label == label and (step is None or e.step == step)]
        if not hits:
            raise KeyError(f"no ledger entry {label!r}"
                           + (f" at step {step}" if step is not None else ""))
        return hits[-1]

    def rows(self):
        """(step, label, alpha, ancillas, eps) tuples in recording order."""
        return [(e.step, e.label, e.alpha, e.ancillas, e.eps)
                for e in self.entries]


# ---------------------------------------------------------------------------
# classical oracle
# ---------------------------------------------------------------------------

def classical_intermediates(model: KalmanModel, state: FilterState,
                            u, z) -> dict:
    """One exact filter step with every intermediate exposed for checking."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if u.size != model.control_dim:
        raise DimensionError(
            f"control has {u.size} entries, model expects {model.control_dim}")
    if z.size != model.obs_dim:
        raise DimensionError(
            f"measurement has {z.size} entries, model expects {model.obs_dim}")
    if state.x_hat.size != model.state_dim:
        raise DimensionError("state dimension does not match the model")

    x_minus = model.A @ state.x_hat + model.B @ u
    p_minus = _sym(model.A @ state.P @ model.A.T + model.Q)
    a_temp = _sym(model.H @ p_minus @ model.H.T + model.R)
    sig = np.linalg.svd(a_temp, compute_uv=False)
    if sig[-1] <= sig[0] * 1e-12:
        raise SingularityError("innovation covariance is singular")
    # K = P- H^T A_temp^{-1}, via a solve on the transposed system
    k_gain = np.linalg.solve(a_temp.T, (p_minus @ model.H.T).T).T
    x_hat = x_minus + k_gain @ (z - model.H @ x_minus)
    p_new = _sym(p_minus - k_gain @ model.H @ p_minus)
    return {
        "x_minus": x_minus,
        "P_minus": p_minus,
        "A_temp": a_temp,
        "K": k_gain,
        "x_hat": x_hat,
        "P": p_new,
    }


def classical_step(model: KalmanModel, state: FilterState, u, z) -> FilterState:
    """Exact predict/update with a dense direct solve (the oracle)."""
    vals = classical_intermediates(model, state, u, z)
    return FilterState(vals["x_hat"], vals["P"], state.k + 1)


# ---------------------------------------------------------------------------
# encoding helpers
# ---------------------------------------------------------------------------

def encode_matrix(mat, s: int) -> BlockEncoding:
    """Data-structure encoding of a (padded) matrix; zero matrices get the
    dedicated zero encoding so alpha stays positive."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    try:
        return encode_data_structure(pad_to_square(mat, s), shape=mat.shape)
    except DegenerateInputError:
        return encode_zero(s, 1.0, shape=mat.shape)


def encode_vector(vec, s: int) -> BlockEncoding:
    """Encode a vector as the first column of an otherwise-zero matrix."""
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    if vec.ndim != 1:
        raise DimensionError("expected a vector")
    return encode_matrix(vec.reshape(-1, 1), s)


def _real_block(block: np.ndarray, context: str) -> np.ndarray:
    peak = float(np.max(np.abs(block.imag))) if block.size else 0.0
    if peak > 1e-8:
        raise NumericalFailureError(
            f"{context}: imaginary residue {peak:.3g} on a real-input pipeline")
    return np.ascontiguousarray(block.real)


# ---------------------------------------------------------------------------
# quantum pipeline stages
# ---------------------------------------------------------------------------

def q_predict_state(ledger: NormLedger, be_a: BlockEncoding, be_x: BlockEncoding,
                    be_b: BlockEncoding, be_u: BlockEncoding,
                    step: int = 0) -> BlockEncoding:
    """Prior state X- = A X + B U."""
    m31 = be_multiply(be_a, be_x)
    ledger.record("alpha_31", m31, step)
    m32 = be_multiply(be_b, be_u)
    ledger.record("alpha_32", m32, step)
    x_minus = be_add(m31, m32)
    ledger.record("alpha_x_minus", x_minus, step)
    return x_minus


def q_predict_cov(ledger: NormLedger, be_a: BlockEncoding, be_p: BlockEncoding,
                  be_q: BlockEncoding, step: int = 0) -> BlockEncoding:
    """Prior covariance P- = A P A^T + Q."""
    m41 = be_multiply(be_multiply(be_a, be_p), be_adjoint(be_a))
    ledger.record("alpha_41", m41, step)
    p_minus = be_add(m41, be_q)
    ledger.record("alpha_P_minus", p_minus, step)
    return p_minus


def q_gain(ledger: NormLedger, be_p_minus: BlockEncoding, be_h: BlockEncoding,
           be_r: BlockEncoding, kappa_policy: KappaPolicy, eps_prime: float,
           degree_cap: int = 501, step: int = 0) -> BlockEncoding:
    """Kalman gain K = P- H^T (H P- H^T + R)^{-1}.

    The innovation covariance is measured (exact simulator readout),
    re-encoded freshly at s ancillas with its Frobenius norm as the new
    alpha, and inverted through the singular value transform.
    `be_invert` checks the singular-value window [1/kappa_used, 1].
    """
    m51 = be_multiply(be_p_minus, be_adjoint(be_h))
    ledger.record("alpha_51", m51, step)
    m52 = be_multiply(be_h, m51)
    ledger.record("alpha_52", m52, step)
    m53 = be_add(m52, be_r)
    ledger.record("alpha_53", m53, step)

    a_temp = _real_block(decode(m53), "innovation readout")
    sig = np.linalg.svd(a_temp, compute_uv=False)
    if sig[-1] <= sig[0] * 1e-12:
        raise SingularityError("measured innovation covariance is singular")

    # fresh s-ancilla encoding; Frobenius-norm alpha keeps sigma_max <= 1
    be53p = encode_matrix(a_temp, be_h.system_qubits)
    ledger.record("alpha_53p", be53p, step)
    gamma = be53p.alpha / m53.alpha
    kappa_measured = be53p.alpha / float(sig[-1])
    kappa_used = kappa_policy.resolve(kappa_measured)

    poly = inverse_poly(kappa_used, eps_prime, degree_cap)
    phi = solve_phase_factors(poly)
    be54 = be_invert(be53p, poly, phi)
    ledger.record("alpha_54", be54, step)
    k_be = be_multiply(m51, be54)
    ledger.record("alpha_K", k_be, step)
    ledger.qsvt_info[step] = {
        "gamma": gamma,
        "kappa_measured": kappa_measured,
        "kappa_used": kappa_used,
        "sigma_min": float(sig[-1]) / be53p.alpha,
        "sigma_max": float(sig[0]) / be53p.alpha,
        "degree": poly.degree,
        "scale": poly.scale,
        "beta": poly.scale / kappa_used,
        "poly_eps": poly.eps_prime,
        "solver_residual": phi.residual,
        "solver_iterations": phi.iterations,
    }
    return k_be


def q_update_state(ledger: NormLedger, be_x_minus: BlockEncoding,
                   be_k: BlockEncoding, be_h: BlockEncoding,
                   be_z: BlockEncoding, step: int = 0) -> BlockEncoding:
    """Posterior state X = X- + K (Z - H X-)."""
    m61 = be_multiply(be_h, be_x_minus)
    ledger.record("alpha_61", m61, step)
    innovation = be_add(be_z, be_negate(m61))
    ledger.record("alpha_62", innovation, step)
    m63 = be_multiply(be_k, innovation)
    ledger.record("alpha_63", m63, step)
    x_hat = be_add(be_x_minus, m63)
    ledger.record("alpha_x_hat", x_hat, step)
    return x_hat


def q_update_cov(ledger: NormLedger, be_p_minus: BlockEncoding,
                 be_k: BlockEncoding, be_h: BlockEncoding,
                 step: int = 0) -> BlockEncoding:
    """Posterior covariance P = P- - K H P-."""
    m71 = be_multiply(be_multiply(be_k, be_h), be_p_minus)
    ledger.record("alpha_71", m71, step)
    p_hat = be_add(be_p_minus, be_negate(m71))
    ledger.record("alpha_P", p_hat, step)
    return p_hat


# ---------------------------------------------------------------------------
# the filter loop
# ---------------------------------------------------------------------------

def _sampled_column(values: np.ndarray, alpha: float, column: int, shots: int,
                    iterations: int, entropy) -> tuple[np.ndarray, dict]:
    """Shot-noise estimate of one decoded column, signs from its values.

    `values` / alpha are the column's target amplitudes; shots land on
    those outcomes or on one rest outcome that stands for every other
    basis state of the register.
    """
    rows = values.size
    report = pooled_report(with_rest(values / alpha), shots, iterations, entropy)
    estimates, std_errors = estimate_entries(report, alpha, range(rows),
                                             signs=values)
    meta = {
        "column": column,
        "shots": shots,
        "iterations": iterations,
        "entropy": tuple(entropy),
        "std_error": std_errors.tolist(),
        "zero_count": (report.counts[:rows] == 0).tolist(),
        "counts_nonzero": {
            ("rest" if i == rows else int(i)): int(report.counts[i])
            for i in np.flatnonzero(report.counts)},
    }
    return estimates, meta


def q_filter_run(model: KalmanModel, init: FilterState, controls,
                 measurements, steps: int, readout_mode: str = "exact", *,
                 shots: int = 16384, iterations: int = 100, seed: int = 0,
                 kappa_policy: KappaPolicy | None = None,
                 eps_prime: float = 0.01, degree_cap: int = 501):
    """Run the block-encoded filter for `steps` iterations.

    Returns (trajectory, ledger); trajectory[0] is the initial state.
    Both readout modes decode x_hat and P; "sampled" then replaces each
    decoded column by its seeded shot estimate. Its seed must be a
    nonnegative integer, checked before any step runs. A sampled step
    whose state estimate draws no counts at all aborts with the partial
    trajectory attached.
    """
    if readout_mode not in ("exact", "sampled"):
        raise ConfigError(f"readout_mode must be exact or sampled, "
                          f"got {readout_mode!r}")
    if steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {steps}")
    if readout_mode == "sampled" and not (
            isinstance(seed, numbers.Integral) and seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if kappa_policy is None:
        kappa_policy = KappaPolicy.margin(1.1)
    n, c, m = model.state_dim, model.control_dim, model.obs_dim
    if init.x_hat.size != n:
        raise DimensionError("initial state dimension does not match the model")
    s = max(1, math.ceil(math.log2(max(n, c, m))))
    if m != 2**s:
        raise DimensionError(
            f"measurement dimension {m} must fill the register (2^{s} = {2**s}); "
            "padding would make the innovation covariance singular")
    if steps > 0 and (len(controls) < steps or len(measurements) < steps):
        raise DimensionError(
            f"need at least {steps} controls and measurements, "
            f"got {len(controls)} and {len(measurements)}")

    be_a = encode_matrix(model.A, s)
    be_b = encode_matrix(model.B, s)
    be_h = encode_matrix(model.H, s)
    be_q = encode_matrix(model.Q, s)
    be_r = encode_matrix(model.R, s)

    ledger = NormLedger()
    trajectory = [init]
    state = init
    for j in range(steps):
        step = state.k + 1
        u = np.atleast_1d(np.asarray(controls[j], dtype=float))
        z = np.atleast_1d(np.asarray(measurements[j], dtype=float))
        if u.size != c:
            raise DimensionError(f"controls[{j}] has {u.size} entries, expected {c}")
        if z.size != m:
            raise DimensionError(
                f"measurements[{j}] has {z.size} entries, expected {m}")

        be_x = encode_vector(state.x_hat, s)
        be_p = encode_matrix(state.P, s)
        be_u = encode_vector(u, s)
        be_z = encode_vector(z, s)

        x_minus = q_predict_state(ledger, be_a, be_x, be_b, be_u, step=step)
        p_minus = q_predict_cov(ledger, be_a, be_p, be_q, step=step)
        k_be = q_gain(ledger, p_minus, be_h, be_r, kappa_policy, eps_prime,
                      degree_cap=degree_cap, step=step)
        x_hat_be = q_update_state(ledger, x_minus, k_be, be_h, be_z, step=step)
        p_hat_be = q_update_cov(ledger, p_minus, k_be, be_h, step=step)
        ledger.op_info[step] = {
            "gain": op_stats(k_be.op),
            "x_hat": op_stats(x_hat_be.op),
            "P": op_stats(p_hat_be.op),
        }

        x_new = _real_block(decode(x_hat_be), "state readout")[:, 0]
        p_new = _real_block(decode(p_hat_be), "covariance readout")
        if readout_mode == "sampled":
            x_new, x_meta = _sampled_column(
                x_new, x_hat_be.alpha, 0, shots, iterations, (seed, step, 0))
            if all(x_meta["zero_count"]):
                raise MeasurementBudgetError(
                    f"step {step}: no counts landed on any state entry "
                    f"in {shots}x{iterations} shots",
                    partial=(trajectory, ledger))
            cols, col_meta = zip(*(
                _sampled_column(p_new[:, col], p_hat_be.alpha, col, shots,
                                iterations, (seed, step, 1 + col))
                for col in range(n)))
            p_new = np.column_stack(cols)
            ledger.sampling_info[step] = {"x_hat": x_meta, "P": list(col_meta)}

        state = FilterState(x_new, p_new, step)
        trajectory.append(state)
    return trajectory, ledger
