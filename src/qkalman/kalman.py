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
reads three blocks through `read_out` (the innovation, x_hat and P) and
`be_invert`'s window check decodes a fourth (the fresh encoding), each
once and through `decode` (ancilla-zero columns only, no full-register
statevector).

Each encoding is one dense leaf; stages combine them into lazy trees,
and nothing in the filter is compacted afterwards. The inverse is the
one sub-circuit that repeats (its transform applies the re-encoded
innovation leaf and its adjoint d times), so `be_invert` builds it as
one dense leaf on 2s+1 qubits when the encoding has at most
`DENSE_THRESHOLD` qubits (s <= 3) and as a lazy tree above that;
every other stage is one product or LCU sum.

Any n, m and c run: every matrix is zero-padded into the 2^s register,
`decode` crops each block to its logical shape, and the odd inverse
polynomial maps the padding's zero singular values to 0.
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
    register_qubits,
)
from .errors import (
    ApproximationError,
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

def _vector(values, size: int, what: str) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    if vec.size != size:
        raise DimensionError(f"{what} has {vec.size} entries, expected {size}")
    return vec


def classical_intermediates(model: KalmanModel, state: FilterState,
                            u, z) -> dict:
    """One exact filter step with every intermediate exposed for checking."""
    u = _vector(u, model.control_dim, "control")
    z = _vector(z, model.obs_dim, "measurement")
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


def read_out(be: BlockEncoding, context: str, sampling=None):
    """(values, metadata): the decoded block, checked to be real.

    `sampling` = (shots, iterations, entropies) replaces column j by its
    shot estimate alpha*sqrt(frequency) over n targets plus one rest
    outcome, seeded by entropies[j] and signed by the decoded values,
    with one metadata dict per column; otherwise the metadata is None.
    """
    block = decode(be)
    peak = float(np.max(np.abs(block.imag))) if block.size else 0.0
    if peak > 1e-8:
        raise NumericalFailureError(
            f"{context}: imaginary residue {peak:.3g} on a real-input pipeline")
    values = np.ascontiguousarray(block.real)
    if sampling is None:
        return values, None
    shots, iterations, entropies = sampling
    rows = values.shape[0]
    meta = []
    for column, (signs, entropy) in enumerate(zip(values.T, entropies, strict=True)):
        report = pooled_report(with_rest(signs / be.alpha), shots, iterations, entropy)
        values[:, column], std_errors = estimate_entries(
            report, be.alpha, range(rows), signs=signs)
        meta.append({
            "column": column,
            "shots": shots,
            "iterations": iterations,
            "entropy": tuple(entropy),
            "std_error": std_errors.tolist(),
            "zero_count": (report.counts[:rows] == 0).tolist(),
            "counts_nonzero": {
                ("rest" if i == rows else int(i)): int(report.counts[i])
                for i in np.flatnonzero(report.counts)},
        })
    return values, meta


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
           step: int = 0) -> BlockEncoding:
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

    a_temp, _ = read_out(m53, "innovation readout")
    sig = np.linalg.svd(a_temp, compute_uv=False)
    if sig[-1] <= sig[0] * 1e-12:
        raise SingularityError("measured innovation covariance is singular")

    # fresh s-ancilla encoding; Frobenius-norm alpha keeps sigma_max <= 1
    be53p = encode_matrix(a_temp, be_h.system_qubits)
    ledger.record("alpha_53p", be53p, step)
    gamma = be53p.alpha / m53.alpha
    kappa_measured = be53p.alpha / float(sig[-1])
    kappa_used = kappa_policy.resolve(kappa_measured)
    if not kappa_used > 1:  # only a margin can land here: a fixed kappa exceeds 1
        raise ApproximationError(
            f"kappa_margin {kappa_policy.value:g} times the measured kappa "
            f"{kappa_measured:.6g} is {kappa_used:.6g}; the inversion's kappa "
            f"must exceed 1")

    poly = inverse_poly(kappa_used, eps_prime)
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

def q_step(ledger: NormLedger, model_be, be_x: BlockEncoding,
           be_p: BlockEncoding, be_u: BlockEncoding, be_z: BlockEncoding,
           kappa_policy: KappaPolicy, eps_prime: float,
           step: int = 0) -> tuple[BlockEncoding, BlockEncoding]:
    """One filter step on encodings: the five stages, nothing read out.

    `model_be` maps "A", "B", "H", "Q" and "R" to the model's encodings.
    Returns the x_hat and P encodings; op_info gets their operator counts.
    """
    be_a, be_h = model_be["A"], model_be["H"]
    x_minus = q_predict_state(ledger, be_a, be_x, model_be["B"], be_u, step=step)
    p_minus = q_predict_cov(ledger, be_a, be_p, model_be["Q"], step=step)
    k_be = q_gain(ledger, p_minus, be_h, model_be["R"], kappa_policy, eps_prime,
                  step=step)
    x_hat_be = q_update_state(ledger, x_minus, k_be, be_h, be_z, step=step)
    p_hat_be = q_update_cov(ledger, p_minus, k_be, be_h, step=step)
    ledger.op_info[step] = {
        "gain": op_stats(k_be.op),
        "x_hat": op_stats(x_hat_be.op),
        "P": op_stats(p_hat_be.op),
    }
    return x_hat_be, p_hat_be


def q_filter_run(model: KalmanModel, init: FilterState, controls,
                 measurements, steps: int, readout_mode: str = "exact", *,
                 shots: int = 16384, iterations: int = 100, seed: int = 0,
                 kappa_policy: KappaPolicy | None = None,
                 eps_prime: float = 0.01):
    """Run the block-encoded filter for `steps` iterations.

    Returns (trajectory, ledger); trajectory[0] is the initial state.
    Each step encodes, runs `q_step` and reads x_hat and P through `read_out`.
    A "sampled" run's seed must be a nonnegative integer, checked before
    any step runs; a sampled step whose state estimate draws no counts
    at all aborts with the partial trajectory attached.
    """
    if readout_mode not in ("exact", "sampled"):
        raise ConfigError(f"readout_mode must be exact or sampled, "
                          f"got {readout_mode!r}")
    if steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {steps}")
    sampled = readout_mode == "sampled"
    if sampled and (isinstance(seed, bool) or not (
            isinstance(seed, numbers.Integral) and seed >= 0)):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    kappa_policy = kappa_policy or KappaPolicy.margin(1.1)
    n, c, m = model.state_dim, model.control_dim, model.obs_dim
    if init.x_hat.size != n:
        raise DimensionError("initial state dimension does not match the model")
    s = register_qubits(n, c, m)
    if steps > 0 and (len(controls) < steps or len(measurements) < steps):
        raise DimensionError(
            f"need at least {steps} controls and measurements, "
            f"got {len(controls)} and {len(measurements)}")

    model_be = {k: encode_matrix(getattr(model, k), s) for k in "ABHQR"}
    ledger = NormLedger()
    trajectory = [init]
    state = init
    for j in range(steps):
        step = state.k + 1
        u = _vector(controls[j], c, f"controls[{j}]")
        z = _vector(measurements[j], m, f"measurements[{j}]")

        x_hat_be, p_hat_be = q_step(
            ledger, model_be, encode_vector(state.x_hat, s),
            encode_matrix(state.P, s), encode_vector(u, s), encode_vector(z, s),
            kappa_policy, eps_prime, step)
        x_new, x_meta = read_out(x_hat_be, "state readout", (
            shots, iterations, [(seed, step, 0)]) if sampled else None)
        if sampled and all(x_meta[0]["zero_count"]):
            raise MeasurementBudgetError(
                f"step {step}: no counts landed on any state entry "
                f"in {shots}x{iterations} shots",
                partial=(trajectory, ledger))
        p_new, p_meta = read_out(p_hat_be, "covariance readout", (
            shots, iterations, [(seed, step, 1 + col) for col in range(n)])
            if sampled else None)
        if sampled:
            ledger.sampling_info[step] = {"x_hat": x_meta[0], "P": p_meta}

        state = FilterState(x_new[:, 0], p_new, step)
        trajectory.append(state)
    return trajectory, ledger
