"""Odd polynomial approximation of 1/x, phase-factor solving, and the
singular value transformation circuit that block-encodes a scaled inverse.

Polynomial
----------
The approximant is the truncated odd Chebyshev expansion of the smoothed
reciprocal

    f(x) = (1 - (1 - x^2)^b) / x
         = 4 sum_{j=0}^{b-1} (-1)^j [2^{-2b} sum_{i=j+1}^{b} C(2b, b+i)] T_{2j+1}(x)

with b = ceil(kappa^2 * ln(kappa/eps')). The truncation keeps degrees up
to d = 2*ceil(sqrt(b*ln(4b/eps'))) + 1, the standard sufficient cutoff;
the achieved error is then measured on a dense grid and must come in
under eps'. Only the coefficients the truncation can keep are built:
the binomial tails are exact integers, and each kept coefficient is one
correctly rounded division of its tail by 4^b. The series is evaluated
at half length: T_{2j+1}(x) = x V_j(2x^2 - 1), with V_j the third-kind
Chebyshev polynomial (V_0 = 1, V_1 = 2y - 1, V_{j+1} = 2y V_j - V_{j-1}),
so Clenshaw runs over the (d+1)/2 odd coefficients only and the result
is exactly odd in floating point. The reported `scale` is
the max of the truncated series over [-1, 1] (refined locally) divided
by (1 - 1e-8), so the normalized polynomial obeys |p| <= 1 with a strict
margin; scale plays the role of the kappa*beta factor relating p to 1/x.
The |x| where that max is taken is kept as `peak_at` for the phase solver.

Both measurements use the 20001-point grid, but evaluate the series only
where a bound says a point can still set the result, so they return
what full-grid scans return, bit for bit. Dropped coefficient j is
4 P(Bin(2b, 1/2) >= b + j + 1) <= 4 exp(-(j+1)^2/b) (Hoeffding), so on
[-1, 1] the kept series is within tau = 4 sum_{j>=h} exp(-(j+1)^2/b) +
1e-6 of f (h kept terms; the 1e-6 covers rounding). On [1/kappa, 1],
|series - 1/x| <= (1 - x^2)^b / x + tau, which falls with x: only the
grid prefix where that bound reaches the error at 1/kappa is evaluated.
|series(x)| <= f(|x|) + tau with f unimodal on (0, 1]: the peak scan
evaluates the one run of grid points on each sign, around f's peak,
where that bound reaches the series' value beside the peak, then
refines as before. Both cuts are found by walking outward one grid
point at a time, with the bound in scalar `math`.

Phases
------
Phase factors are solved in the W_x convention: the scalar response is

    <0| e^{i psi_0 Z} prod_k W(x) e^{i psi_k Z} |0>,
    W(x) = [[x, i sqrt(1-x^2)], [i sqrt(1-x^2), x]].

Symmetric phases (psi_k = psi_{d-k}) leave (d+1)/2 free angles. Matching
the response's real part at the (d+1)/2 positive Chebyshev nodes of
order d+1 is then a square nonlinear system (the order-d node set would
be rank-deficient by one: x = 0 is satisfied identically by any odd-d
response). It is solved by Newton steps from psi_0 = pi/4, all
other free angles 0, the start Dong, Lin, Ni and Wang (arXiv:2307.12468)
show to be robust across parameter regimes. The normalized 1/x
polynomial peaks at 1 - 1e-8, where Re u00 <= 1 folds, so the root is
nearly singular and plain Newton converges only linearly (16 steps
from degree 23 to 415). Two changes make that root regular: the
positive node nearest the peak is moved onto the peak's |x|
(`ChebPoly.peak_at`), and once the node residual is below 5e-3 each
step solves jac @ step = sqrt(1 - R^2) (arccos p - arccos R), Newton on
arccos(Re u00) = arccos(p), whose Jacobian is jac with scaled rows.
arccos is one-to-one on [-1, 1], so the roots are the same; a cold
solve then takes 8 or 9 steps. Each step evaluates the
residual and Jacobian in a half-length pass over SU(2) pairs (a, b)
standing for [[a, b], [-b*, a*]], with E_k = exp(i psi_k Z). Only the
prefixes P_k = E_0 W ... E_{k-1} W for k < h = (d+1)/2 are built: since
the phases are a palindrome and W is symmetric, the product is
U = Q W Q^T with Q = P_{h-1} E_{h-1}, and every suffix is S_k = P_k^dag U
because P_k S_k = U. The derivative insertion at angle k is then
(P_k iZ P_k^dag U)_00, and the insertions at k and d - k are equal (one is
the transpose of the other), so each Jacobian column is twice the
insertion at its own index. The Jacobian is built from the residual
pass's prefixes only when a step follows, so the pass that finds
convergence builds none. The result is verified at the order-d
nodes by `_response_batch`, which carries row 0 of the plain product of
the full angle list and so shares neither the SU(2)-pair form nor the
palindrome identity with the kernel it checks.
Solutions are non-unique; no angle list is treated as ground truth.

Circuit
-------
Outside the circuit builder, phases are W_x phases only. The circuit
alternates projector phases exp(i*phi*(2P - I)) on the input encoding's
ancilla wires with U and U^dag (d applications, d+1 phases), at the
reflection angles `_reflection_angles` derives (pi/4 off each end, pi/2
off the interior), under a global phase i^d. The response's imaginary
part is removed by averaging the Phi and -Phi circuits behind one
Hadamard-combined ancilla, so a_out = a_in + 1. U^dag is formed once
per transform, by one `adjoint`.

When the input encoding fits `DENSE_THRESHOLD`, the whole transform is
one dense leaf on n+1 qubits: the two sign circuits run as one chain,
each of the d steps one matmul with U or U^dag on the stacked
(Phi, -Phi) pair followed by the projector phase, a row scaling by
e^{+i phi} on the ancilla-zero rows and e^{-i phi} on the rest, and
the Hadamard average of the pair is taken in closed form. Above the
threshold the transform stays a lazy tree, two `Product`s of 2d+2
nodes under a Hadamard-wrapped `Select`.

Polynomials and phase lists share one LRU cache of _CACHE_SIZE entries;
a hit returns the object built before, and `clear_cache()` empties it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding, decode
from .errors import (
    ApproximationError,
    DimensionError,
    ParityError,
    SigmaRangeError,
    SolverError,
)
from .tensor_ops import (
    DENSE_THRESHOLD,
    Dense,
    Extend,
    Product,
    ProjectorPhase,
    QOperator,
    Select,
    adjoint,
    materialize,
    svd,
)

_GRID_POINTS = 20001  # points of the measuring grid: the peak scan and the 1/x error
_MARGIN = 1e-8  # |p| <= 1 - _MARGIN on the measuring grid
DEGREE_CAP = 501  # highest degree `inverse_poly` builds
# added to the tail bound for rounding: over 500x Clenshaw's, about
# d^2 2^-53 sum |c_j| <= 2e-9 at the degree cap
_TAIL_SLACK = 1e-6
_PEAK_U = 1.2564312086261697  # root of e^u = 1 + 2u: f peaks near x^2 = _PEAK_U / b
_NEWTON_TOL = 1e-12  # node residual at which Newton stops early
_NEWTON_MAXITER = 50
_ARCCOS_BELOW = 5e-3  # node residual below which Newton works on arccos(Re u00)
_CACHE_SIZE = 32  # entries kept by the one cache, polynomials and phases together

_cache: OrderedDict = OrderedDict()  # least recently used first


def _cached(key, build):
    """The value stored under key, or build() stored there; a hit refreshes it."""
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit
    value = build()
    _cache[key] = value
    if len(_cache) > _CACHE_SIZE:
        _cache.popitem(last=False)
    return value


def clear_cache():
    """Forget every cached polynomial and phase list."""
    _cache.clear()


# ---------------------------------------------------------------------------
# Chebyshev polynomial of 1/x
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebPoly:
    """Odd Chebyshev approximant of (1/scale)*(1/x) on [1/kappa, 1].

    odd_coeffs[j] multiplies T_{2j+1}; eps_prime is the ACHIEVED sup of
    |p(x) - (1/scale)(1/x)| over the measuring grid. peak_at, when set,
    is the |x| where |p| peaks (as `_series_max` refines it); the phase
    solver puts one node there, and locates the peak itself when it is
    None.
    """

    odd_coeffs: np.ndarray
    degree: int
    kappa: float
    scale: float
    eps_prime: float
    peak_at: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "odd_coeffs",
                           np.asarray(self.odd_coeffs, dtype=float))
        if self.degree % 2 == 0:
            raise ParityError(f"degree must be odd, got {self.degree}")
        if len(self.odd_coeffs) != (self.degree + 1) // 2:
            raise DimensionError("coefficient count does not match degree")


def _clenshaw_odd(odd_coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j odd_coeffs[j] T_{2j+1}(x) = x sum_j odd_coeffs[j] V_j(2x^2 - 1).

    Clenshaw over the third-kind recurrence V_{j+1} = 2y V_j - V_{j-1}
    (V_0 = 1, V_1 = 2y - 1), one term per odd coefficient. The series
    depends on x only through x^2 and the final factor x, so it is
    exactly odd in floating point. No domain check.
    """
    y2 = 4.0 * x * x - 2.0  # 2y
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    tmp = np.empty_like(x)
    for ck in odd_coeffs[:0:-1]:
        np.multiply(y2, b1, out=tmp)  # b_k = 2y b_{k+1} - b_{k+2} + c_k, in place
        tmp -= b2
        tmp += ck
        b1, b2, tmp = tmp, b1, b2
    return x * ((y2 - 1.0) * b1 - b2 + odd_coeffs[0])


def _check_unit_interval(arr: np.ndarray) -> None:
    """Raise SigmaRangeError at the entry farthest outside [-1, 1] (1e-12 slack)."""
    if np.any(np.abs(arr) > 1 + 1e-12):
        bad = float(arr.flat[int(np.argmax(np.abs(arr)))])
        raise SigmaRangeError(bad, -1.0, 1.0)


def eval_cheb(poly: ChebPoly, x):
    """Clenshaw evaluation of sum c_k T_k(x) for |x| <= 1."""
    arr = np.asarray(x, dtype=float)
    _check_unit_interval(arr)
    out = _clenshaw_odd(poly.odd_coeffs, arr)
    return out if out.shape else float(out)


def _odd_series_one_over_x(b: int, count: int | None = None) -> np.ndarray:
    """Odd Chebyshev coefficients c_1, c_3, ... of (1 - (1-x^2)^b)/x.

    Only the first min(count, b) are built (all b when count is None).
    The tails sum_{i=j+1}^{b} C(2b, b+i) are exact integers, starting
    from (4^b - C(2b, b))/2 and stepping C(2b, b+j) down the exact
    recurrence C(2b, b+j+1) = C(2b, b+j) (b-j)/(b+j+1); each kept
    coefficient costs one correctly rounded int division by 4^b.
    """
    count = b if count is None else min(count, b)
    denom = 4**b
    comb = math.comb(2 * b, b)
    tail = (denom - comb) // 2
    coeffs = np.empty(count)
    for j in range(count):
        coeffs[j] = (4 if j % 2 == 0 else -4) * (tail / denom)
        comb = comb * (b - j) // (b + j + 1)  # C(2b, b+j+1)
        tail -= comb
    return coeffs


def _tail_bound(b: int, kept: int) -> float:
    """tau >= |series - f| on [-1, 1] for the first `kept` of f's b terms.

    Dropped coefficient j is 4 P(Bin(2b, 1/2) >= b + j + 1) in size, at
    most 4 exp(-(j+1)^2/b) by Hoeffding. The sum over j >= kept is at
    most its first term plus the integral of the rest, an erfc;
    _TAIL_SLACK covers the rounding of the series and of this bound.
    """
    if kept >= b:
        return _TAIL_SLACK
    t = (kept + 1) / math.sqrt(b)
    tail = math.exp(-t * t) + 0.5 * math.sqrt(math.pi * b) * math.erfc(t)
    return 4.0 * tail + _TAIL_SLACK


def _walk(keep, i: int, step: int, stop: int) -> int:
    """First index from i, stepping by step toward stop, where keep fails;
    stop when keep holds up to it."""
    while i != stop and keep(i):
        i += step
    return i


def _peak_candidates(odd_coeffs: np.ndarray, xs: np.ndarray, b: int) -> np.ndarray:
    """Indices of xs (ascending) where |series| can reach its max over xs.

    odd_coeffs are the first terms of f's series for this b, and xs the
    [-1, 1] measuring grid. |series(x)| <= f(|x|) + tau, and f is
    unimodal on (0, 1], so a point with f(|x|) + tau below the series'
    value m_lo at the grid points beside f's peak on both signs cannot
    hold the max; the points left on each sign form one run around the
    peak, which `_walk` finds outward from the points beside it. Every
    index when neither point beside the peak on a sign is kept.
    """
    tau = _tail_bound(b, odd_coeffs.size)
    top = min(1.0, math.sqrt(_PEAK_U / b))
    neg_end = int(np.searchsorted(xs, 0.0, "left"))  # first x >= 0
    pos_start = int(np.searchsorted(xs, 0.0, "right"))  # first x > 0
    right = max(int(np.searchsorted(xs, top, "left")), pos_start + 1)
    left = min(int(np.searchsorted(xs, -top, "right")), neg_end - 1)
    beside = np.array([left - 1, left, right - 1, right])
    m_lo = float(np.max(np.abs(_clenshaw_odd(odd_coeffs, xs[beside]))))

    def keep(i):  # f(|x|) + tau >= m_lo
        x = abs(float(xs[i]))
        return (1.0 - (1.0 - x * x) ** b) / x + tau >= m_lo

    runs = []
    for lo, hi, lo_stop, hi_stop in ((left - 1, left, -1, neg_end),
                                     (right - 1, right, pos_start - 1, xs.size)):
        if not (keep(lo) or keep(hi)):
            return np.arange(xs.size)
        runs.append(np.arange(_walk(keep, lo, -1, lo_stop) + 1,
                              _walk(keep, hi, 1, hi_stop)))
    return np.concatenate(runs)


def _series_max(odd_coeffs: np.ndarray, b: int | None = None) -> tuple[float, float]:
    """(max |series| over [-1, 1], the |x| where it is taken).

    A scan of the measuring grid, then a local refinement: the bracket
    around the best point is re-scanned with 65 points, each pass
    narrowing it 32-fold, until it is 1e-13 wide. When odd_coeffs are a
    truncation of f's series for this b, the grid scan visits only
    `_peak_candidates`; the first best point, and so the bracket and the
    result, are the full scan's.
    """
    xs = np.linspace(-1.0, 1.0, _GRID_POINTS)
    at = np.arange(xs.size) if b is None else _peak_candidates(odd_coeffs, xs, b)
    peak = where = 0.0
    while True:
        vals = np.abs(_clenshaw_odd(odd_coeffs, xs[at]))
        k = int(np.argmax(vals))
        i = int(at[k])
        if vals[k] > peak:
            peak, where = float(vals[k]), abs(float(xs[i]))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        if hi - lo <= 1e-13:
            return peak, where
        xs = np.linspace(lo, hi, 65)
        at = np.arange(xs.size)


def _measured_error(odd_coeffs: np.ndarray, kappa: float, b: int) -> float:
    """sup over the grid on [1/kappa, 1] of |series(x) - 1/x| (unscaled).

    odd_coeffs are the first terms of f's series for this b. There
    |series - 1/x| <= (1 - x^2)^b / x + tau, decreasing in x, so only
    the grid prefix where that bound reaches the error e_0 at 1/kappa
    can hold the sup, and only that prefix is evaluated.
    """
    xs = np.linspace(1.0 / kappa, 1.0, _GRID_POINTS)
    tau = _tail_bound(b, odd_coeffs.size)

    def errors(head):
        return np.abs(_clenshaw_odd(odd_coeffs, head) - 1.0 / head)

    e0 = float(errors(xs[:1])[0])

    def keep(i):  # (1 - x^2)^b / x + tau >= e0
        x = float(xs[i])
        return (1.0 - x * x) ** b / x + tau >= e0

    end = _walk(keep, 1, 1, xs.size)
    return max(e0, float(np.max(errors(xs[1:end])))) if end > 1 else e0


def smoothing_order(kappa: float, eps_prime: float) -> int:
    """The (1-x^2)^b cutoff order making the smoothed 1/x eps'-close on [1/kappa, 1]."""
    return math.ceil(kappa**2 * math.log(kappa / eps_prime))


def _start_degree(b: int, eps_prime: float) -> int:
    """2*ceil(sqrt(b*ln(4b/eps'))) + 1, the sufficient cutoff, at most 2b - 1."""
    return min(2 * math.ceil(math.sqrt(b * math.log(4 * b / eps_prime))) + 1,
               2 * b - 1)


def _normalized(odd: np.ndarray, b: int, kappa: float, err: float) -> ChebPoly:
    """The series over its peak (with the margin), err its unscaled error."""
    peak, where = _series_max(odd, b=b)
    scale = peak / (1.0 - _MARGIN)
    return ChebPoly(odd / scale, 2 * odd.size - 1, kappa, scale, err / scale,
                    where)


def inverse_poly(kappa: float, eps_prime: float) -> ChebPoly:
    """Odd polynomial with scale*p(x) ~= 1/x to eps' on [1/kappa, 1].

    Degree comes from the sufficient truncation bound; the achieved
    (unscaled) error is re-measured on a dense grid and the degree is
    bumped in steps of two if the measurement misses eps', failing with
    an approximation error past `DEGREE_CAP` (or at a kappa that is not
    finite or overflows the smoothing order). Cached on the arguments.
    """
    return _cached(("inverse_poly", kappa, eps_prime),
                   lambda: _build_inverse_poly(kappa, eps_prime, DEGREE_CAP))


def _build_inverse_poly(kappa: float, eps_prime: float, degree_cap: int) -> ChebPoly:
    if not 1 < kappa < math.inf:
        raise ApproximationError(f"kappa must be finite and exceed 1, got {kappa}")
    if not 0 < eps_prime < 1:
        raise ApproximationError(f"eps_prime must lie in (0,1), got {eps_prime}")
    try:
        b = smoothing_order(kappa, eps_prime)
        d = _start_degree(b, eps_prime)
    except OverflowError:
        raise ApproximationError(
            f"smoothing order overflows at kappa {kappa}, eps' {eps_prime}") from None
    if d > degree_cap:
        raise ApproximationError(f"required degree {d} exceeds the cap {degree_cap}")
    while True:
        odd = _odd_series_one_over_x(b, (d + 1) // 2)  # rebuilt on the rare bump
        err = _measured_error(odd, kappa, b)
        if err <= eps_prime:
            break
        d += 2
        if d > min(degree_cap, 2 * b - 1):
            raise ApproximationError(
                f"tolerance {eps_prime} unattained at degree cap "
                f"{degree_cap} (err {err:.3g})"
            )
    return _normalized(odd, b, kappa, err)


# ---------------------------------------------------------------------------
# scalar QSP response
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseFactors:
    """W_x phases psi_0..psi_d of the signal-processing circuit.

    residual records the max verification residual at the order-d nodes
    and iterations the Newton steps taken (8 or 9 for `inverse_poly`
    targets), when the phases came from solve_phase_factors.
    """

    angles: np.ndarray
    residual: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise DimensionError("need at least two angles")
        if not np.all(np.isfinite(a)):
            raise DimensionError("angles must be finite")
        object.__setattr__(self, "angles", a)

    @property
    def degree(self) -> int:
        return self.angles.size - 1


def _response_batch(angles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<0|U|0> of the alternating rotation product, vectorized over x.

    Carries row 0 of the running product as (a, b): each W(x) maps it to
    (a x + b i sqrt(1-x^2), a i sqrt(1-x^2) + b x), then the rotation
    scales a by e^{i psi} and b by e^{-i psi}.
    """
    x = np.asarray(x, dtype=float)
    iroot = 1j * np.sqrt(np.clip(1.0 - x**2, 0.0, None))
    rot = np.exp(1j * angles)
    pairs = np.stack([rot, rot.conjugate()], axis=1).reshape(
        (rot.size, 2) + (1,) * x.ndim)  # row k: (e^{i psi_k}, e^{-i psi_k})
    ab = np.zeros((2,) + x.shape, dtype=complex)  # row 0 as (a, b), in place
    ab[0] = rot[0]
    tmp = np.empty_like(ab)
    for e in pairs[1:]:
        np.multiply(iroot, ab[::-1], out=tmp)
        ab *= x
        ab += tmp
        ab *= e
    return ab[0]


def qsp_response(phi: PhaseFactors, x):
    """Scalar response of the signal-processing circuit at x in [-1, 1]."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_interval(arr)
    out = _response_batch(phi.angles, arr)
    return out if np.ndim(x) else complex(out[0])


# ---------------------------------------------------------------------------
# phase solving
# ---------------------------------------------------------------------------

def _sym_angles(free: np.ndarray) -> np.ndarray:
    """Full symmetric angle vector (psi_k = psi_{d-k}) for odd degree."""
    return np.concatenate([free, free[::-1]])


def _residual_pass(free: np.ndarray, x: np.ndarray, target: np.ndarray):
    """Real-part residual at the nodes, and what `_jacobian` needs from the pass.

    Works on the factor sequence E_0 W E_1 ... W E_d with diagonal
    E_k = diag(e^{i psi_k}, e^{-i psi_k}). Every factor, and so every
    partial product, is in SU(2) and is kept as a pair (a, b) standing for
    [[a, b], [-b*, a*]]. One pass of h - 1 steps, h = (d+1)/2, builds the
    prefixes P_k = E_0 W ... E_{k-1} W for k < h only. The phases are a
    palindrome and W is symmetric, so with Q = P_{h-1} E_{h-1} the full
    product is U = Q W Q^T, and each suffix S_k = E_k W ... W E_d is
    P_k^dag U. The derivative insertion d resp / d psi_k = (P_k iZ S_k)_00
    is therefore i[(|a_k|^2 - |b_k|^2) U_00 + 2 a_k b_k U_01*]. Free angle m
    moves psi_m and psi_{d-m}, whose insertions are equal (the one at d - m
    is the transpose of the one at m), so column m is twice the insertion
    at k = m. Returns (r, (a, b, u00, u01)): the prefixes' pairs and row 0
    of U.
    """
    half = free.size
    iroot = 1j * np.sqrt(np.clip(1.0 - x**2, 0.0, None))
    rot = np.exp(1j * free)[:, None]  # (h, 1): E_k = diag(rot, rot*)
    con = rot.conjugate()
    # P_{k+1} = P_k E_k W maps (a, b) to (a x e + b iy e*, a iy e + b x e*),
    # that is diag_k * (a, b) + anti_k * (b, a)
    diag = np.empty((half - 1, 2, x.size), dtype=complex)
    anti = np.empty((half - 1, 2, x.size), dtype=complex)
    np.multiply(x, rot[:-1], out=diag[:, 0])
    np.multiply(x, con[:-1], out=diag[:, 1])
    np.multiply(iroot, con[:-1], out=anti[:, 0])
    np.multiply(iroot, rot[:-1], out=anti[:, 1])

    prefix = np.empty((half, 2, x.size), dtype=complex)  # row k: (a_k, b_k)
    prefix[0, 0] = 1.0
    prefix[0, 1] = 0.0
    swapped = np.empty((2, x.size), dtype=complex)
    for dk, ak, cur, nxt in zip(diag, anti, prefix, prefix[1:]):
        np.multiply(dk, cur, out=nxt)
        np.multiply(ak, cur[::-1], out=swapped)
        nxt += swapped
    a, b = prefix[:, 0], prefix[:, 1]

    qa, qb = a[-1] * rot[-1], b[-1] * con[-1]  # Q = P_{h-1} E_{h-1}
    # row 0 of U = Q W Q^T, which fixes the SU(2) element
    u00 = x * (qa * qa + qb * qb) + 2.0 * iroot * qa * qb
    u01 = (x * (qb * qa.conjugate() - qa * qb.conjugate())
           + iroot * (np.abs(qa) ** 2 - np.abs(qb) ** 2))

    return u00.real - target, (a, b, u00, u01)


def _jacobian(a: np.ndarray, b: np.ndarray, u00: np.ndarray,
              u01: np.ndarray) -> np.ndarray:
    """The Jacobian of `_residual_pass`'s residual, from that pass's parts."""
    # Re(i z) = -Im z for each insertion, doubled for the mirrored angle
    ins = (a * b) * (2.0 * u01.conjugate())
    deriv = (np.abs(a) ** 2 - np.abs(b) ** 2) * u00.imag + ins.imag
    return -2.0 * deriv.T


def solve_phase_factors(poly: ChebPoly) -> PhaseFactors:
    """Symmetric W_x phases whose response real part matches poly.

    Newton's method on the square system of (d+1)/2 free angles against
    the (d+1)/2 positive Chebyshev nodes, the one nearest the peak
    moved onto poly.peak_at (located by `_series_max` when None),
    started from psi_0 = pi/4 with the other free angles 0. Below a node
    residual of 5e-3 each step is Newton's on arccos(Re u00) = arccos(p),
    which is regular at the peak node where plain Newton converges
    linearly. |p| is read at that peak; above 1 - 5e-9 the target is
    first rescaled to peak at 1 - 1e-8. Raises SolverError if a Newton
    step is singular or non-finite, or if the node residual is still
    above 1e-8 after the iteration budget. The result is verified at
    the order-d Chebyshev nodes to 1e-6 before returning; SolverError
    (with the final residual) otherwise. Cached on the polynomial's
    degree and coefficients (rounded to 14 decimals).
    """
    key = ("phases", poly.degree, poly.odd_coeffs.round(14).tobytes())
    return _cached(key, lambda: _solve(poly))


def _solve(poly: ChebPoly) -> PhaseFactors:
    d = poly.degree  # odd, as ChebPoly enforces
    peak_at = poly.peak_at
    if peak_at is None:
        _, peak_at = _series_max(poly.odd_coeffs)
    peak = abs(eval_cheb(poly, peak_at))
    coeffs = poly.odd_coeffs
    if peak > 1.0 - _MARGIN / 2:
        # rescale below the solvability bound; the response then matches
        # the rescaled polynomial (documented behaviour for callers that
        # hand in an unnormalized target)
        coeffs = coeffs * ((1.0 - _MARGIN) / peak)
        poly = ChebPoly(coeffs, d, poly.kappa, poly.scale * peak / (1.0 - _MARGIN),
                        poly.eps_prime)

    half = (d + 1) // 2
    nodes = np.cos((2 * np.arange(1, half + 1) - 1) * np.pi / (4 * half))
    if peak_at > 0.0:  # never at 0, where every odd response vanishes
        nodes[int(np.argmin(np.abs(nodes - peak_at)))] = peak_at
    target = np.asarray(eval_cheb(poly, nodes), dtype=float)
    target_angle = np.arccos(np.clip(target, -1.0, 1.0))

    free = np.zeros(half)
    free[0] = np.pi / 4
    for iterations in range(_NEWTON_MAXITER + 1):
        r, parts = _residual_pass(free, nodes, target)
        res = float(np.max(np.abs(r)))
        if res <= _NEWTON_TOL or iterations == _NEWTON_MAXITER:
            break
        jac = _jacobian(*parts)
        del parts  # the prefixes, freed before the next pass allocates its own
        if res < _ARCCOS_BELOW:
            # the step on arccos(Re u00) = arccos(p): jac's rows scaled by
            # -1/sqrt(1 - R^2), which makes the fold R <= 1 at the peak
            # node a regular root
            resp = np.clip(r + target, -1.0, 1.0)
            r = np.sqrt(1.0 - resp**2) * (target_angle - np.arccos(resp))
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"singular Newton step at node residual {res:.3g} "
                f"(degree {d}): {exc}", residual=res) from exc
        if not np.all(np.isfinite(step)):
            raise SolverError(
                f"non-finite Newton step at node residual {res:.3g} (degree {d})",
                residual=res)
        free = free - step
    if not res <= 1e-8:
        raise SolverError(
            f"phase solver stalled at node residual {res:.3g} (degree {d})",
            residual=res)

    angles = _sym_angles(free)
    check_nodes = np.cos((2 * np.arange(1, d + 1) - 1) * np.pi / (2 * d))
    resp = _response_batch(angles, check_nodes)
    residual = float(np.max(np.abs(resp.real - eval_cheb(poly, check_nodes))))
    if residual > 1e-6:
        raise SolverError(
            f"verification residual {residual:.3g} exceeds 1e-6 at order-{d} nodes",
            residual=residual)
    return PhaseFactors(angles, residual, iterations)


# ---------------------------------------------------------------------------
# the transformation circuit
# ---------------------------------------------------------------------------

def _reflection_angles(angles: np.ndarray) -> np.ndarray:
    """W_x phases as projector phases: pi/4 off each end, pi/2 off the interior."""
    refl = angles.copy()
    refl[0] -= np.pi / 4
    refl[-1] -= np.pi / 4
    refl[1:-1] -= np.pi / 2
    return refl


def _qsvt_circuit(u: QOperator, u_dag: QOperator, ancillas: int,
                  angles: np.ndarray) -> QOperator:
    """The lazy transform: Extend(H) Select(Phi circuit, -Phi circuit) Extend(H).

    `angles` are W_x phases; each sign circuit is a Product of the
    global i^d, then alternating projector phases at their reflection
    angles (on the `ancillas` leading wires) and U/U^dag. u_dag is one
    tree, shared by every position of both circuits that applies U^dag.
    """
    n = u.nqubits
    anc = tuple(range(ancillas))
    d = angles.size - 1

    def sign_circuit(refl):
        children = [ProjectorPhase((d % 4) * np.pi / 2, n, ()),  # global i^d
                    ProjectorPhase(refl[0], n, anc)]
        for k in range(1, d + 1):
            children.append(u if k % 2 == 1 else u_dag)
            children.append(ProjectorPhase(refl[k], n, anc))
        return Product(tuple(children))

    h = Extend(Dense(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)), n + 1, (0,))
    return Product((h, Select(sign_circuit(_reflection_angles(angles)),
                              sign_circuit(_reflection_angles(-angles))), h))


def _dense_transform(u: QOperator, u_dag: QOperator, ancillas: int,
                     angles: np.ndarray) -> Dense:
    """The unitary of `_qsvt_circuit(u, u_dag, ancillas, angles)` as one leaf.

    Both sign circuits run as one chain on a (2, 2^n, 2^n) array, right
    to left: start from the last projector phase, then per step one
    batched matmul with U or U^dag and one row scaling by the next
    projector phase (e^{+i phi} on the 2^(n - ancillas) ancilla-zero
    rows, which come first, e^{-i phi} on the others); the global phase
    i^d last. Behind the Hadamard on wire 0 the Phi and -Phi results
    P and M combine to (1/2)[[P + M, P - M], [P - M, P + M]].
    """
    u, u_dag = materialize(u), materialize(u_dag)
    refl = np.stack([_reflection_angles(angles), _reflection_angles(-angles)],
                    axis=1)  # (d+1, 2)
    d = refl.shape[0] - 1
    dim = u.shape[0]
    sign = np.where(np.arange(dim) < dim >> ancillas, 1.0, -1.0)
    phases = np.exp(1j * refl[:, :, None] * sign)[..., None]  # (d+1, 2, dim, 1)
    arr = phases[d] * np.eye(dim)
    tmp = np.empty_like(arr)
    for k in range(d, 0, -1):
        np.matmul(u if k % 2 == 1 else u_dag, arr, out=tmp)
        np.multiply(phases[k - 1], tmp, out=arr)
    arr *= 0.5 * (1, 1j, -1, -1j)[d % 4]
    even, odd = arr[0] + arr[1], arr[0] - arr[1]
    return Dense(np.block([[even, odd], [odd, even]]))


def _transform(be: BlockEncoding, phi: PhaseFactors,
               dagger: bool = False) -> BlockEncoding:
    """The odd transform of be (of its adjoint when dagger); callers check sigma.

    U^dag is formed once, by one `adjoint` of be.op. At or below
    `DENSE_THRESHOLD` qubits the transform is one dense leaf on n+1
    qubits (`_dense_transform`), above it the lazy `_qsvt_circuit`. The
    record's shape is be's; `be_invert` sets its own.
    """
    d = phi.degree
    if d % 2 == 0:
        raise ParityError(f"even degree {d} not supported")
    if be.eps > 1e-12:
        raise ApproximationError(
            f"transform needs an exact encoding, got eps={be.eps:.3g}")
    u, u_dag = be.op, adjoint(be.op)
    if dagger:
        u, u_dag = u_dag, u
    build = _dense_transform if u.nqubits <= DENSE_THRESHOLD else _qsvt_circuit
    return BlockEncoding(build(u, u_dag, be.ancillas, phi.angles), 1.0,
                         be.ancillas + 1, be.system_qubits, 0.0, be.shape)


def qsvt_apply(be_a: BlockEncoding, phi: PhaseFactors) -> BlockEncoding:
    """Apply the odd singular value transform to an exact encoding.

    Output block equals sum_j Re(p)(sigma_j) |w_j><v_j| where the input
    block is sum_j sigma_j |w_j><v_j|; alpha=1, a_out = a_in + 1.
    """
    out = _transform(be_a, phi)
    sig_max = float(np.linalg.norm(decode(be_a) / be_a.alpha, 2))
    if sig_max > 1 + 1e-10:
        raise SigmaRangeError(sig_max, 0.0, 1.0)
    return out


def be_invert(be_a: BlockEncoding, poly: ChebPoly,
              phi: PhaseFactors) -> BlockEncoding:
    """Block-encode A^{-1} by the transform of poly, whose phases are phi.

    poly is a 1/x approximant such as `inverse_poly` builds and phi its
    phases (`solve_phase_factors(poly)`); both are applied as given.
    alpha_out = poly.scale / alpha_in (the kappa*beta over alpha
    bookkeeping), eps_out = poly.eps_prime (the achieved scaled
    polynomial error) times alpha_out.

    The one singular-value gate: the input is decoded once and its block's
    singular values must lie in [1/poly.kappa, 1]. The transform skips
    `qsvt_apply`, whose sigma_max check would decode it again.

    An odd singular-value transform of W S Vh lands on W p(S) Vh, which for
    p(x) ~ 1/x is the adjoint of the inverse. The phases are therefore run
    on the adjoint encoding, so the output block is Vh^dag p(S) W^dag and
    the decoded result approximates A^{-1} itself. That adjoint is the one
    `adjoint(be_a.op)` `_transform` forms; be_a.op serves as its U^dag.

    When the encoding has at most `DENSE_THRESHOLD` qubits, the inverse
    comes out as one dense leaf on n+1 qubits, built by one chain of d
    matmuls; larger encodings get the lazy tree.
    """
    block = decode(be_a) / be_a.alpha
    _, sigma, _ = svd(block)
    lo = 1.0 / poly.kappa
    for s in sigma:
        if s < lo - 1e-12 or s > 1.0 + 1e-12:
            raise SigmaRangeError(float(s), lo, 1.0)
    out = _transform(be_a, phi, dagger=True)
    alpha_out = poly.scale / be_a.alpha
    return BlockEncoding(out.op, alpha_out, out.ancillas, out.system_qubits,
                         poly.eps_prime * alpha_out, be_a.shape)


def format_angles(phi: PhaseFactors) -> str:
    """Plain-text serialization: one radian value per line."""
    return "\n".join(f"{a:.16f}" for a in phi.angles) + "\n"
