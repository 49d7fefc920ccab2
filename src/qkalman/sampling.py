"""Simulated measurement: exact amplitudes, seeded shot sampling, and
entry estimation through the normalization factor.

Sampling draws multinomial counts over |amplitude|^2 of the outcomes it
is given, with a Philox counter-based generator, so histograms are
reproducible from the seed alone. The filter's readout gives it the
target entries of one column plus a single rest outcome (`with_rest`),
not the full register: the target counts are distributed as in a
full-register draw and, for one seed, equal to it. A run of `iterations`
repetitions of `shots` shots is pooled into one draw of
shots * iterations shots from the seed's own generator: the sum of
independent multinomials with one probability vector is itself that
multinomial.
Estimates are alpha*sqrt(count/N) and are magnitudes; signs are taken
from values the caller passes (simulator privilege: the filter passes
the decoded block), else every estimate is nonnegative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding
from .errors import ConfigError, DimensionError, MeasurementBudgetError
from .tensor_ops import apply, basis_state


@dataclass(frozen=True)
class SampleReport:
    """Pooled histogram of a repeated shot experiment."""

    shots: int
    iterations: int
    seed: int | tuple[int, ...]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return self.shots * self.iterations


def exact_amplitudes(be: BlockEncoding, column: int = 0) -> np.ndarray:
    """Full statevector of op applied to |0...0>|column>."""
    dim = 2**be.system_qubits
    if not 0 <= column < dim:
        raise DimensionError(f"column {column} out of range for {dim} states")
    state = basis_state(be.op.nqubits, column)  # ancillas lead, so flat index = column
    return apply(be.op, state)


def with_rest(targets: np.ndarray) -> np.ndarray:
    """Target amplitudes plus one rest outcome carrying the remaining mass.

    The rest amplitude is sqrt(max(0, 1 - sum |a_i|^2)): rounding can
    push the target mass of a unit column a hair above 1, and the rest
    is then clamped at 0. Drawing over this vector gives the target
    counts of a draw over the full unit-norm column, and for one seed
    the same ones (a multinomial draws its outcomes in order, each as a
    binomial of what is left).
    """
    targets = np.asarray(targets, dtype=complex)
    rest = np.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(targets) ** 2))))
    return np.append(targets, rest)


def _probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|amplitudes|^2 renormalized to sum 1."""
    probs = np.abs(np.asarray(amplitudes)) ** 2
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        raise DimensionError("amplitude vector has no probability mass")
    return probs / total


def sample_counts(amplitudes: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial shot histogram over |amplitudes|^2, Philox-seeded.

    The seed is the entropy of `SeedSequence(seed)`: an int or a flat
    sequence of ints, all nonnegative.
    """
    values = seed if isinstance(seed, (tuple, list)) else (seed,)
    for value in values:
        try:
            n = operator.index(value)
        except TypeError:
            raise ConfigError(
                f"seed entropy must be integers, got {value!r}") from None
        if n < 0:
            raise ConfigError(f"seed entropy must be nonnegative, got {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.multinomial(shots, _probabilities(amplitudes))


def pooled_report(amplitudes: np.ndarray, shots: int, iterations: int,
                  seed: int | tuple[int, ...]) -> SampleReport:
    """Pooled counts of `iterations` runs of `shots` shots, in one draw.

    The sum of independent Multinomial(shots, p) draws is distributed as
    one Multinomial(shots * iterations, p) draw, so the counts are
    sample_counts(amplitudes, shots * iterations, seed). The pooled
    total must fit in an int64 count.
    """
    if shots <= 0 or iterations <= 0 or shots * iterations > 2**63 - 1:
        raise MeasurementBudgetError(
            f"need positive shots and iterations with at most 2^63 - 1 "
            f"shots in total, got {shots}x{iterations}")
    return SampleReport(shots, iterations, seed,
                        sample_counts(amplitudes, shots * iterations, seed))


def estimate_entries(report: SampleReport, alpha: float, targets,
                     signs=None) -> tuple[np.ndarray, np.ndarray]:
    """(values, std_errors): alpha*sqrt(count/N) per target index and its
    delta-method error bar, in one vectorized pass.

    Var(p_hat) = p(1-p)/N propagated through alpha*sqrt(p) gives
    SE = alpha*sqrt(1-p_hat)/(2 sqrt(N)); a zero count yields 0 with the
    one-count resolution alpha/sqrt(N). Nonzero `signs` sign the values.
    """
    targets = np.asarray(targets, dtype=int)
    outside = (targets < 0) | (targets >= report.counts.size)
    if np.any(outside):
        raise DimensionError(
            f"target index {int(targets[outside][0])} outside the histogram")
    n = report.total
    counts = report.counts[targets]
    p_hat = counts / n
    values = alpha * np.sqrt(p_hat)
    std_errors = np.where(
        counts == 0, alpha / np.sqrt(n),
        alpha * np.sqrt(np.maximum(1.0 - p_hat, 0.0)) / (2.0 * np.sqrt(n)))
    if signs is not None:
        values = np.where(np.asarray(signs) != 0, np.sign(signs), 1.0) * values
    return values, std_errors
