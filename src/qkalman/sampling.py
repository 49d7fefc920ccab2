"""Simulated measurement: exact amplitudes, seeded shot sampling, and
entry estimation through the normalization factor.

Sampling draws multinomial counts over |amplitude|^2 of the outcomes it
is given, with a Philox counter-based generator, so histograms are
reproducible from the seed alone. The filter's readout gives it the
target entries of one column plus a single rest outcome (`with_rest`),
not the full register: the target counts are distributed as in a
full-register draw and, for one seed, equal to it. Multi-iteration runs
pool the counts of one draw per child of `SeedSequence(seed)`: the
Philox keys of all children are derived in one pass over the parent's
mixed entropy pool, and a single generator is re-keyed to each child's
fresh state in turn, so iteration i draws exactly what
`sample_counts(amplitudes, shots, SeedSequence(seed).spawn(n)[i])` does
without building a seeding object per iteration. The pooled histogram
is independent of iteration order.
Estimates are alpha*sqrt(count/N) and are magnitudes; signs are
recovered from the exact amplitudes when the caller passes them
(simulator privilege), else reported as unknown.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


@dataclass(frozen=True)
class EntryEstimate:
    """One matrix-entry estimate recovered from sampled frequencies."""

    index: int
    value: float
    magnitude: float
    std_error: float
    zero_count: bool
    sign_known: bool


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
    """Multinomial shot histogram over |amplitudes|^2, Philox-seeded."""
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.multinomial(shots, _probabilities(amplitudes))


# SeedSequence's pool size and hash constants (numpy.random.bit_generator);
# words are uint32, so every product is taken mod 2^32
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(entropy) -> list[int]:
    """32-bit words of an int or a flat sequence of ints, as SeedSequence
    splits them: each value least significant word first, 0 as one word."""
    values = entropy if isinstance(entropy, (tuple, list)) else (entropy,)
    words = []
    for value in values:
        try:
            n = operator.index(value)
        except TypeError:
            raise ConfigError(
                f"seed entropy must be integers, got {value!r}") from None
        if n < 0:
            raise ConfigError(f"seed entropy must be nonnegative, got {n}")
        words.append(n & _MASK32)
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
    return words


def _hash_consts(const: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) pairs of `count` hashes that share one running constant."""
    pairs = []
    for _ in range(count):
        nxt = const * mult & _MASK32
        pairs.append((const, nxt))
        const = nxt
    return pairs


# generate_state's output hashes, one per pool word
_OUTPUT_HASHES = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE)


def _spawn_keys(entropy, n: int) -> list[tuple[int, int]]:
    """Philox keys of the first n children of SeedSequence(entropy), in order.

    Key i equals `tuple(SeedSequence(entropy).spawn(n)[i].generate_state(2,
    np.uint64))`, computed without building the children. Child i mixes
    the entropy words, zero-padded to the pool size, and then the one
    word i (n <= 2^32). Before that word its pool equals the parent's
    `SeedSequence(entropy).pool` (the parent hashes a 0 for each missing
    word, as the padding does), so numpy mixes the entropy once per call;
    every hash constant depends only on how many words came before it.
    Word i then reaches pool word j only through the j-th of four fixed
    hashes, and key word j hashes only pool word j: each child costs four
    independent lanes of hash, mix and output hash.
    """
    hashed = _POOL_SIZE * max(len(_entropy_words(entropy)), _POOL_SIZE)
    const = _INIT_A * pow(_MULT_A, hashed, _MASK32 + 1) & _MASK32
    pool = np.random.SeedSequence(entropy).pool.tolist()
    lanes = [(_MIX_MULT_L * p, x, m, y, k) for p, (x, m), (y, k) in zip(
        pool, _hash_consts(const, _MULT_A, _POOL_SIZE), _OUTPUT_HASHES)]
    keys = []
    for i in range(n):
        out = []
        for lp, x, m, y, k in lanes:
            h = (i ^ x) * m & _MASK32
            h = (lp - _MIX_MULT_R * (h ^ h >> 16)) & _MASK32
            h = (h ^ h >> 16 ^ y) * k & _MASK32
            out.append(h ^ h >> 16)
        keys.append((out[0] | out[1] << 32, out[2] | out[3] << 32))
    return keys


class _ChildKey(ISeedSequence):
    """A precomputed Philox key behind the seed-sequence interface.

    Philox(_ChildKey(key)) starts at the state Philox(child) would: that
    key, counter 0, empty buffer, with no SeedSequence built.
    """

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.key, dtype=np.uint64)


def pooled_report(amplitudes: np.ndarray, shots: int, iterations: int,
                  seed: int | tuple[int, ...]) -> SampleReport:
    """Pool counts over iterations, one spawned child of the seed per iteration.

    The probabilities are computed once and the children's Philox keys
    in one pass (`_spawn_keys`). One generator starts at child 0's fresh
    state and is re-keyed to each later child's (its key, counter 0,
    empty buffer), so iteration i's counts equal
    sample_counts(amplitudes, shots, child_i) for
    child_i = SeedSequence(seed).spawn(iterations)[i].
    """
    if shots <= 0 or not 0 < iterations <= 2**32:
        raise MeasurementBudgetError(
            f"need positive shots and 1 to 2^32 iterations, "
            f"got {shots}x{iterations}")
    probs = _probabilities(amplitudes)
    keys = _spawn_keys(seed, iterations)
    bitgen = np.random.Philox(_ChildKey(keys[0]))
    fresh = bitgen.state
    rng = np.random.Generator(bitgen)
    counts = rng.multinomial(shots, probs)
    for key in keys[1:]:
        fresh["state"]["key"] = key
        bitgen.state = fresh
        counts += rng.multinomial(shots, probs)
    return SampleReport(shots, iterations, seed, counts)


def estimate_entries(report: SampleReport, alpha: float, targets,
                     signs=None) -> list[EntryEstimate]:
    """alpha*sqrt(count/N) per target index, with a delta-method error bar.

    Var(p_hat) = p(1-p)/N propagated through alpha*sqrt(p) gives
    SE = alpha*sqrt(1-p_hat)/(2 sqrt(N)); a zero count yields estimate 0
    flagged high-uncertainty with the one-count resolution alpha/sqrt(N).
    """
    n = report.total
    out = []
    for pos, t in enumerate(targets):
        t = int(t)
        if not 0 <= t < report.counts.size:
            raise DimensionError(f"target index {t} outside the histogram")
        p_hat = report.counts[t] / n
        mag = alpha * float(np.sqrt(p_hat))
        zero = report.counts[t] == 0
        se = alpha / np.sqrt(n) if zero \
            else alpha * float(np.sqrt(max(1.0 - p_hat, 0.0))) / (2.0 * np.sqrt(n))
        sign_known = signs is not None
        sign = float(np.sign(signs[pos])) if sign_known and signs[pos] != 0 else 1.0
        out.append(EntryEstimate(t, sign * mag, mag, float(se), bool(zero),
                                 sign_known))
    return out
