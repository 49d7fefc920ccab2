import numpy as np
import pytest

from qkalman.block_encoding import encode_data_structure, encode_svd_dilation
from qkalman.errors import ConfigError, DimensionError, MeasurementBudgetError
from qkalman.kalman import KappaPolicy, q_filter_run
from qkalman.sampling import (
    SampleReport,
    estimate_entries,
    exact_amplitudes,
    pooled_report,
    sample_counts,
    with_rest,
)
from qkalman.tensor_ops import ancilla_block


def test_identity_dilation_concentrates_on_index_zero():
    be = encode_svd_dilation(np.eye(2))
    amps = exact_amplitudes(be, column=0)
    assert amps[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(amps[1:]), 0.0, atol=1e-12)


def test_amplitudes_are_normalized():
    rng = np.random.Generator(np.random.Philox(3))
    be = encode_data_structure(rng.uniform(-1, 1, (4, 4)))
    for col in range(4):
        amps = exact_amplitudes(be, column=col)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DimensionError):
        exact_amplitudes(be, column=4)


def test_demo_state_amplitudes_pin(worked):
    amps = exact_amplitudes(worked.x_hat_be, column=0)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
    got = np.real(amps[:2])
    np.testing.assert_allclose(
        got, [0.006276439182398924, 0.017882678880266723], atol=1e-9)
    # reference amplitudes for the same circuit
    np.testing.assert_allclose(got, [6.36484546e-3, 1.80050738e-2], atol=3e-4)
    # entries recover through the normalization
    np.testing.assert_allclose(got * worked.x_hat_be.alpha,
                               [0.6153844200548073, 1.7533384219861368],
                               atol=1e-8)


def test_sampling_is_seed_deterministic():
    amps = np.sqrt([0.1, 0.2, 0.3, 0.4])
    a = sample_counts(amps, 5000, 11)
    b = sample_counts(amps, 5000, 11)
    np.testing.assert_array_equal(a, b)
    c = sample_counts(amps, 5000, 12)
    assert not np.array_equal(a, c)
    ra = pooled_report(amps, 500, 10, 11)
    rb = pooled_report(amps, 500, 10, 11)
    np.testing.assert_array_equal(ra.counts, rb.counts)
    assert ra.total == 5000


def test_point_mass_sampling():
    counts = sample_counts(np.array([1.0, 0.0, 0.0, 0.0]), 1000, 0)
    assert counts[0] == 1000
    assert counts[1:].sum() == 0


def test_uniform_two_state_frequency():
    amps = np.array([1.0, 1.0]) / np.sqrt(2)
    shots = 10**6
    counts = sample_counts(amps, shots, 17)
    p_hat = counts[0] / shots
    assert abs(p_hat - 0.5) <= 3 * 0.5 / np.sqrt(shots)


def test_exact_probability_recovery(worked):
    # feeding the true probabilities in as "counts" must return the exact
    # magnitudes, confirming the alpha*sqrt(p) readout formula
    amps = exact_amplitudes(worked.x_hat_be, column=0)
    probs = np.abs(amps) ** 2
    report = SampleReport(1, 1, 0, probs)
    alpha = worked.x_hat_be.alpha
    got, _ = estimate_entries(report, alpha, [0, 1], signs=[1.0, 1.0])
    want = alpha * np.abs(amps[:2])
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_estimate_entries_signs_and_zero_counts():
    counts = np.array([400, 0, 600, 0], dtype=np.int64)
    report = SampleReport(1000, 1, 0, counts)
    values, std_errors = estimate_entries(report, 2.0, [0, 1, 2],
                                          signs=[-1.0, 1.0, 1.0])
    assert values[0] == pytest.approx(-2.0 * np.sqrt(0.4))
    assert std_errors[0] == pytest.approx(2.0 * np.sqrt(0.6) / (2.0 * np.sqrt(1000)))
    assert values[1] == 0.0
    assert std_errors[1] == pytest.approx(2.0 / np.sqrt(1000))
    assert values[2] == pytest.approx(2.0 * np.sqrt(0.6))
    unsigned, _ = estimate_entries(report, 2.0, [0])
    assert unsigned[0] == pytest.approx(2.0 * np.sqrt(0.4))
    with pytest.raises(DimensionError, match="target index 4"):
        estimate_entries(report, 2.0, [4])
    with pytest.raises(DimensionError, match="target index -1"):
        estimate_entries(report, 2.0, [-1])


def test_error_bar_shrinks_with_iterations(worked):
    amps = exact_amplitudes(worked.x_hat_be, column=0)
    alpha = worked.x_hat_be.alpha
    exact = alpha * np.abs(amps[:2])
    scaled = []
    for iterations, seed_base in ((1, 100), (4, 200), (16, 300), (64, 400)):
        sq_err = 0.0
        reps = 4
        for rep in range(reps):
            report = pooled_report(amps, 16384, iterations, seed_base + rep)
            values, _ = estimate_entries(report, alpha, [0, 1])
            sq_err += np.mean([(v - x) ** 2 for v, x in zip(values, exact)])
        rms = np.sqrt(sq_err / reps)
        scaled.append(rms * np.sqrt(report.total))
    # shot-noise scaling: rms * sqrt(N) stays flat across a 64x budget sweep
    assert max(scaled) / min(scaled) < 2.0


def test_pooled_report_rejects_empty_budget():
    amps = np.array([1.0, 0.0])
    with pytest.raises(MeasurementBudgetError):
        pooled_report(amps, 0, 10, 0)
    with pytest.raises(MeasurementBudgetError):
        pooled_report(amps, 100, 0, 0)
    # the pooled total must fit an int64 count rather than wrap around
    with pytest.raises(MeasurementBudgetError):
        pooled_report(np.array([0.6, 0.8]), 2**62, 4, 0)
    report = pooled_report(np.array([0.6, 0.8]), 2**62 - 1, 2, 0)
    assert report.counts.sum() == report.total == 2**63 - 2
    with pytest.raises(DimensionError,
                       match="^amplitude vector has no probability mass$"):
        sample_counts(np.zeros(3), 10, 0)


@pytest.mark.parametrize("seed", [0, 7, 2024, (5, 1, 2)])
def test_rest_bucket_draw_matches_full_register_draw(worked, seed):
    # the x_hat column and each P column of the worked example
    rows = 2
    for be, col in ((worked.x_hat_be, 0), (worked.p_hat_be, 0),
                    (worked.p_hat_be, 1)):
        targets = ancilla_block(be.op, be.ancillas, [col])[:rows, 0]
        rest = pooled_report(with_rest(targets), 16384, 20, seed)
        full = pooled_report(exact_amplitudes(be, col), 16384, 20, seed)
        np.testing.assert_array_equal(rest.counts[:rows], full.counts[:rows])
        assert rest.counts.size == rows + 1
        assert rest.counts[rows] == full.counts[rows:].sum()


def test_rest_outcome_carries_the_remaining_mass():
    amps = with_rest(np.array([0.6, -0.0 + 0.48j]))
    assert amps.size == 3
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-15)
    assert amps[2] == pytest.approx(np.sqrt(1 - 0.36 - 0.2304))


def test_rest_outcome_clamps_at_zero():
    # rounding pushes the target mass a hair above 1
    targets = np.array([0.6, 0.8 + 1e-12])
    assert np.sum(targets**2) > 1.0
    amps = with_rest(targets)
    assert amps[2] == 0.0
    report = pooled_report(amps, 1000, 3, 9)
    assert report.counts[2] == 0
    assert report.counts.sum() == 3000


@pytest.mark.parametrize("seed", [0, 11, 2024, (7, 1, 1), (2**32 + 5, 3, 2),
                                  2**64 + 9])
def test_pooled_counts_sum_per_child_draws(seed):
    # the iterations pool into one draw of shots x iterations from the seed
    rng = np.random.Generator(np.random.Philox(seed))
    for size in (3, 64):
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        report = pooled_report(amps, 1000, 7, seed)
        np.testing.assert_array_equal(report.counts,
                                      sample_counts(amps, 7000, seed))
        assert report.counts.sum() == report.total


@pytest.mark.parametrize("entropy", [1.5, (1, 2.0), -1, (3, -1, 2), "7", None])
def test_seed_entropy_rejects_non_integer_and_negative_words(entropy):
    with pytest.raises(ConfigError, match="seed entropy"):
        sample_counts(np.array([0.6, 0.8]), 10, entropy)
    with pytest.raises(ConfigError, match="seed entropy"):
        pooled_report(np.array([0.6, 0.8]), 10, 3, entropy)


def test_filter_sampled_counts_pin_spawned_children(worked):
    # step 1 of the worked example: column c draws all its shots at once
    # from the entropy (seed, 1, c), c = 0 the state and 1 + j column j of P
    seed, shots, iterations = 301, 4096, 6
    _, ledger = q_filter_run(
        worked.model, worked.init, [worked.u], [worked.z], 1, "sampled",
        shots=shots, iterations=iterations, seed=seed,
        kappa_policy=KappaPolicy.fixed(3.5))
    info = ledger.sampling_info[1]
    # the filter reads the state's column 0 alone and P's columns together
    x_amps = ancilla_block(worked.x_hat_be.op, worked.x_hat_be.ancillas, [0])
    p_amps = ancilla_block(worked.p_hat_be.op, worked.p_hat_be.ancillas, range(2))
    columns = [(info["x_hat"], x_amps[:2, 0])]
    columns += [(meta, p_amps[:2, j]) for j, meta in enumerate(info["P"])]
    for c, (meta, amps) in enumerate(columns):
        assert meta["entropy"] == (seed, 1, c)
        want = sample_counts(with_rest(amps), shots * iterations, (seed, 1, c))
        got = meta["counts_nonzero"]
        assert got == {("rest" if i == 2 else int(i)): int(want[i])
                       for i in np.flatnonzero(want)}
