from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from rho_moments.montecarlo import (
    MIN_SAMPLES,
    estimate_dirichlet_moment,
    estimate_entry_moment,
    estimate_entry_moments,
    estimate_mgf,
    estimate_purity,
    estimate_simplex_moment,
    ks_eigenvalue_check,
    larger_eigenvalue_cdf,
    sample_density,
    sample_density_batch,
)
from rho_moments.classical import SimplexMomentSpec, DirichletSpec
from rho_moments.quantum import EntryMomentSpec


def haar_like_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestSampleDensity:
    def test_single_point_ensemble(self):
        rng = np.random.default_rng(0)
        rho = sample_density(1, rng)
        assert rho.shape == (1, 1)
        assert rho[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
    def test_invariants_hold_in_bulk(self, n):
        rng = np.random.default_rng(100 + n)
        batch = sample_density_batch(n, 100_000, rng)
        assert float(np.abs(batch - batch.conj().transpose(0, 2, 1)).max()) <= 1e-12
        assert float(np.abs(np.einsum("sii->s", batch) - 1.0).max()) <= 1e-12
        assert float(np.linalg.eigvalsh(batch).min()) >= -1e-10

    def test_mean_diagonal_entry(self):
        rng = np.random.default_rng(7)
        batch = sample_density_batch(3, 200_000, rng)
        values = batch[:, 0, 0].real
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - 1 / 3) <= 4 * se

    def test_unitary_invariance(self):
        # the flat measure is conjugation-invariant: E[rho11] computed on a
        # rotated independent stream must agree with the unrotated one
        rng_u = np.random.default_rng(42)
        u = haar_like_unitary(2, rng_u)
        a = sample_density_batch(2, 200_000, np.random.default_rng(1))[:, 0, 0].real
        rotated = np.einsum(
            "ij,sjk,km->sim", u, sample_density_batch(2, 200_000, np.random.default_rng(2)), u.conj().T
        )
        b = rotated[:, 0, 0].real
        se = np.hypot(a.std(ddof=1) / np.sqrt(a.size), b.std(ddof=1) / np.sqrt(b.size))
        assert abs(a.mean() - b.mean()) <= 4 * se


@pytest.mark.parametrize(
    "estimate",
    [
        lambda m: estimate_entry_moment(EntryMomentSpec(2, ((1, 1),)), m, seed=1),
        lambda m: estimate_entry_moments([EntryMomentSpec(2, ((1, 2), (2, 1)))], m, seed=1)[0],
        lambda m: estimate_purity(2, m, seed=1),
        lambda m: estimate_mgf(np.diag([0.1, -0.1]), 6, m, seed=1),
        lambda m: estimate_simplex_moment(SimplexMomentSpec((2, 0, 1)), m, seed=1),
        lambda m: estimate_dirichlet_moment(DirichletSpec((1, 0)), m, seed=1),
        lambda m: ks_eigenvalue_check(2, m, seed=1),
    ],
    ids=["entry", "entries", "purity", "mgf", "simplex", "dirichlet", "ks"],
)
def test_requires_minimum_samples(estimate):
    with pytest.raises(ValueError, match="at least"):
        estimate(MIN_SAMPLES - 1)
    assert estimate(MIN_SAMPLES).sample_count == MIN_SAMPLES


@pytest.mark.parametrize(
    "estimate,spec",
    [
        (estimate_simplex_moment, SimplexMomentSpec((1, 2), Fraction(10) ** 400)),
        (estimate_simplex_moment, SimplexMomentSpec((400,), 10)),
        (estimate_dirichlet_moment, DirichletSpec((1, 2), Fraction(10) ** 400)),
        (estimate_dirichlet_moment, DirichletSpec((400,), 10)),
    ],
    ids=["simplex-scale", "simplex-value", "dirichlet-scale", "dirichlet-value"],
)
def test_simplex_targets_beyond_float_range_are_value_errors(estimate, spec):
    with pytest.raises(ValueError, match="float"):
        estimate(spec, MIN_SAMPLES, seed=1)


class TestEstimatorDeterminism:
    def test_single_thread_bit_identical(self):
        spec = EntryMomentSpec(2, ((1, 2), (2, 1)))
        first = estimate_entry_moment(spec, 20_000, seed=5)
        second = estimate_entry_moment(spec, 20_000, seed=5)
        assert first == second

    def test_worker_count_is_part_of_the_contract(self):
        spec = EntryMomentSpec(2, ((1, 1),))
        a = estimate_entry_moment(spec, 20_000, seed=5, workers=2)
        b = estimate_entry_moment(spec, 20_000, seed=5, workers=2)
        assert a == b

    def test_simplex_estimator_deterministic(self):
        spec = SimplexMomentSpec((2, 0, 1))
        a = estimate_simplex_moment(spec, 20_000, seed=9)
        b = estimate_simplex_moment(spec, 20_000, seed=9)
        assert a == b


class TestEstimateEntryMoment:
    def test_offdiagonal_golden(self):
        report = estimate_entry_moment(
            EntryMomentSpec(2, ((1, 2), (2, 1))), 500_000, seed=21
        )
        assert report.exact_value == pytest.approx(0.1)
        assert report.z_score <= 4.0

    def test_diagonal_third(self):
        report = estimate_entry_moment(EntryMomentSpec(3, ((1, 1),)), 200_000, seed=22)
        assert report.exact_value == pytest.approx(1 / 3)
        assert report.z_score <= 4.0

    def test_shared_stream_reports(self):
        specs = [
            EntryMomentSpec(2, ((1, 1), (1, 1))),
            EntryMomentSpec(2, ((1, 2), (2, 1))),
        ]
        reports = estimate_entry_moments(specs, 200_000, seed=23)
        assert [r.sample_count for r in reports] == [200_000, 200_000]
        assert all(r.z_score <= 4.0 for r in reports)


class TestEstimateMgf:
    def test_zero_matrix_is_exact(self):
        report = estimate_mgf(np.zeros((2, 2)), 4, 1_000, seed=3)
        assert report.estimate == 1.0 + 0.0j
        assert report.exact_value == pytest.approx(1.0)
        assert report.z_score == 0.0

    def test_small_diagonal(self):
        report = estimate_mgf(np.diag([0.1, -0.1]), 6, 300_000, seed=31)
        assert report.z_score <= 4.0

    def test_random_hermitian(self):
        rng = np.random.default_rng(32)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.2 * (g + g.conj().T) / 2
        report = estimate_mgf(a, 6, 300_000, seed=33)
        assert report.z_score <= 4.0

    def test_truncation_bound_enforced(self):
        with pytest.raises(ValueError):
            estimate_mgf(np.diag([3.0, -3.0]), 4, 1_000, seed=3)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            estimate_mgf(np.array([[0.0, 1.0], [0.0, 0.0]]), 4, 1_000, seed=3)


class TestEstimatePurity:
    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_exact(self, n):
        report = estimate_purity(n, 200_000, seed=40 + n)
        assert report.z_score <= 4.0


class TestSimplexEstimators:
    def test_dirichlet_weighted(self):
        report = estimate_dirichlet_moment(
            DirichletSpec((1, 0), weight_power=2), 200_000, seed=51
        )
        assert report.z_score <= 4.0

    def test_point_simplex_zero_variance(self):
        report = estimate_simplex_moment(SimplexMomentSpec((3,)), 1_000, seed=52)
        assert report.estimate == pytest.approx(1.0)
        assert report.std_error == 0.0
        assert report.z_score == 0.0


class TestKsEigenvalueCheck:
    def test_law_accepted(self):
        report = ks_eigenvalue_check(2, 100_000, seed=61)
        assert report.p_value > 0.001

    def test_wrong_sampler_rejected(self):
        rng = np.random.default_rng(62)
        wrong = rng.uniform(0.5, 1.0, size=100_000)
        result = stats.kstest(wrong, larger_eigenvalue_cdf)
        assert result.pvalue < 0.001

    def test_disjoint_seeds_compatible(self):
        a = ks_eigenvalue_check(2, 50_000, seed=63)
        b = ks_eigenvalue_check(2, 50_000, seed=64)
        assert a.p_value > 0.001 and b.p_value > 0.001

    def test_chunk_boundary(self):
        # one sample past a full chunk: the second batch holds a single draw
        report = ks_eigenvalue_check(2, 2**16 + 1, seed=65)
        assert report.sample_count == 2**16 + 1
        assert report.p_value > 0.001

    def test_other_dimensions_unsupported(self):
        with pytest.raises(ValueError):
            ks_eigenvalue_check(3, 1_000, seed=1)

    def test_cdf_shape(self):
        xs = np.array([0.0, 0.5, 0.75, 1.0, 2.0])
        np.testing.assert_allclose(larger_eigenvalue_cdf(xs), [0.0, 0.0, 0.125, 1.0, 1.0])
