from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from rho_moments.classical import (
    DirichletSpec,
    _row_sums,
    SimplexMomentSpec,
    beta_function,
    dirichlet_moment,
    sample_simplex_batch,
    simplex_moment,
)
from rho_moments.errors import CapExceededError
from rho_moments.montecarlo import estimate_simplex_moment

F = Fraction

exponent_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5)


class TestSimplexMoment:
    def test_golden_1_over_60(self):
        assert simplex_moment(SimplexMomentSpec((2, 0, 1))) == F(1, 60)

    def test_flat_two_simplex_volume(self):
        assert simplex_moment(SimplexMomentSpec((0, 0, 0))) == F(1, 2)

    def test_point_simplex(self):
        assert simplex_moment(SimplexMomentSpec((1,), F(2))) == 2

    @pytest.mark.parametrize("n_b", range(1, 9))
    def test_normalization(self, n_b):
        assert simplex_moment(SimplexMomentSpec((0,) * n_b)) == F(1, factorial(n_b - 1))

    @given(exponent_lists)
    def test_permutation_symmetry(self, exponents):
        value = simplex_moment(SimplexMomentSpec(tuple(exponents)))
        assert value == simplex_moment(SimplexMomentSpec(tuple(sorted(exponents))))

    @given(
        exponent_lists,
        st.fractions(min_value=F(1, 5), max_value=5, max_denominator=20),
    )
    def test_scaling(self, exponents, scale):
        spec = SimplexMomentSpec(tuple(exponents), scale)
        nu = spec.degree()
        assert simplex_moment(spec) == scale**nu * simplex_moment(
            SimplexMomentSpec(tuple(exponents))
        )

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            SimplexMomentSpec((1, -1))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            SimplexMomentSpec((1,), F(0))


    @pytest.mark.parametrize(
        "spec",
        [SimplexMomentSpec((99_999_999,)), SimplexMomentSpec((1, 2), F(10) ** 100_000)],
        ids=["factorial", "power"],
    )
    def test_exact_budget(self, spec):
        with pytest.raises(CapExceededError):
            simplex_moment(spec)


class TestDirichletMoment:
    def test_golden_quarter_plane(self):
        # oracle: iint_{x+y<1} x^2 dx dy
        oracle, err = integrate.dblquad(lambda y, x: x * x, 0, 1, 0, lambda x: 1 - x)
        value = dirichlet_moment(DirichletSpec((2, 0)))
        assert value == F(1, 12)
        assert abs(float(value) - oracle) < 1e-9

    def test_golden_weighted_segment(self):
        # oracle: int_0^1 x^0 * f(x) dx with f(t) = t
        oracle, err = integrate.quad(lambda x: x, 0, 1)
        value = dirichlet_moment(DirichletSpec((0,), weight_power=1))
        assert value == F(1, 2)
        assert abs(float(value) - oracle) < 1e-12

    def test_weighted_quadrature_oracle(self):
        # iint_{x+y<3/2} x^2 y (x+y)^2 dx dy against the closed form
        lam = 1.5
        oracle, err = integrate.dblquad(
            lambda y, x: x * x * y * (x + y) ** 2, 0, lam, 0, lambda x: lam - x
        )
        value = dirichlet_moment(DirichletSpec((2, 1), F(3, 2), weight_power=2))
        assert abs(float(value) - oracle) < 1e-9 * (1 + abs(oracle))

    @given(exponent_lists, st.fractions(min_value=F(1, 3), max_value=3, max_denominator=12))
    @settings(max_examples=60)
    def test_reduces_to_simplex_at_zero_weight(self, exponents, scale):
        d = dirichlet_moment(DirichletSpec(tuple(exponents), scale))
        s = simplex_moment(SimplexMomentSpec(tuple(exponents) + (0,), scale))
        assert d == s


    def test_weight_power_counts_towards_the_budget(self):
        with pytest.raises(CapExceededError):
            dirichlet_moment(DirichletSpec((1,), F(3, 2), 10**6))
        assert dirichlet_moment(DirichletSpec((1,), F(1), 10**6)) == F(1, 1_000_002)


class TestBetaFunction:
    def test_golden_quadrature(self):
        oracle, err = integrate.quad(lambda t: t * (1 - t) ** 2, 0, 1)
        assert beta_function(2, 3) == F(1, 12)
        assert abs(float(beta_function(2, 3)) - oracle) < 1e-12

    def test_unit(self):
        assert beta_function(1, 1) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_sided(self, n):
        assert beta_function(1, n) == F(1, n)

    def test_symmetry(self):
        assert beta_function(3, 5) == beta_function(5, 3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            beta_function(0, 2)


class TestSampleSimplex:
    def test_point_simplex_is_constant(self):
        rng = np.random.default_rng(0)
        assert sample_simplex_batch(1, 1, rng)[0].tolist() == [1.0]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        batch = sample_simplex_batch(4, 1000, rng)
        assert batch.min() >= 0.0
        np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-12)

    def test_underflowed_row_is_redrawn(self):
        rng = np.random.default_rng(3)
        draws = []

        class FirstRowZero:
            # the first draw zeroes row 0, so that row's sum underflows
            def standard_exponential(self, shape):
                x = rng.standard_exponential(shape)
                if not draws:
                    x[0] = 0.0
                draws.append(x.copy())
                return x

        batch = sample_simplex_batch(3, 4, FirstRowZero())
        assert [d.shape for d in draws] == [(4, 3), (1, 3)]
        assert batch[0].min() >= 0.0
        assert batch[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert batch[0].tobytes() == (draws[1][0] / draws[1][0].sum()).tobytes()
        assert batch[1:].tobytes() == (draws[0][1:] / draws[0][1:].sum(axis=1)[:, None]).tobytes()

    @pytest.mark.parametrize("rows", (0, 1, 3, 1000))
    def test_row_sums_are_numpys_bit_for_bit(self, rows):
        # the column adds below 8 columns and numpy's own sum above, on both sides of the switch
        rng = np.random.default_rng(6 + rows)
        wide = rng.standard_normal((rows, 300)) * np.exp(rng.standard_normal((rows, 300)) * 10)
        for width in range(1, 301):
            batch = wide[:, :width].copy()
            assert _row_sums(batch).tobytes() == batch.sum(axis=1).tobytes(), width

    def test_two_components_marginal_is_uniform(self):
        rng = np.random.default_rng(2)
        batch = sample_simplex_batch(2, 20000, rng)
        result = stats.kstest(batch[:, 0], stats.uniform.cdf)
        assert result.pvalue > 0.001

    def test_mc_matches_exact_golden(self):
        spec = SimplexMomentSpec((2, 0, 1))
        report = estimate_simplex_moment(spec, 1_000_000, seed=20240501)
        assert report.exact_value.real == pytest.approx(1 / 60)
        assert report.z_score <= 3.0

    def test_mc_agreement_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            n_b = int(rng.integers(1, 5))
            exps = [0] * n_b
            for _ in range(int(rng.integers(0, 5))):
                exps[int(rng.integers(0, n_b))] += 1
            report = estimate_simplex_moment(
                SimplexMomentSpec(tuple(exps)), 100_000, seed=77
            )
            assert report.z_score <= 4.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SimplexMomentSpec(()), "exponents must be non-empty"),
        (lambda: DirichletSpec((1,), weight_power=-1), "weight_power must be a non-negative integer"),
        (lambda: sample_simplex_batch(0, 3, np.random.default_rng(0)), "n_components must be positive"),
        (lambda: sample_simplex_batch(2, -1, np.random.default_rng(0)), "count must be non-negative"),
    ],
    ids=["no-exponents", "weight-power", "components", "count"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
