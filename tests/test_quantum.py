import itertools
from fractions import Fraction
from math import factorial, ldexp, perm, prod

import numpy as np
import pytest
from scipy import integrate

from rho_moments.classical import SimplexMomentSpec, simplex_moment
from rho_moments.combinat import CycleType, enumerate_cycle_types, enumerate_partitions, lower_triangle_count
from rho_moments.errors import CapExceededError
from rho_moments.quantum import (
    EntryMomentSpec,
    ScaledRational,
    TraceProductExpr,
    det_lemma_value,
    entry_moment,
    hs_volume,
    int_lemma_value,
    mgf_coefficient,
    moment_traces,
    omega_expand,
    purity_mean,
)

from oracles import (
    entry_moment_oracle,
    entry_moment_two_stage,
    exact_det,
    hook_content_dim,
    moment_traces_oracle,
    moment_traces_two_stage,
    omega_expand_oracle,
    weyl_ratio_character,
)

F = Fraction


def bloch_ball_expectation(g):
    """Quadrature oracle for N=2 ensemble means of g(rho11, |rho12|^2).

    Integrating out rho22 with the trace delta leaves coordinates
    a = rho11 in [0,1] and the off-diagonal disk |c|^2 <= a(1-a); in
    u = |c|^2 the measure becomes 2*pi du da.
    """
    num, _ = integrate.dblquad(lambda u, a: 2 * np.pi * g(a, u), 0, 1, 0, lambda a: a * (1 - a))
    den, _ = integrate.quad(lambda a: 2 * np.pi * a * (1 - a), 0, 1)
    return num / den


class TestScaledRational:
    def test_zero_canonicalizes_exponent(self):
        assert ScaledRational(F(0), 5) == ScaledRational(F(0), 0)

    def test_multiplication(self):
        value = ScaledRational(F(1, 6), 1) * ScaledRational(F(3), 2)
        assert value == ScaledRational(F(1, 2), 3)
        assert ScaledRational(F(1, 10)) * F(5) == ScaledRational(F(1, 2))

    def test_str(self):
        assert str(ScaledRational(F(1, 6), 1)) == "1/6·(2π)^1"
        assert str(ScaledRational(F(3, 4))) == "3/4"


class TestHsVolume:
    def test_single_point(self):
        assert hs_volume(1) == ScaledRational(F(1), 0)

    def test_qubit_matches_quadrature(self):
        value = hs_volume(2)
        assert value == ScaledRational(F(1, 6), 1)
        oracle, _ = integrate.quad(lambda a: 2 * np.pi * a * (1 - a), 0, 1)
        assert float(value.rational) * 2 * np.pi == pytest.approx(oracle, rel=1e-10)

    def test_qutrit(self):
        assert hs_volume(3) == ScaledRational(F(2, factorial(8)), 3)


class TestDetLemma:
    @pytest.mark.parametrize(
        "beta,expected", [((0, 1), 1), ((0, 1, 2), 4), ((2, 2), 0)]
    )
    def test_goldens(self, beta, expected):
        assert det_lemma_value(beta) == expected

    def test_golden_against_determinant(self):
        for beta in [(0, 1), (0, 1, 2), (3, 0, 2)]:
            n = len(beta)
            matrix = [[factorial(i + beta[j]) for j in range(n)] for i in range(n)]
            assert det_lemma_value(beta) == exact_det(matrix)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            det_lemma_value((1, -1))


class TestIntLemma:
    def test_golden_matches_quadrature(self):
        # N=2, beta=(0,1): int_0^1 (1-2x)(1-x) dx after the delta collapse
        value = int_lemma_value((0, 1))
        assert value == F(1, 6)
        oracle, _ = integrate.quad(lambda x: (1 - 2 * x) * (1 - x), 0, 1)
        assert abs(float(value) - oracle) < 1e-10

    def test_repeated_entries_vanish(self):
        assert int_lemma_value((1, 1)) == 0
        assert int_lemma_value((0, 0, 0)) == 0

    @pytest.mark.parametrize("n", range(1, 5))
    def test_crosscheck_with_det_lemma(self, n):
        for beta in itertools.product(range(5), repeat=n):
            nu = sum(beta) + lower_triangle_count(n) + n - 1
            assert int_lemma_value(beta) * factorial(nu) == det_lemma_value(beta)


class TestMgfCoefficient:
    def test_zeroth_is_one(self):
        assert mgf_coefficient(0, np.zeros((3, 3))) == 1.0

    def test_first_is_normalized_trace(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert mgf_coefficient(1, a) == pytest.approx(np.trace(a) / 3)

    @pytest.mark.parametrize("a", ([[np.inf]], [[1.0, np.nan], [0.0, 1.0]]))
    def test_non_finite_matrix_rejected(self, a):
        # an infinite entry gave nan+nanj
        with pytest.raises(ValueError, match="finite entries"):
            mgf_coefficient(3, a)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("a", (np.diag([1e200, 1.0]), np.diag([1e110, -1e110])))
    def test_coefficient_past_the_float_range_is_refused(self, a):
        # the first raised a bare OverflowError from complex exponentiation; in the second,
        # tr(a^3) = inf - inf, and the coefficient came out nan+nanj
        with pytest.raises(ValueError, match="the moment does not fit a float"):
            mgf_coefficient(3, a)

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("k", range(0, 7))
    def test_identity_series_term(self, n, k):
        # At A = I the K-th coefficient must be 1/K! so the series sums to e
        assert mgf_coefficient(k, np.eye(n)) == pytest.approx(1 / factorial(k))

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_character_route(self, n, k):
        # the paper's sum over shapes of dim * character, the character by Weyl's ratio at the eigenvalues of A
        rng = np.random.default_rng(10 * n + k)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eigenvalues = np.linalg.eigvals(a)
        total = sum(
            hook_content_dim(irrep.parts, n) * weyl_ratio_character(irrep.parts, eigenvalues)
            for irrep in enumerate_partitions(k, n)
        )
        expected = total / perm(k + n * n - 1, k)
        assert abs(mgf_coefficient(k, a) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_route_consistency_with_moment_traces(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2
        series_term = factorial(k) * mgf_coefficient(k, a)
        direct = moment_traces([a] * k)
        assert abs(direct - series_term) <= 1e-9 * (1 + abs(direct))


class TestOmegaExpand:
    def test_single_box(self):
        expr = omega_expand(CycleType((1,)), 1)
        assert expr.terms == {((1,),): F(1)}

    def test_full_cycle_pattern(self):
        expr = omega_expand(CycleType((0, 0, 0, 1)), 4)
        # 24 permutations collapse onto (4-1)! = 6 distinct cyclic words
        assert len(expr.terms) == 6
        assert set(expr.terms.values()) == {F(4)}
        assert sum(expr.terms.values()) == 24

    def test_pair_product_pattern(self):
        expr = omega_expand(CycleType((0, 2)), 4)
        assert len(expr.terms) == 3
        assert set(expr.terms.values()) == {F(8)}
        assert sum(expr.terms.values()) == 24

    def test_mixed_pattern(self):
        expr = omega_expand(CycleType((2, 1)), 4)
        assert sum(expr.terms.values()) == 24
        assert expr.terms[((1, 2), (3,), (4,))] == F(4)

    def test_box_weight_mismatch(self):
        with pytest.raises(ValueError):
            omega_expand(CycleType((1,)), 2)

    def test_evaluate_matches_product_rule(self):
        expr = omega_expand(CycleType((0, 1)), 2)  # t2 pattern: 2 tr(C1 C2)
        assert expr.evaluate_entry_pairs(((1, 2), (2, 1))) == 2  # tr(E12 E21) = 1
        assert expr.evaluate_entry_pairs(((1, 2), (1, 2))) == 0

    @pytest.mark.parametrize(
        "monomial, k",
        [(c, k) for k in range(8) for c in enumerate_cycle_types(k)]
        # the exact-large benchmark expands (1, 2, 4) at K = 7, above, and this class
        + [(CycleType((2, 1, 0, 1)), 8)],
        ids=str,
    )
    def test_matches_permutation_oracle(self, monomial, k):
        expr = omega_expand(monomial, k)
        oracle = omega_expand_oracle(monomial, k)
        assert expr == TraceProductExpr(k, oracle)
        # benchmark goldens hash this repr, so the coefficients stay Fractions
        assert repr(sorted(expr.terms.items())) == repr(sorted(oracle.items()))
        z = prod(length**m * factorial(m) for length, m in enumerate(monomial.counts, start=1))
        assert len(expr.terms) == factorial(k) // z
        assert all(type(c) is F and c == z for c in expr.terms.values())

    @pytest.mark.parametrize("monomial, k", [(c, k) for k in (8, 9) for c in enumerate_cycle_types(k)], ids=str)
    def test_lists_every_canonical_word_of_its_class(self, monomial, k):
        # exactly K!/z_mu canonical words have type mu, so K!/z_mu distinct ones of that type are all of them
        terms = omega_expand(monomial, k, max_boxes=9).terms
        z = prod(length**m * factorial(m) for length, m in enumerate(monomial.counts, start=1))
        assert len(terms) == factorial(k) // z
        indices, lengths = list(range(1, k + 1)), list(monomial.cycle_lengths())
        for term in terms:
            assert sorted(itertools.chain.from_iterable(term)) == indices
            assert all(cycle[0] == min(cycle) for cycle in term) and list(term) == sorted(term)
            assert sorted(map(len, term)) == lengths
        assert all(type(c) is F and c == z for c in terms.values())

    @pytest.mark.parametrize(
        "monomial, k",
        [(CycleType((0,) * 1999 + (1,)), 2000), (CycleType((200000,)), 200000)],
        ids=["2000-cycle", "identity"],
    )
    def test_cap_refuses_large_k_before_counting_its_words(self, monomial, k):
        # K!/z_mu is 1999! (5733 digits), too long to print; for the identity it is 1, but
        # computing it multiplies out 200000! twice
        with pytest.raises(CapExceededError, match=rf"^K = {k} exceeds the cap of 8; K!/z_mu distinct terms$"):
            omega_expand(monomial, k)

    def test_cap_refuses_nine_boxes_by_default(self):
        with pytest.raises(CapExceededError, match=r"K = 9 exceeds the cap of 8; K!/z_mu = 40320 distinct"):
            omega_expand(CycleType((0,) * 8 + (1,)), 9)

    def test_raised_cap_accepts_nine_fixed_points(self):
        expr = omega_expand(CycleType((9,)), 9, max_boxes=9)
        assert expr.terms == {tuple((i,) for i in range(1, 10)): F(factorial(9))}


class TestTraceProductExpr:
    def test_rejects_incomplete_cover(self):
        with pytest.raises(ValueError):
            TraceProductExpr(3, {((1, 2),): F(1)})

    @pytest.mark.parametrize("term", [((2, 3, 1),), ((3,), (1, 2))], ids=["rotated", "unsorted"])
    def test_rejects_non_canonical_terms(self, term):
        with pytest.raises(ValueError, match="not canonical"):
            TraceProductExpr(3, {term: F(1)})

    def test_drops_zero_coefficients_before_checking(self):
        assert TraceProductExpr(3, {((2, 3, 1),): F(0), ((1, 2, 3),): F(1)}).terms == {((1, 2, 3),): F(1)}

    @pytest.mark.parametrize(
        "observables",
        [[np.ones((2, 3))], [np.ones(2)], [np.array([[np.nan]])]],
        ids=["non-square", "vector", "non-finite"],
    )
    def test_evaluate_rejects_observables_like_moment_traces(self, observables):
        with pytest.raises(ValueError, match="observables must"):
            moment_traces(observables)

    def test_empty_expression_evaluates_to_its_constant(self):
        assert omega_expand(CycleType(()), 0).evaluate_entry_pairs(()) == 1
        with pytest.raises(ValueError, match="expected 0 index pairs"):
            omega_expand(CycleType(()), 0).evaluate_entry_pairs(((1, 1),))

    def test_entry_pair_evaluation(self):
        expr = TraceProductExpr(2, {((1, 2),): F(1)})
        assert expr.evaluate_entry_pairs(((1, 2), (2, 1))) == 1
        assert expr.evaluate_entry_pairs(((1, 2), (1, 2))) == 0


class TestMomentTraces:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert moment_traces([c]) == pytest.approx(np.trace(c) / n)

    def test_k2_closed_form(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            c1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            expected = (n * np.trace(c1) * np.trace(c2) + np.trace(c1 @ c2)) / (
                n * (n * n + 1)
            )
            assert moment_traces([c1, c2]) == pytest.approx(expected)

    def test_k2_identity_observables(self):
        assert moment_traces([np.eye(3), np.eye(3)]) == 1.0

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_trace_power_normalization(self, n, k):
        assert moment_traces([np.eye(n)] * k) == 1.0 + 0.0j

    def test_cycle_relabeling_invariance(self):
        diagonals = [np.diag([1.0, 2.0, 5.0]), np.diag([3.0, 7.0, 2.0]), np.diag([4.0, 1.0, 6.0])]
        values = {moment_traces(list(p)) for p in itertools.permutations(diagonals)}
        assert len(values) == 1

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            moment_traces([np.eye(2)] * 9)
        assert moment_traces([np.eye(2)] * 3, max_boxes=3) == 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one dimension"):
            moment_traces([np.eye(2), np.eye(3)])

    def test_empty_observables_rejected(self):
        with pytest.raises(ValueError, match="dimension at least 1"):
            moment_traces([np.zeros((0, 0))])

    @pytest.mark.parametrize("observables", ([1e160 * np.eye(2)] * 2, [1e150 * np.eye(3)] * 3, [np.diag([1e300, 1e-20])] * 2))
    def test_moment_past_the_float_range_is_refused(self, observables):
        # each would overflow a chain, and inf meeting 0 in a later product gave nan+nanj
        with pytest.raises(ValueError, match="does not fit a float"):
            moment_traces(observables)

    def test_power_of_two_scaling_keeps_values(self):
        # the values before the scaling: 1e150 * I squared rounds as 1e150 * 1e150, integer observables are exact
        assert moment_traces([1e150 * np.eye(2)] * 2) == complex(1e150 * 1e150)
        a, b, c = np.array([[3, -1], [-1, 2]]), np.array([[0, 2], [2, 5]]), np.array([[7, 0], [0, -4]])
        assert moment_traces([a, b, c]) == complex(Fraction(29, 10))
        assert moment_traces([a, b]) == complex(Fraction(28, 5))
        assert moment_traces([a * 2.0**600, b * 2.0**400]) == ldexp(5.6, 1000)
        assert moment_traces([5e-324 * np.eye(2)] * 2) == 0.0

    @pytest.mark.parametrize("bad", (np.nan, np.inf, complex(0, -np.inf)))
    def test_non_finite_observable_rejected(self, bad):
        c = np.eye(2, dtype=complex)
        c[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            moment_traces([np.eye(2), c])


class TestEntryMoment:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_diagonal_mean(self, n):
        assert entry_moment(EntryMomentSpec(n, ((1, 1),))) == F(1, n)

    def test_offdiag_pair_golden(self):
        value = entry_moment(EntryMomentSpec(2, ((1, 2), (2, 1))))
        assert value == F(1, 10)
        oracle = bloch_ball_expectation(lambda a, u: u)
        assert abs(float(value) - oracle) < 1e-9

    def test_diag_square_golden(self):
        value = entry_moment(EntryMomentSpec(2, ((1, 1), (1, 1))))
        assert value == F(3, 10)
        oracle = bloch_ball_expectation(lambda a, u: a * a)
        assert abs(float(value) - oracle) < 1e-9

    def test_phase_asymmetric_moment_vanishes(self):
        # rho12 picks up a free phase under diagonal-unitary conjugation
        assert entry_moment(EntryMomentSpec(2, ((1, 1), (1, 1), (1, 2)))) == 0

    def test_matches_moment_traces_with_selector_matrices(self):
        n = 3
        rng = np.random.default_rng(12)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            pairs = tuple((int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))) for _ in range(k))
            selectors = []
            for i, j in pairs:
                c = np.zeros((n, n))
                c[i - 1, j - 1] = 1.0
                selectors.append(c)
            exact = entry_moment(EntryMomentSpec(n, pairs))
            numeric = moment_traces(selectors)
            assert abs(numeric - float(exact)) < 1e-12

    @pytest.mark.parametrize("n", (2, 3))
    def test_swap_invariance_exhaustive(self, n):
        indices = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for k in (1, 2, 3):
            for pairs in itertools.combinations_with_replacement(indices, k):
                spec = EntryMomentSpec(n, pairs)
                assert entry_moment(spec) == entry_moment(EntryMomentSpec(n, tuple((j, i) for i, j in pairs)))

    @pytest.mark.parametrize("n,kmax", [(1, 6), (2, 6), (3, 5)])
    def test_diagonal_is_dirichlet(self, n, kmax):
        # diag(rho) is Dirichlet(N, ..., N): each W_ii of W = G G^dagger is Gamma(N), independently
        norm = simplex_moment(SimplexMomentSpec((n - 1,) * n))
        for k in range(1, kmax + 1):
            for rows in itertools.product(range(1, n + 1), repeat=k):
                powers = tuple(rows.count(i) + n - 1 for i in range(1, n + 1))
                spec = EntryMomentSpec(n, tuple((i, i) for i in rows))
                assert entry_moment(spec) == simplex_moment(SimplexMomentSpec(powers)) / norm

    @pytest.mark.parametrize("k", range(10, 15))
    def test_diagonal_is_dirichlet_past_the_default_cap(self, k):
        norm = simplex_moment(SimplexMomentSpec((1, 1)))
        for ones in range(k + 1):
            spec = EntryMomentSpec(2, ((1, 1),) * ones + ((2, 2),) * (k - ones))
            expected = simplex_moment(SimplexMomentSpec((ones + 1, k - ones + 1))) / norm
            assert entry_moment(spec, max_boxes=k) == expected

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            entry_moment(EntryMomentSpec(2, ((1, 1),) * 9))

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            EntryMomentSpec(2, ((1, 3),))


class TestSubsetEngineAgainstPermutationOracle:
    """The subset recursion against the plain K! enumeration in ``oracles``."""

    @pytest.mark.parametrize("n,kmax", [(2, 5), (3, 4)])
    def test_entry_moments_exhaustive(self, n, kmax):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for k in range(1, kmax + 1):
            for pairs in itertools.product(cells, repeat=k):
                assert entry_moment(EntryMomentSpec(n, pairs)) == entry_moment_oracle(n, pairs)

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_moment_traces_random_complex(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(k)]
        expected = moment_traces_oracle(mats)
        assert abs(moment_traces(mats) - expected) <= 1e-12 * abs(expected)


class TestSubsetEngineAgainstTwoStageOracle:
    """The one-pass subset recursion against the two-stage set-partition sum in ``oracles``."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_entry_moments_random_balanced(self, n):
        rng = np.random.default_rng(2000 + n)
        for _ in range(100):
            k = int(rng.integers(1, 10))
            rows = rng.integers(1, n + 1, size=k)
            pairs = tuple(zip(rows.tolist(), rng.permutation(rows).tolist()))
            assert entry_moment(EntryMomentSpec(n, pairs), max_boxes=9) == entry_moment_two_stage(n, pairs)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_moment_traces_random_complex(self, k):
        rng = np.random.default_rng(3000 + k)
        for n in (1, 2, 3, 4):
            mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(k)]
            expected = moment_traces_two_stage(mats)
            assert abs(moment_traces(mats) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_moment_traces_integer_observables_exact(self, k):
        rng = np.random.default_rng(4000 + k)
        for n in (1, 2, 3):
            mats = [rng.integers(-2, 3, size=(n, n)) for _ in range(k)]
            assert moment_traces(mats) == moment_traces_two_stage(mats)


class TestPurityMean:
    @pytest.mark.parametrize(
        "n,expected", [(1, F(1)), (2, F(4, 5)), (3, F(3, 5))]
    )
    def test_goldens(self, n, expected):
        assert purity_mean(n) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form(self, n):
        assert purity_mean(n) == F(2 * n, n * n + 1)

    def test_qubit_matches_bloch_quadrature(self):
        oracle = bloch_ball_expectation(lambda a, u: a * a + (1 - a) ** 2 + 2 * u)
        assert abs(float(purity_mean(2)) - oracle) < 1e-9


class TestOmegaRouteAgainstEntryMoments:
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_exhaustive_n2(self, k):
        from rho_moments.characters import dim_char_sum

        poly = dim_char_sum(k, 2)
        prefactor = F(factorial(3), factorial(k + 3))
        expansions = {
            key: omega_expand(CycleType(key), k) for key in poly.terms
        }
        indices = [(i, j) for i in range(1, 3) for j in range(1, 3)]
        for pairs in itertools.product(indices, repeat=k):
            via_omega = sum(
                (coeff * expansions[key].evaluate_entry_pairs(pairs) for key, coeff in poly.terms.items()),
                F(0),
            )
            assert prefactor * via_omega == entry_moment(EntryMomentSpec(2, pairs))
