import threading
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from rho_moments.characters import (
    PowerSumPoly,
    dim_char_sum,
    monomial_label,
    sym_character,
    unitary_char_poly,
    weyl_dim,
)
from rho_moments.combinat import (
    CycleType,
    Partition,
    class_order,
    enumerate_cycle_types,
    enumerate_partitions,
)
from rho_moments.quantum import eval_power_sums

from oracles import dim_char_sum_formula, dim_char_sum_oracle, hook_content_dim, power_sum_value, weyl_ratio_character

F = Fraction

# Reference character tables for S_1..S_4: per K, the class orders (columns in
# table order) and each irrep's character row (irreps in reverse-lex order).
SYM_CHARACTER_TABLES = {
    1: ([1], {(1,): [1]}),
    2: ([1, 1], {(2,): [1, 1], (1, 1): [1, -1]}),
    3: ([1, 3, 2], {(3,): [1, 1, 1], (2, 1): [2, 0, -1], (1, 1, 1): [1, -1, 1]}),
    4: (
        [1, 6, 8, 3, 6],
        {
            (4,): [1, 1, 1, 1, 1],
            (3, 1): [3, 1, 0, -1, -1],
            (2, 2): [2, 0, -1, 2, 0],
            (2, 1, 1): [3, -1, 0, -1, 1],
            (1, 1, 1, 1): [1, -1, 1, 1, -1],
        },
    ),
}

# Reference U(N) character expansions in power sums, keyed by irrep; monomial
# keys are exponent tuples (i_1, i_2, ...) with trailing zeros stripped.
UNITARY_CHARACTER_POLYS = {
    (1,): {(1,): F(1)},
    (2,): {(2,): F(1, 2), (0, 1): F(1, 2)},
    (1, 1): {(2,): F(1, 2), (0, 1): F(-1, 2)},
    (3,): {(3,): F(1, 6), (1, 1): F(1, 2), (0, 0, 1): F(1, 3)},
    (2, 1): {(3,): F(1, 3), (0, 0, 1): F(-1, 3)},
    (1, 1, 1): {(3,): F(1, 6), (1, 1): F(-1, 2), (0, 0, 1): F(1, 3)},
    (4,): {(4,): F(1, 24), (2, 1): F(1, 4), (0, 2): F(1, 8), (1, 0, 1): F(1, 3), (0, 0, 0, 1): F(1, 4)},
    (3, 1): {(4,): F(1, 8), (2, 1): F(1, 4), (0, 2): F(-1, 8), (0, 0, 0, 1): F(-1, 4)},
    (2, 2): {(4,): F(1, 12), (0, 2): F(1, 4), (1, 0, 1): F(-1, 3)},
    (2, 1, 1): {(4,): F(1, 8), (2, 1): F(-1, 4), (0, 2): F(-1, 8), (0, 0, 0, 1): F(1, 4)},
    (1, 1, 1, 1): {(4,): F(1, 24), (2, 1): F(-1, 4), (0, 2): F(1, 8), (1, 0, 1): F(1, 3), (0, 0, 0, 1): F(-1, 4)},
}

# Reference dimension polynomials in N for the same irreps.
DIMENSION_POLYS = {
    (1,): lambda n: F(n),
    (2,): lambda n: F(n * (n + 1), 2),
    (1, 1): lambda n: F(n * (n - 1), 2),
    (3,): lambda n: F(n * (n + 1) * (n + 2), 6),
    (2, 1): lambda n: F(n * (n + 1) * (n - 1), 3),
    (1, 1, 1): lambda n: F(n * (n - 1) * (n - 2), 6),
    (4,): lambda n: F(n * (n + 1) * (n + 2) * (n + 3), 24),
    (3, 1): lambda n: F(n * (n + 1) * (n + 2) * (n - 1), 8),
    (2, 2): lambda n: F(n * n * (n + 1) * (n - 1), 12),
    (2, 1, 1): lambda n: F(n * (n + 1) * (n - 1) * (n - 2), 8),
    (1, 1, 1, 1): lambda n: F(n * (n - 1) * (n - 2) * (n - 3), 24),
}

# Reference dimension-weighted character sums for K = 0..4 as functions of N.
WEIGHTED_SUMS = {
    0: lambda n: {(): F(1)},
    1: lambda n: {(1,): F(n)},
    2: lambda n: {(2,): F(n * n, 2), (0, 1): F(n, 2)},
    3: lambda n: {
        (3,): F(n**3, 6),
        (1, 1): F(3 * n * n, 6),
        (0, 0, 1): F(2 * n, 6),
    },
    4: lambda n: {
        (4,): F(n**4, 24),
        (2, 1): F(6 * n**3, 24),
        (1, 0, 1): F(8 * n * n, 24),
        (0, 2): F(3 * n * n, 24),
        (0, 0, 0, 1): F(6 * n, 24),
    },
}


def random_distinct_spectrum_matrix(n, rng):
    """Normal matrix with well separated eigenvalues and its spectrum."""
    while True:
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gaps = [abs(a - b) for i, a in enumerate(alpha) for b in alpha[i + 1 :]]
        if not gaps or min(gaps) > 0.1:
            break
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return u @ np.diag(alpha) @ u.conj().T, alpha


class TestSymCharacters:
    @pytest.mark.parametrize("k", sorted(SYM_CHARACTER_TABLES))
    def test_reference_tables(self, k):
        orders, rows = SYM_CHARACTER_TABLES[k]
        classes = enumerate_cycle_types(k)
        assert [class_order(c) for c in classes] == orders
        for irrep in enumerate_partitions(k):
            assert [sym_character(irrep, c) for c in classes] == rows[irrep.parts]

    def test_golden_entries(self):
        assert sym_character(Partition((2, 1)), CycleType((0, 0, 1))) == -1
        assert sym_character(Partition((2, 2)), CycleType((0, 2))) == 2

    @pytest.mark.parametrize("k", range(1, 8))
    def test_trivial_rep_is_one(self, k):
        one_row = Partition((k,))
        assert all(sym_character(one_row, c) == 1 for c in enumerate_cycle_types(k))

    def test_box_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sym_character(Partition((2, 1)), CycleType((2,)))

    @pytest.mark.parametrize("k", range(2, 8))
    def test_orthogonality(self, k):
        classes = enumerate_cycle_types(k)
        irreps = enumerate_partitions(k)
        kfact = factorial(k)
        for a in irreps:
            for b in irreps:
                inner = sum(
                    class_order(c) * sym_character(a, c) * sym_character(b, c)
                    for c in classes
                )
                assert inner == (kfact if a == b else 0)

    def test_cache_is_thread_safe(self):
        results = []

        def worker():
            table = [
                sym_character(i, c)
                for i in enumerate_partitions(6)
                for c in enumerate_cycle_types(6)
            ]
            results.append(table)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class TestPowerSumPoly:
    def test_evaluate_exact(self):
        poly = PowerSumPoly({(2,): F(1, 2), (0, 1): F(1, 2)})
        assert power_sum_value(poly.terms, [F(3), F(5)]) == F(7)

    def test_evaluate_complex(self):
        poly = PowerSumPoly({(1,): F(2)})
        assert power_sum_value(poly.terms, [1 + 1j]) == 2 + 2j

    def test_lookups_strip_many_trailing_zeros(self):
        # the CLI looks coefficients up by CycleType.counts, padded with zeros to K slots
        padded = (1,) + (0,) * 40000
        poly = PowerSumPoly({(1,): F(1)})
        assert poly.coefficient(padded) == 1

    def test_monomial_label(self):
        assert monomial_label((2, 1)) == "t1^2*t2"
        assert monomial_label(()) == "1"


class TestUnitaryCharPoly:
    @pytest.mark.parametrize("parts", sorted(UNITARY_CHARACTER_POLYS))
    def test_reference_expansions(self, parts):
        poly = unitary_char_poly(Partition(parts))
        assert poly.terms == UNITARY_CHARACTER_POLYS[parts]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_homogeneous(self, k):
        for irrep in enumerate_partitions(k):
            weights = {sum(r * e for r, e in enumerate(key, start=1)) for key in unitary_char_poly(irrep).terms}
            assert weights == {k}

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            unitary_char_poly(Partition(()))


class TestEvalPowerSums:
    def test_identity(self):
        assert eval_power_sums(np.eye(3), 4) == [3.0, 3.0, 3.0, 3.0]

    def test_diagonal(self):
        ts = eval_power_sums(np.diag([2.0, -1.0]), 3)
        assert ts == [1.0, 5.0, 7.0]

    def test_zero_matrix(self):
        assert eval_power_sums(np.zeros((2, 2)), 2) == [0.0, 0.0]

    @pytest.mark.parametrize(
        "a, wording",
        [
            (np.zeros((0, 0)), "dimension at least 1"),  # gave [0j, 0j]
            (np.zeros((2, 3)), "square matrices"),
            ([[np.inf]], "finite entries"),
        ],
    )
    def test_refusals(self, a, wording):
        with pytest.raises(ValueError, match=wording):
            eval_power_sums(a, 2)

    def test_no_powers(self):
        assert eval_power_sums(np.eye(2), 0) == []

    def test_negative_count_refused(self):
        with pytest.raises(ValueError, match="max_r must be non-negative"):
            eval_power_sums(np.eye(2), -1)


class TestUnitaryCharEval:
    """The power-sum polynomial evaluated at the power sums of a matrix."""

    def test_single_box_is_trace(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert power_sum_value(unitary_char_poly(Partition((1,))).terms, eval_power_sums(a, 1)) == pytest.approx(np.trace(a))

    def test_two_boxes_at_identity(self):
        assert power_sum_value(unitary_char_poly(Partition((2,))).terms, [2, 2]) == 3

    def test_matches_ratio_on_random_spectrum(self):
        rng = np.random.default_rng(11)
        a, alpha = random_distinct_spectrum_matrix(3, rng)
        for parts in [(1,), (2,), (2, 1), (1, 1, 1)]:
            lhs = power_sum_value(unitary_char_poly(Partition(parts)).terms, eval_power_sums(a, sum(parts)))
            rhs = weyl_ratio_character(parts, alpha)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


class TestUnitaryCharRatio:
    """The Weyl-ratio oracle against hand expansions."""

    def test_single_box_two_eigenvalues(self):
        a, b = 0.3 + 0.1j, -1.2 + 0.7j
        assert weyl_ratio_character((1,), [a, b]) == pytest.approx(a + b)

    def test_two_boxes_two_eigenvalues(self):
        # expand (1/2)t1^2 + (1/2)t2 = a^2 + ab + b^2
        a, b = 0.9 - 0.4j, 0.2 + 1.1j
        expected = a * a + a * b + b * b
        assert weyl_ratio_character((2,), [a, b]) == pytest.approx(expected)


class TestWeylDim:
    def test_golden_adjointish(self):
        assert weyl_dim(Partition((2, 1)), 3) == 8

    def test_rows_beyond_dimension(self):
        assert weyl_dim(Partition((1, 1, 1)), 2) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_power_dimension(self, n):
        assert weyl_dim(Partition((4,)), n) == n * (n + 1) * (n + 2) * (n + 3) // 24

    @pytest.mark.parametrize("parts", sorted(DIMENSION_POLYS))
    def test_reference_dimension_polynomials(self, parts):
        for n in [*range(1, 9), 10**5]:
            assert weyl_dim(Partition(parts), n) == DIMENSION_POLYS[parts](n)

    def test_against_hook_content_oracle(self):
        for k in range(1, 9):
            for n in range(1, 11):
                for irrep in enumerate_partitions(k):
                    assert weyl_dim(irrep, n) == hook_content_dim(irrep.parts, n)

    def test_matches_character_at_identity(self):
        for k in range(1, 6):
            for n in range(1, 6):
                for irrep in (p for p in enumerate_partitions(k) if len(p.parts) <= n):
                    assert power_sum_value(unitary_char_poly(irrep).terms, [n] * k) == weyl_dim(irrep, n)


class TestDimCharSum:
    @pytest.mark.parametrize("k", sorted(WEIGHTED_SUMS))
    def test_reference_table(self, k):
        for n in range(1, 7):
            assert dim_char_sum(k, n).terms == {
                key: coeff
                for key, coeff in WEIGHTED_SUMS[k](n).items()
                if coeff
            }

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_sum_form(self, k, n):
        # the closed form against sum over shapes of dim * character
        assert dim_char_sum(k, n).terms == dim_char_sum_oracle(k, n)

    def test_k0_constant(self):
        assert dim_char_sum(0, 3).terms == {(): F(1)}

    @pytest.mark.parametrize("k", range(13))
    @pytest.mark.parametrize("n", (1, 2, 4, 10))
    def test_terms_in_class_order(self, k, n):
        # n^cycles / z_mu against |class| * n^cycles / K!, key by key in insertion order; the goldens hash this order
        terms = list(dim_char_sum(k, n).terms.items())
        assert terms == dim_char_sum_formula(k, n)
        assert repr(terms) == repr(dim_char_sum_formula(k, n))


@pytest.mark.parametrize(
    "call",
    [lambda: weyl_dim(Partition((1,)), 0), lambda: dim_char_sum(2, 0)],
    ids=["weyl-dim", "dim-char-sum"],
)
def test_dimension_below_one_refused(call):
    with pytest.raises(ValueError, match="n must be positive"):
        call()
