import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from rho_moments.combinat import (
    MAX_FACTORIAL_ARG,
    CycleType,
    Partition,
    bounded_factorial,
    bounded_power,
    class_order,
    enumerate_cycle_types,
    enumerate_partitions,
    lower_triangle_count,
    super_factorial,
    vandermonde,
)

from rho_moments.errors import CapExceededError

from oracles import enumerate_cycle_types_oracle, exact_det, vandermonde_matrix

MANY_ZEROS = (0,) * 40000


class TestPartition:
    def test_strips_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert hash(Partition((3, 1, 0))) == hash(Partition((3, 1)))

    def test_boxes_and_rows(self):
        p = Partition((6, 3, 3))
        assert p.boxes() == 12
        assert len(p.parts) == 3

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_strips_many_trailing_zero_rows(self):
        # popped one at a time from a list, so the cost is linear in the padding
        assert Partition((1,) + MANY_ZEROS).parts == (1,)
        assert Partition(MANY_ZEROS).parts == ()


class TestCycleType:
    def test_slot_normalization(self):
        # (1,1) means one 1-cycle and one 2-cycle: K = 3, stored in 3 slots
        assert CycleType((1, 1)).counts == (1, 1, 0)
        assert CycleType((1, 1)) == CycleType((1, 1, 0))

    def test_stores_counts_only_up_to_the_longest_cycle(self):
        # one 200000-cycle keeps one slot; the K-slot tuple is built only when read
        assert CycleType((200000,))._counts == (200000,)
        assert CycleType((0, 0, 1, 0, 0))._counts == (0, 0, 1)
        assert repr(CycleType((2,))) == "CycleType([2, 0])"

    def test_strips_many_trailing_zero_counts(self):
        assert CycleType((1,) + MANY_ZEROS)._counts == (1,)

    def test_boxes_and_cycles(self):
        c = CycleType((2, 1))  # (1^2, 2)
        assert c.boxes() == 4
        assert c.cycles() == 3
        assert c.cycle_lengths() == (1, 1, 2)

    def test_label(self):
        assert CycleType((2, 1)).label() == "1^2,2"
        assert CycleType((0, 0, 1)).label() == "3"


class TestEnumeration:
    def test_partitions_k2(self):
        assert [p.parts for p in enumerate_partitions(2)] == [(2,), (1, 1)]

    def test_partitions_k0(self):
        assert enumerate_partitions(0) == [Partition(())]

    def test_partitions_k4_count(self):
        assert len(enumerate_partitions(4)) == 5

    def test_partitions_row_cap(self):
        assert [p.parts for p in enumerate_partitions(4) if len(p.parts) <= 2] == [(4,), (3, 1), (2, 2)]

    def test_reverse_lex_order(self):
        parts = [p.parts for p in enumerate_partitions(6)]
        assert parts == sorted(parts, reverse=True)

    def test_cycle_types_k3(self):
        assert {c.counts for c in enumerate_cycle_types(3)} == {
            (3, 0, 0),
            (1, 1, 0),
            (0, 0, 1),
        }

    def test_cycle_types_k1(self):
        assert [c.counts for c in enumerate_cycle_types(1)] == [(1,)]

    def test_cycle_types_k0_is_the_empty_class(self):
        (empty,) = enumerate_cycle_types(0)
        assert empty == CycleType(())
        assert (class_order(empty), empty.cycles(), empty.boxes()) == (1, 0, 0)

    def test_cycle_types_negative_k_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cycle_types(-1)

    def test_cycle_types_table_order(self):
        labels = [c.label() for c in enumerate_cycle_types(4)]
        assert labels == ["1^4", "1^2,2", "1,3", "2^2", "4"]

    @pytest.mark.parametrize("k", range(16))
    def test_cycle_types_match_the_sorted_partitions(self, k):
        # the one-pass walk lists the same classes, in the same order, as sorting the partitions
        assert [c._counts for c in enumerate_cycle_types(k)] == [c._counts for c in enumerate_cycle_types_oracle(k)]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_partition_class_bijection(self, k):
        assert len(enumerate_partitions(k)) == len(enumerate_cycle_types(k))


class TestClassOrder:
    @pytest.mark.parametrize(
        "counts,expected",
        [((2, 1), 6), ((0, 0, 1), 2), ((1,), 1)],
    )
    def test_goldens(self, counts, expected):
        assert class_order(CycleType(counts)) == expected

    @pytest.mark.parametrize("k", range(1, 11))
    def test_orders_sum_to_group_size(self, k):
        assert sum(class_order(c) for c in enumerate_cycle_types(k)) == factorial(k)


class TestVandermonde:
    def test_golden(self):
        assert vandermonde((0, 1, 2, 3)) == 12

    def test_repeated_entry(self):
        assert vandermonde((5, 5, 7)) == 0

    def test_tiny_inputs(self):
        assert vandermonde(()) == 1
        assert vandermonde((9,)) == 1
        assert vandermonde((0, 1)) == 1

    def test_exact_fractions(self):
        assert vandermonde((Fraction(1, 2), Fraction(3, 2))) == 1

    @given(st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=6))
    def test_matches_determinant(self, values):
        assert vandermonde(values) == exact_det(vandermonde_matrix(values))


class TestFactorialConstants:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (3, 12)])
    def test_super_factorial_goldens(self, n, expected):
        assert super_factorial(n) == expected

    @pytest.mark.parametrize("n", range(0, 9))
    def test_super_factorial_is_difference_product(self, n):
        assert super_factorial(n) == vandermonde(tuple(range(n + 1)))

    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (4, 6)])
    def test_lower_triangle_goldens(self, n, expected):
        assert lower_triangle_count(n) == expected

    @pytest.mark.parametrize("n", range(1, 10))
    def test_lower_triangle_is_partial_sum(self, n):
        assert lower_triangle_count(n) == sum(range(n))


class TestExactBudget:
    def test_factorial_up_to_the_limit(self):
        assert bounded_factorial(5) == 120
        assert bounded_factorial(MAX_FACTORIAL_ARG) == factorial(MAX_FACTORIAL_ARG)

    def test_factorial_above_the_limit(self):
        with pytest.raises(CapExceededError):
            bounded_factorial(MAX_FACTORIAL_ARG + 1)

    def test_powers_of_one_are_free(self):
        assert bounded_power(Fraction(1), 10**9) == 1

    @pytest.mark.parametrize("base", (Fraction(2), Fraction(1, 2), Fraction(-3, 2)))
    def test_power_size_limit(self, base):
        assert bounded_power(base, 1000) == base**1000
        with pytest.raises(CapExceededError):
            bounded_power(base, 2 * factorial(MAX_FACTORIAL_ARG).bit_length())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CycleType((1, -1)), "negative multiplicity in cycle type (1, -1)"),
        (lambda: enumerate_partitions(-1), "k must be non-negative"),
        (lambda: super_factorial(-1), "n must be non-negative"),
        (lambda: lower_triangle_count(0), "n must be positive"),
    ],
    ids=["cycle-type", "partitions-k", "super-factorial", "lower-triangle"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
