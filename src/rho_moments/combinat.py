"""Partitions, symmetric-group classes, difference products, and factorial constants.

Exact values are carried by Python ints and ``fractions.Fraction``; nothing in
this module touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lgamma, log
from typing import Iterable, Sequence

from .errors import CapExceededError

__all__ = [
    "Partition",
    "CycleType",
    "enumerate_partitions",
    "enumerate_cycle_types",
    "class_order",
    "MAX_EXACT_BITS",
    "MAX_FACTORIAL_ARG",
    "check_cap",
    "check_exact_bits",
    "bounded_factorial",
    "bounded_power",
    "vandermonde",
    "super_factorial",
    "lower_triangle_count",
]


class Partition:
    """A weakly decreasing tuple of box counts, top row first.

    Trailing zero rows are stripped on construction, so equal shapes hash and
    compare equal regardless of padding.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        clean = tuple(int(p) for p in parts)
        while clean and clean[-1] == 0:
            clean = clean[:-1]
        if clean and clean[-1] < 0:
            raise ValueError(f"negative part in partition {clean}")
        for a, b in zip(clean, clean[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {clean}")
        self._parts = clean

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def boxes(self) -> int:
        """Total number of boxes (the K of a K-box shape)."""
        return sum(self._parts)

    def rows(self) -> int:
        return len(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self._parts) if self._parts else "()"


class CycleType:
    """Cycle-length multiplicities (i_1, ..., i_K) labelling a class of S_K.

    Stores the counts only up to the longest cycle; ``counts`` pads them with
    zeros to K slots, where K = sum(r * i_r), when it is read.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Iterable[int]):
        clean = [int(c) for c in counts]
        if any(c < 0 for c in clean):
            raise ValueError(f"negative multiplicity in cycle type {tuple(clean)}")
        while clean and clean[-1] == 0:
            clean.pop()
        self._counts = tuple(clean)

    @classmethod
    def from_cycle_lengths(cls, lengths: Iterable[int]) -> "CycleType":
        lengths = list(lengths)
        counts = [0] * max(lengths, default=0)
        for r in lengths:
            if r < 1:
                raise ValueError(f"cycle length must be positive, got {r}")
            counts[r - 1] += 1
        return cls(counts)

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts + (0,) * (self.boxes() - len(self._counts))

    def boxes(self) -> int:
        """K, the number of letters being permuted."""
        return sum(r * c for r, c in enumerate(self._counts, start=1))

    def cycles(self) -> int:
        """Number of cycles, counting fixed points."""
        return sum(self._counts)

    def cycle_lengths(self) -> tuple[int, ...]:
        """The cycle lengths in weakly increasing order, e.g. (1, 1, 2)."""
        out: list[int] = []
        for r, c in enumerate(self._counts, start=1):
            out.extend([r] * c)
        return tuple(out)

    def label(self) -> str:
        """Display form like ``1^2,2`` for the class (1^2, 2)."""
        pieces = []
        for r, c in enumerate(self._counts, start=1):
            if c == 1:
                pieces.append(str(r))
            elif c > 1:
                pieces.append(f"{r}^{c}")
        return ",".join(pieces)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycleType):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._counts)

    def __repr__(self) -> str:
        return f"CycleType({list(self.counts)})"

    def __str__(self) -> str:
        return self.label()


def enumerate_partitions(k: int, max_rows: int) -> list[Partition]:
    """All partitions of ``k`` with at most ``max_rows`` parts.

    Ordered reverse-lexicographically (largest first part first), so the
    one-row shape leads and the single-column shape, when admissible, closes
    the list. ``k = 0`` yields exactly the empty partition.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if max_rows < 1:
        raise ValueError("max_rows must be positive")
    result: list[Partition] = []

    def descend(remaining: int, max_part: int, prefix: list[int], rows_left: int) -> None:
        if remaining == 0:
            result.append(Partition(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            if part * rows_left < remaining:
                break
            prefix.append(part)
            descend(remaining - part, part, prefix, rows_left - 1)
            prefix.pop()

    descend(k, k if k else 1, [], max_rows)
    return result


def enumerate_cycle_types(k: int) -> list[CycleType]:
    """All classes of S_K, ordered as in character tables.

    The order sorts the weakly increasing cycle-length tuples
    lexicographically: (1^K) first, the full K-cycle last. ``k = 0`` yields
    the one empty class.
    """
    lengths = sorted(tuple(sorted(p.parts)) for p in enumerate_partitions(k, max(k, 1)))
    return [CycleType.from_cycle_lengths(t) for t in lengths]


def class_order(cycle_type: CycleType) -> int:
    """Number of elements of S_K in the class: K! / prod(r^{i_r} * i_r!)."""
    k = cycle_type.boxes()
    denom = 1
    for r, c in enumerate(cycle_type._counts, start=1):
        denom *= r**c * factorial(c)
    return factorial(k) // denom


# Largest exact factorial argument: 10000! has 35,660 digits, which reduce and
# print in ~25 ms, and the cost grows quadratically (50000!: ~0.9 s to print).
MAX_FACTORIAL_ARG = 10000
# Largest exact power or parsed input, in bits: the size of MAX_FACTORIAL_ARG!.
MAX_EXACT_BITS = int(lgamma(MAX_FACTORIAL_ARG + 1) / log(2))


def check_cap(k: int, cap: int, cost: str) -> int:
    """Refuse K above ``cap``, naming what the cap bounds in ``cost``; return K."""
    if k > cap:
        raise CapExceededError(f"K = {k} exceeds the cap of {cap}; {cost}")
    return k


def check_exact_bits(bits: float, what: str) -> None:
    """Refuse an exact value of more than ``MAX_EXACT_BITS`` bits; ``what`` names it."""
    if bits > MAX_EXACT_BITS:
        raise CapExceededError(
            f"{what} is above the exact-arithmetic limit, the size of {MAX_FACTORIAL_ARG}!"
        )


def bounded_factorial(n: int) -> int:
    """n!, refusing arguments above ``MAX_FACTORIAL_ARG``."""
    if n > MAX_FACTORIAL_ARG:
        raise CapExceededError(f"{n}! is above the exact-arithmetic limit {MAX_FACTORIAL_ARG}!")
    return factorial(n)


def bounded_power(base: Fraction, exponent: int) -> Fraction:
    """base**exponent, refusing results of more than ``MAX_EXACT_BITS`` bits."""
    base = Fraction(base)
    bits = max(abs(base.numerator), base.denominator).bit_length() - 1
    check_exact_bits(exponent * bits, f"a {bits + 1}-bit base to the power {exponent}")
    return base**exponent


def vandermonde(values: Sequence[int] | Sequence[Fraction]):
    """Difference product prod_{i<j} (v_j - v_i); empty and singleton give 1.

    Exact for int/Fraction entries; any type supporting subtraction and
    multiplication works.
    """
    total = 1
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            total = total * (values[j] - values[i])
    return total


def super_factorial(n: int) -> int:
    """prod_{j=1..n} j!, with the empty product 1 at n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    total = 1
    fact = 1
    for j in range(1, n + 1):
        fact *= j
        total *= fact
    return total


def lower_triangle_count(n: int) -> int:
    """Entries strictly below the diagonal of an n x n matrix: n(n-1)/2."""
    if n < 1:
        raise ValueError("n must be positive")
    return n * (n - 1) // 2
