"""Partitions, symmetric-group classes, difference products, and factorial constants.

Exact values are carried by Python ints and ``fractions.Fraction``; nothing in
this module touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lgamma, log, prod
from operator import index
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


def _naturals(values: Iterable[int], name: str) -> tuple[int, ...]:
    """``values`` as a non-empty tuple of non-negative ints, read with ``index``; ``name`` names them in errors."""
    out = tuple(map(index, values))
    if not out:
        raise ValueError(f"{name} must be non-empty")
    if any(v < 0 for v in out):
        raise ValueError(f"{name} must be non-negative, got {out}")
    return out


class _Frozen:
    """Base of a value type whose fields, named in ``_fields``, are its slots, set once in ``__init__``.

    ``__init__`` sets each field with ``object.__setattr__``; any later assignment
    raises ``AttributeError``. Equality, hashing and the ``Name(field=value, ...)``
    repr read the fields in order, as a frozen dataclass's do, and a copy or
    pickle calls the constructor with them, positionally. A subclass inherits
    ``_fields``, so it may declare empty ``__slots__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _without_trailing_zeros(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple, trailing zeros popped from a list in linear time."""
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Partition:
    """A weakly decreasing tuple of box counts, top row first.

    Trailing zero rows are stripped on construction, so equal shapes hash and
    compare equal regardless of padding.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        clean = _without_trailing_zeros(map(index, parts))
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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

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
        clean = _without_trailing_zeros(map(index, counts))
        if any(c < 0 for c in clean):
            raise ValueError(f"negative multiplicity in cycle type {clean}")
        self._counts = clean

    @classmethod
    def _checked(cls, counts: tuple[int, ...]) -> CycleType:
        """Wrap non-negative ``counts`` without trailing zeros that the caller has already checked."""
        cycle_type = cls.__new__(cls)
        cycle_type._counts = counts
        return cycle_type

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
        return tuple(r for r, c in enumerate(self._counts, start=1) for _ in range(c))

    def centralizer_order(self) -> int:
        """z_mu = prod(r^{i_r} * i_r!), the order of the centralizer of one element of the class."""
        return prod(r**c * factorial(c) for r, c in enumerate(self._counts, start=1))

    def label(self) -> str:
        """Display form like ``1^2,2`` for the class (1^2, 2)."""
        return ",".join(str(r) if c == 1 else f"{r}^{c}" for r, c in enumerate(self._counts, start=1) if c)

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


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of ``k``.

    Ordered reverse-lexicographically (largest first part first), so the
    one-row shape leads and the single-column shape closes the list.
    ``k = 0`` yields exactly the empty partition.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    result: list[Partition] = []

    def descend(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            result.append(Partition(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(k, k, [])
    return result


def enumerate_cycle_types(k: int) -> list[CycleType]:
    """All classes of S_K, ordered as in character tables.

    The order sorts the weakly increasing cycle-length tuples lexicographically:
    (1^K) first, the full K-cycle last. ``k = 0`` yields the one empty class. A
    depth-first walk over ascending parts, the part that closes the remainder
    last among its siblings, lists them in this order and keeps their counts.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    classes: list[CycleType] = []
    counts = [0] * k

    def walk(remaining: int, least: int) -> None:
        if not remaining:  # the last part, ``least``, is the longest cycle
            classes.append(CycleType._checked(tuple(counts[:least])))
            return
        for part in [*range(least, remaining // 2 + 1), remaining]:
            counts[part - 1] += 1
            walk(remaining - part, part)
            counts[part - 1] -= 1

    walk(k, 1)
    return classes


def class_order(cycle_type: CycleType) -> int:
    """Number of elements of S_K in the class: K! / prod(r^{i_r} * i_r!)."""
    return factorial(cycle_type.boxes()) // cycle_type.centralizer_order()


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
