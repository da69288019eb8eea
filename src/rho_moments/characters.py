"""Characters of S_K and U(N), Weyl dimensions, and dimension-weighted sums.

Symmetric-group characters come from the Murnaghan-Nakayama border-strip
recursion, memoized on (shape, remaining cycles). U(N) characters are carried
as exact polynomials in the trace power sums t_r = tr(A^r): the sum over the
terms of coefficient * prod_r t_r^e_r at the power sums of a matrix
(``quantum.eval_power_sums``) is the character there, with no singularity at
coinciding eigenvalues. The paper's other form, Weyl's determinant ratio over
the eigenvalues, is a test oracle.

The dimension-weighted character sum needs no characters: s_lambda(1^N) = 0
for shapes with more than N rows, so the Cauchy identity gives
sum_lambda dim_N(lambda) s_lambda = sum over classes mu of N^cycles(mu) p_mu / z_mu
(Macdonald, Symmetric Functions and Hall Polynomials, I.4). The character
route is kept as the ``dim-char-sum-vs-characters`` check of ``verify``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from typing import Iterable

from .combinat import CycleType, Partition, _Frozen, _without_trailing_zeros, enumerate_cycle_types

__all__ = [
    "PowerSumPoly",
    "sym_character",
    "unitary_char_poly",
    "weyl_dim",
    "dim_char_sum",
]


class PowerSumPoly(_Frozen):
    """Exact-rational polynomial in the power sums t_1, t_2, ...

    Monomials are keyed by exponent tuples with trailing zeros stripped:
    ``(2,)`` is t1^2 and ``(1, 0, 1)`` is t1*t3. Only ``unitary_char_poly``
    and ``dim_char_sum`` build one, and the constructor stores their terms as
    given: nonzero Fractions, keyed without trailing zeros. Instances are
    read-only and, holding a dict, unhashable.
    """

    __slots__ = _fields = ("_terms",)
    __hash__ = None

    def __init__(self, terms: dict[tuple[int, ...], Fraction]):
        super().__init__(terms)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        """The coefficient of t^exponents; trailing zeros, as in a padded ``CycleType.counts``, are ignored."""
        return self._terms.get(_without_trailing_zeros(exponents), Fraction(0))

    def __repr__(self) -> str:
        if not self._terms:
            return "PowerSumPoly(0)"
        order = sorted(self._terms)
        return "PowerSumPoly(" + " + ".join(
            f"({self._terms[k]})*{monomial_label(k)}" for k in order
        ) + ")"


def monomial_label(exponents: tuple[int, ...]) -> str:
    """Display form of a power-sum monomial, e.g. ``t1^2*t2``; constant is ``1``."""
    return "*".join(f"t{r}" if e == 1 else f"t{r}^{e}" for r, e in enumerate(exponents, start=1) if e) or "1"


@cache
def _mn_character(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on the beta-set of the shape.

    ``cycles`` holds the cycle lengths still to be removed, largest first.
    Removing a border strip of length r means lowering one beta number by r
    without colliding with another; the sign is (-1)^(rows spanned - 1).
    """
    if not cycles:
        return 1 if not parts else 0
    r, rest = cycles[0], cycles[1:]
    ell = len(parts)
    beta = [parts[j] + ell - 1 - j for j in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        lowered = b - r
        if lowered < 0 or lowered in beta_set:
            continue
        height = sum(1 for x in beta if lowered < x < b)
        new_beta = sorted((x if x != b else lowered for x in beta), reverse=True)
        new_parts = _without_trailing_zeros(x - (ell - 1 - i) for i, x in enumerate(new_beta))
        sign = -1 if height % 2 else 1
        total += sign * _mn_character(new_parts, rest)
    return total


def sym_character(irrep: Partition, cycle_type: CycleType) -> int:
    """Character of an S_K class in the given irrep; both must have K boxes."""
    k = irrep.boxes()
    if cycle_type.boxes() != k:
        raise ValueError(
            f"irrep has {k} boxes but class permutes {cycle_type.boxes()} letters"
        )
    lengths = tuple(sorted(cycle_type.cycle_lengths(), reverse=True))
    return _mn_character(irrep.parts, lengths)


@cache
def unitary_char_poly(irrep: Partition) -> PowerSumPoly:
    """Power-sum expansion of the U(N) character for this shape.

    The coefficient of the class monomial t^i is chi(class) / z_i, that is
    |class| * chi(class) / K!. The result does not depend on N.
    """
    k = irrep.boxes()
    if k < 1:
        raise ValueError("the shape must have at least one box")
    terms: dict[tuple[int, ...], Fraction] = {}
    for cls in enumerate_cycle_types(k):
        coeff = Fraction(sym_character(irrep, cls), cls.centralizer_order())
        if coeff:
            terms[cls._counts] = coeff
    return PowerSumPoly(terms)


def weyl_dim(irrep: Partition, n: int) -> int:
    """Dimension of the U(N) irrep for this shape; 0 when rows exceed n.

    The content-hook form [n]_lambda / H_lambda: the product of n + j - i over
    the boxes (i, j), 0-based, over the product of their hook lengths. A box in
    row n + 1 has the factor 0, and the cost depends on the shape, not on n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    parts = irrep.parts
    columns = [len([row for row in parts if row > j]) for j in range(max(parts, default=0))]
    boxes = [(i, j, row) for i, row in enumerate(parts) for j in range(row)]
    return prod([n + j - i for i, j, _ in boxes]) // prod([row - j + columns[j] - i - 1 for i, j, row in boxes])


def dim_char_sum(k: int, n: int) -> PowerSumPoly:
    """Sum of dim(irrep) * character over all K-box irreps of U(N).

    By the Cauchy identity (module docstring) the coefficient of the class
    monomial t^mu is n^cycles(mu) / z_mu = |class mu| * n^cycles(mu) / K!,
    one Fraction per class from its counts; ``k = 0`` gives the constant 1.
    The sum over irreps of ``weyl_dim`` times ``unitary_char_poly`` is the
    ``dim-char-sum-vs-characters`` check of ``verify``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return PowerSumPoly(
        {c._counts: Fraction(n ** c.cycles(), c.centralizer_order()) for c in enumerate_cycle_types(k)}
    )
