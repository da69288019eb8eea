"""Exact simplex and Dirichlet moment integrals, plus the uniform simplex sampler.

The simplex integral lives on {x >= 0, sum(x) = scale} with the delta-function
convention, so the all-zero-exponent case is scale^(n-1)/(n-1)!, not 1. The
Dirichlet integral lives on the open region {x >= 0, sum(x) < scale} with a
monomial weight f(t) = t^weight_power on the coordinate sum.

The sampler only calls methods of the numpy generator and arrays it is given,
so this module imports no numpy and the exact commands never load it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable

from .combinat import MIN_SAMPLES, _Frozen, _naturals, bounded_factorial, bounded_power

__all__ = [
    "MIN_SAMPLES",
    "SimplexMomentSpec",
    "DirichletSpec",
    "simplex_moment",
    "dirichlet_moment",
    "beta_function",
    "sample_simplex_batch",
]


def _as_scale(scale) -> Fraction:
    value = Fraction(scale)
    if value <= 0:
        raise ValueError(f"scale must be positive, got {value}")
    return value


class SimplexMomentSpec(_Frozen):
    """Moment of prod x_b^{nu_b} over the simplex sum(x) = scale."""

    __slots__ = _fields = ("exponents", "scale")

    def __init__(self, exponents: Iterable[int], scale: Fraction = Fraction(1)):
        super().__init__(_naturals(exponents, "exponents"), _as_scale(scale))

    def degree(self) -> int:
        """The combined exponent nu = sum(nu_b) + N_b - 1."""
        return sum(self.exponents) + len(self.exponents) - 1


class DirichletSpec(_Frozen):
    """Moment of prod x_B^{nu_B} * (sum x)^weight_power over sum(x) < scale."""

    __slots__ = _fields = ("exponents", "scale", "weight_power")

    def __init__(self, exponents: Iterable[int], scale: Fraction = Fraction(1), weight_power: int = 0):
        exponents, scale = _naturals(exponents, "exponents"), _as_scale(scale)
        weight_power = operator.index(weight_power)
        if weight_power < 0:
            raise ValueError("weight_power must be a non-negative integer")
        super().__init__(exponents, scale, weight_power)

    def degree(self) -> int:
        """nu for the extended exponent list (nu_B..., 0): sum(nu_B) + N_B."""
        return sum(self.exponents) + len(self.exponents)


def simplex_moment(spec: SimplexMomentSpec) -> Fraction:
    """prod(nu_b!) * scale^nu / nu! with nu = sum(nu_b) + N_b - 1."""
    nu = spec.degree()
    denominator = bounded_factorial(nu)  # nu bounds every nu_b, so it is checked first
    numerator = math.prod(bounded_factorial(e) for e in spec.exponents)
    return numerator * bounded_power(spec.scale, nu) / denominator


def dirichlet_moment(spec: DirichletSpec) -> Fraction:
    """prod(nu_B!) / nu! * g(scale), g = nu * scale^(nu+m) / (nu+m) for t^m weight.

    At m = 0 this reduces to the simplex moment of the exponent list extended
    by a trailing zero.
    """
    nu = spec.degree()
    m = spec.weight_power
    denominator = bounded_factorial(nu)
    numerator = math.prod(bounded_factorial(e) for e in spec.exponents)
    g = Fraction(nu, nu + m) * bounded_power(spec.scale, nu + m)
    return Fraction(numerator, denominator) * g


def beta_function(m: int, n: int) -> Fraction:
    """(m-1)! (n-1)! / (m+n-1)! for positive integers."""
    if m < 1 or n < 1:
        raise ValueError("beta_function needs positive integer arguments")
    return Fraction(
        bounded_factorial(m - 1) * bounded_factorial(n - 1), bounded_factorial(m + n - 1)
    )


def sample_simplex_batch(n_components: int, count: int, rng: numpy.random.Generator) -> numpy.ndarray:
    """(count, n_components) array of uniform simplex points.

    Normalized exponential spacings; rows whose raw sum underflows are
    redrawn (probability is negligible, the guard keeps the output finite).
    """
    if n_components < 1:
        raise ValueError("n_components must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    draws = rng.standard_exponential((count, n_components))
    totals = _redraw_underflowed(draws, _row_sums, lambda rows: rng.standard_exponential((rows, n_components)))
    draws /= totals[:, None]
    return draws


def _row_sums(batch: numpy.ndarray) -> numpy.ndarray:
    """``batch.sum(axis=1)`` of a C-ordered 2-D array, bit for bit.

    Below 8 columns numpy adds a row's entries one after another, so the whole
    columns are added in that order: over a few columns, numpy's row-wise
    reduction takes ~15 times as long as these column adds, and it did not scale
    across worker threads. Wider batches use ``sum(axis=1)`` itself.
    """
    width = batch.shape[1]
    if width >= 8:
        return batch.sum(axis=1)
    total = batch[:, 0].copy()
    for j in range(1, width):
        total += batch[:, j]
    return total


def _redraw_underflowed(
    batch: numpy.ndarray, totals: Callable[[numpy.ndarray], numpy.ndarray], draw: Callable[[int], numpy.ndarray]
) -> numpy.ndarray:
    """Redraw the rows of ``batch`` whose total is below 1e-300 until none is; return the totals.

    ``totals(batch)`` gives one total per row and ``draw(rows)`` that many fresh
    rows; the underflowed rows are redrawn together, in row order.
    """
    sums = totals(batch)
    while (bad := sums < 1e-300).any():
        batch[bad] = draw(int(bad.sum()))
        sums = totals(batch)
    return sums
