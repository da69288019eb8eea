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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .combinat import bounded_factorial, bounded_power

__all__ = [
    "MIN_SAMPLES",
    "SimplexMomentSpec",
    "DirichletSpec",
    "simplex_moment",
    "dirichlet_moment",
    "beta_function",
    "sample_simplex",
    "sample_simplex_batch",
]

# Every Monte Carlo estimator refuses smaller sample counts.
MIN_SAMPLES = 100


def _as_exponents(exponents) -> tuple[int, ...]:
    out = tuple(int(e) for e in exponents)
    if not out:
        raise ValueError("at least one exponent is required")
    if any(e < 0 for e in out):
        raise ValueError(f"exponents must be non-negative, got {out}")
    return out


def _as_scale(scale) -> Fraction:
    value = Fraction(scale)
    if value <= 0:
        raise ValueError(f"scale must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SimplexMomentSpec:
    """Moment of prod x_b^{nu_b} over the simplex sum(x) = scale."""

    exponents: tuple[int, ...]
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "exponents", _as_exponents(self.exponents))
        object.__setattr__(self, "scale", _as_scale(self.scale))

    def degree(self) -> int:
        """The combined exponent nu = sum(nu_b) + N_b - 1."""
        return sum(self.exponents) + len(self.exponents) - 1


@dataclass(frozen=True)
class DirichletSpec:
    """Moment of prod x_B^{nu_B} * (sum x)^weight_power over sum(x) < scale."""

    exponents: tuple[int, ...]
    scale: Fraction = Fraction(1)
    weight_power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "exponents", _as_exponents(self.exponents))
        object.__setattr__(self, "scale", _as_scale(self.scale))
        if int(self.weight_power) < 0:
            raise ValueError("weight_power must be a non-negative integer")
        object.__setattr__(self, "weight_power", int(self.weight_power))

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


def sample_simplex(n_components: int, rng: numpy.random.Generator) -> numpy.ndarray:
    """One point uniform on the simplex {x >= 0, sum(x) = 1}."""
    return sample_simplex_batch(n_components, 1, rng)[0]


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
    totals = _redraw_underflowed(
        draws, lambda d: d.sum(axis=1), lambda rows: rng.standard_exponential((rows, n_components))
    )
    draws /= totals[:, None]
    return draws


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
