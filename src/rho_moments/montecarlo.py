"""Monte Carlo verification oracle for the exact moment engines.

Density matrices are drawn as rho = G G^dagger / tr(G G^dagger) with G a
square matrix of independent standard complex Gaussians; that normalization
realizes the flat trace-one ensemble, which the purity, entry-moment, and
eigenvalue-law checks validate rather than assume. The Gram product's diagonal
and upper triangle are summed in real arithmetic from the real and imaginary
parts of G into contiguous Re and Im planes, with the samples on the last axis;
only those entries are divided by the trace, and the lower triangle is their
conjugate. No sampler or consumer step applies BLAS, LAPACK, a complex ufunc
multiply, ``**`` or ``exp`` to the samples, whose rounding depends on the BLAS
build or on numpy's SIMD dispatch level: powers are repeated products, the
mgf's exponential is its truncated series, and lambda_min(rho) > t is read from
the pivots of an LDL* factorisation of rho - t I.
Every estimator builds its per-sample consumers and exact targets and hands
them to one streaming path: the samples are cut into chunks of 2^16 sample
entries (or one sample), and chunk c is drawn from its own stream
``SeedSequence(seed, spawn_key=(c,))`` in a thread pool task of its own. Each
chunk reduces to the mean and the sum of squared deviations of each consumer's
real and imaginary parts, and these are merged in chunk order (Chan, Golub and
LeVeque 1983) into one mean and one sum of squares per component, from which
each report is read. A report therefore depends on the seed alone; the worker
count changes only the speed. Consumers of one stream share one call, and each
still reduces on its own, so its report is the one it would get alone:
``verify`` reads N = 2 purity and two entry moments from one stream this way.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Sequence

import numpy as np

from . import classical, quantum
from .classical import MIN_SAMPLES, DirichletSpec, SimplexMomentSpec, _redraw_underflowed, sample_simplex_batch
from .combinat import MAX_FACTORIAL_ARG
from .errors import CapExceededError
from .quantum import EntryMomentSpec, mgf_coefficient

__all__ = [
    "MIN_SAMPLES",
    "EstimateReport",
    "sample_density_batch",
    "estimate_entry_moments",
    "estimate_purity",
    "estimate_mgf",
    "estimate_simplex_moment",
    "estimate_dirichlet_moment",
    "lambda_min_law",
    "estimate_lambda_min_law",
]

# A chunk holds _CHUNK_ENTRIES sample entries, or one sample if that is wider:
# its three arrays, the Gaussian draw, the Gram product's Re and Im planes and
# the density matrices, are then 1 MiB each and stay in cache (16384 samples at
# n = 2, 7281 at n = 3, 1024 at n = 8). The size depends on the sample width
# alone, because chunk boundaries fix the streams.
_CHUNK_ENTRIES = 1 << 16

# A sampler bound to its shape: draw(count, rng) returns ``count`` samples.
_Draw = Callable[[int, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo estimate next to its exact target.

    ``std_error`` is the larger of the real/imaginary component standard
    errors; ``z_score`` is the worse of the two component discrepancies in
    standard-error units.
    """

    estimate: complex
    std_error: float
    exact_value: complex
    z_score: float
    sample_count: int
    seed: int


def _component(mean: float, m2: float, count: int, exact: float, scale: float) -> tuple[float, float]:
    """Standard error and z-score of one component's ``mean`` against ``exact``.

    ``m2`` is the sum of squared deviations from the mean over ``count`` values.
    """
    se = math.sqrt(m2 / (count - 1) / count)
    delta = abs(mean - exact)
    if se > 0.0:
        return se, delta / se
    return se, 0.0 if delta <= 1e-12 * scale else math.inf


def _report(mean: np.ndarray, m2: np.ndarray, count: int, exact: complex, seed: int) -> EstimateReport:
    """The report of one consumer: ``mean`` and ``m2`` hold its (re, im) mean and sum of squared deviations."""
    (mean_re, mean_im), (m2_re, m2_im) = mean.tolist(), m2.tolist()
    scale = 1.0 + abs(exact)
    se_re, z_re = _component(mean_re, m2_re, count, exact.real, scale)
    se_im, z_im = _component(mean_im, m2_im, count, exact.imag, scale)
    return EstimateReport(
        estimate=complex(mean_re, mean_im),
        std_error=max(se_re, se_im),
        exact_value=exact,
        z_score=max(z_re, z_im),
        sample_count=count,
        seed=seed,
    )


def _estimate(
    draw: _Draw, width: int, consumers: Sequence[Callable[[np.ndarray], np.ndarray]],
    exact: Sequence[complex], samples: int, seed: int, workers: int,
) -> list[EstimateReport]:
    """Mean of each consumer over ``samples`` draws of ``width`` entries, reported against ``exact``.

    Chunk c is drawn from ``SeedSequence(seed, spawn_key=(c,))``, the c-th child
    of ``SeedSequence(seed).spawn``, in one pool task; the pool has
    min(workers, chunk count, cpu count) threads, and at least one.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"at least {MIN_SAMPLES} samples are required")
    if not consumers:
        return []
    size = max(1, _CHUNK_ENTRIES // width)
    chunks = -(-samples // size)
    workers = min(max(1, int(workers)), chunks, os.cpu_count() or 1)

    def chunk_moments(c: int) -> tuple[int, np.ndarray]:
        """Chunk c's size and, per consumer, the (re, im) means and sums of squared deviations (im 0.0 if real)."""
        batch = draw(min(size, samples - c * size), np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,))))
        moments = np.zeros((2, len(consumers), 2))
        for k, consume in enumerate(consumers):
            values = consume(batch)
            for p, part in enumerate((values.real, values.imag) if np.iscomplexobj(values) else (values,)):
                # shifted by the first value, so constant values have m2 = 0 exactly, as in Welford's update
                dev = part - part[0]
                shift = dev.mean()
                dev -= shift
                moments[:, k, p] = part[0] + shift, np.multiply(dev, dev, out=dev).sum()
        return len(batch), moments

    # Chan, Golub and LeVeque's pairwise update, one chunk at a time in chunk
    # order: the same float operations at any worker count.
    count, mean, m2 = 0, np.zeros((len(consumers), 2)), np.zeros((len(consumers), 2))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for rows, (chunk_mean, chunk_m2) in pool.map(chunk_moments, range(chunks)):
            total = count + rows
            delta = chunk_mean - mean
            mean += delta * (rows / total)
            m2 += chunk_m2 + delta * delta * (count * rows / total)
            count = total
    return [_report(mu, sq, samples, complex(x), seed) for mu, sq, x in zip(mean, m2, exact)]


def sample_density_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n, n) stack of flat-ensemble density matrices.

    The stack is a transposed view of an (n, n, count) array. ``rng`` draws
    the real and imaginary parts of G[i, j] for every sample at once, as one
    (2, n, n, count) array. The diagonal and upper triangle of G G^dagger are
    summed into contiguous Re and Im planes, (2, n, n, count), each one row of G
    against itself and the rows below it; the trace adds the Re plane's diagonal
    in index order. Only the diagonal and upper triangle are divided by it: the
    lower triangle is their conjugate, which IEEE division's sign symmetry makes
    the quotient of the conjugate. The result is therefore exactly Hermitian,
    with an imaginary diagonal of +0.0. Traces of G G^dagger are strictly
    positive in exact arithmetic; samples that underflow to zero are redrawn.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")

    def build(rows: int) -> np.ndarray:
        """(rows, 2, n, n) view of G G^dagger's upper-triangle Re and Im planes, for ``rows`` fresh draws of G."""
        z = rng.standard_normal((2, n, n, rows))
        if rows == 1:  # einsum drops a length-1 sample axis and sums in another order; a zero partner does not
            z = np.concatenate((z, np.zeros_like(z)), axis=-1)
        x, y = z
        # contiguous outputs: einsum sums into strided ones through its generic loop, at half the speed
        planes = np.empty(z.shape)
        re, im = planes
        for i in range(n):
            np.einsum("pjs,pjs->s", z[:, i], z[:, i], out=re[i, i])
            # row i against rows k > i: Re = x_i.x_k + y_i.y_k, Im = y_i.x_k - x_i.y_k
            np.einsum("pjs,pkjs->ks", z[:, i], z[:, i + 1 :], out=re[i, i + 1 :])
            np.einsum("js,kjs->ks", y[i], x[i + 1 :], out=im[i, i + 1 :])
            im[i, i + 1 :] -= np.einsum("js,kjs->ks", x[i], y[i + 1 :])
        return planes.transpose(3, 0, 1, 2)[:rows]

    def trace(planes: np.ndarray) -> np.ndarray:
        """The Re plane's diagonal added in index order, as einsum("sii->s") adds it."""
        total = planes[:, 0, 0, 0].copy()
        for i in range(1, n):
            total += planes[:, 0, i, i]
        return total

    planes = build(count)
    traces = _redraw_underflowed(planes, trace, build)
    re, im = planes.transpose(1, 2, 3, 0)
    rho = np.empty((n, n, count), dtype=complex)
    for i in range(n):
        np.divide(re[i, i:], traces, out=rho.real[i, i:])
        rho.imag[i, i] = 0.0
        np.divide(im[i, i + 1 :], traces, out=rho.imag[i, i + 1 :])
        np.conjugate(rho[i, i + 1 :], out=rho[i + 1 :, i])
    return rho.transpose(2, 0, 1)


def _entry_product(spec: EntryMomentSpec, batch: np.ndarray) -> np.ndarray:
    """The product of ``spec``'s entries in each sample, one complex multiply at a time in real arithmetic."""
    (i, j), *rest = [(i - 1, j - 1) for i, j in spec.pairs]
    value = batch[:, i, j].copy()
    re, im = value.real, value.imag
    for i, j in rest:
        x, y = batch[:, i, j].real, batch[:, i, j].imag
        re[:], im[:] = re * x - im * y, re * y + im * x
    return value


def _purity(batch: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each sample."""
    return np.einsum("sij,sji->s", batch, batch).real


def _entry_reports(
    specs: Sequence[EntryMomentSpec], exact: Sequence[complex], samples: int, seed: int, workers: int
) -> list[EstimateReport]:
    """Estimate several entry moments from one shared sample stream, each against its ``exact`` value."""
    n = specs[0].dimension if specs else 1
    if any(s.dimension != n for s in specs):
        raise ValueError("all specs must share one dimension")
    consumers = [partial(_entry_product, s) for s in specs]
    return _estimate(partial(sample_density_batch, n), n * n, consumers, exact, samples, seed, workers)


def estimate_entry_moments(
    specs: Sequence[EntryMomentSpec],
    samples: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[EstimateReport]:
    """Estimate several entry moments from one shared sample stream."""
    return _entry_reports(specs, [quantum.entry_moment(s) for s in specs], samples, seed, workers)


def estimate_purity(n: int, samples: int, seed: int, *, workers: int = 1) -> EstimateReport:
    """Sample mean of tr(rho^2) against the exact ensemble purity."""
    draw = partial(sample_density_batch, n)
    return _estimate(draw, n * n, [_purity], [quantum.purity_mean(n)], samples, seed, workers)[0]


def estimate_mgf(
    a: np.ndarray, truncation: int, samples: int, seed: int, *, workers: int = 1
) -> EstimateReport:
    """Sample mean of the series sum_{k <= truncation} t^k / k! at t = tr(A rho), by Horner's rule.

    ``a`` must be Hermitian to within 1e-12 per entry. The mean's expectation is exactly the target
    sum_k ``mgf_coefficient(k, a)``, so no truncation bias limits ``a``. A truncation above 170,
    where k! no longer converts to a float weight 1/k!, is refused before any draw.
    """
    (a,), n = quantum._validated_observables([a])
    if not np.allclose(a, a.conj().T, rtol=0, atol=1e-12):
        raise ValueError("a must be Hermitian")
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    try:  # Horner's weights, computed before any draw
        weights = [1.0 / math.factorial(k) for k in range(truncation + 1)]
    except OverflowError as exc:
        raise ValueError(f"truncation {truncation} is above 170: k! past 170 does not convert to a float") from exc
    series = sum(mgf_coefficient(k, a) for k in range(truncation + 1))

    def consume(batch: np.ndarray) -> np.ndarray:
        # t = Re tr(A rho), with Re(A_ij rho_ji) = Re A_ij Re rho_ji - Im A_ij Im rho_ji
        t = np.einsum("ij,sji->s", a.real, batch.real) - np.einsum("ij,sji->s", a.imag, batch.imag)
        value = np.full(len(t), weights[truncation])
        for k in range(truncation - 1, -1, -1):
            value = value * t + weights[k]
        return value

    return _estimate(partial(sample_density_batch, n), n * n, [consume], [series], samples, seed, workers)[0]


def _float_targets(exact, scale, power: int, count: int) -> tuple[complex, float, float]:
    """The exact target, the scale and scale^power / count! as floats, or a ValueError.

    A nonzero target below 2^-511 is refused too: its square, the scale of the
    squared deviations, is no longer a normal float, so its z-score would read 0.
    """
    if 0 < abs(exact) < Fraction(1, 1 << 511):
        raise ValueError("the exact value is too small for a float z-score")
    try:
        return complex(exact), float(scale), float(scale) ** power / math.factorial(count)
    except OverflowError as exc:
        raise ValueError("the exact value or the sample weight does not fit a float") from exc


def _monomial(weight: float, exponents: Sequence[int], coords: np.ndarray) -> np.ndarray:
    """weight * prod_b coords[:, b] ** exponents[b] for each sample row, each power a product of its factors."""
    value = np.full(coords.shape[0], weight)
    for column, e in zip(coords.T, exponents):
        if e:
            value *= reduce(np.multiply, [column] * e)
    return value


def estimate_simplex_moment(
    spec: SimplexMomentSpec, samples: int, seed: int, *, workers: int = 1
) -> EstimateReport:
    """Monte Carlo value of the simplex moment integral.

    Per-sample values are scaled by the simplex volume under the delta
    convention, scale^(N_b-1)/(N_b-1)!, so their mean estimates the integral
    itself.
    """
    n_b = len(spec.exponents)
    exact, _, weight = _float_targets(classical.simplex_moment(spec), spec.scale, spec.degree(), n_b - 1)

    consume = partial(_monomial, weight, spec.exponents)
    return _estimate(partial(sample_simplex_batch, n_b), n_b, [consume], [exact], samples, seed, workers)[0]


def estimate_dirichlet_moment(
    spec: DirichletSpec, samples: int, seed: int, *, workers: int = 1
) -> EstimateReport:
    """Monte Carlo value of the Dirichlet integral over {sum(x) < scale}.

    Points uniform on the solid simplex are the leading N_B coordinates of
    points uniform on the (N_B+1)-component boundary simplex; the region
    volume scale^N_B / N_B! converts the sample mean into the integral.
    Each power is a product of its factors, so a weight power above
    ``MAX_FACTORIAL_ARG`` is refused with ``CapExceededError`` before any draw.
    """
    if spec.weight_power > MAX_FACTORIAL_ARG:
        raise CapExceededError(f"weight power {spec.weight_power} is above the Monte Carlo limit {MAX_FACTORIAL_ARG}")
    n_big = len(spec.exponents)
    exact, lam, volume = _float_targets(classical.dirichlet_moment(spec), spec.scale, n_big, n_big)

    def consume(batch: np.ndarray) -> np.ndarray:
        coords = lam * batch[:, :n_big]
        columns = np.column_stack((coords, classical._row_sums(coords)))  # the last is the weight's (sum x)
        return _monomial(volume, (*spec.exponents, spec.weight_power), columns)

    draw = partial(sample_simplex_batch, n_big + 1)
    return _estimate(draw, n_big + 1, [consume], [exact], samples, seed, workers)[0]


def _positive_definite(t: float, batch: np.ndarray) -> np.ndarray:
    """1.0 for each sample whose rho - t I is positive definite, else 0.0.

    Gaussian elimination on the lower triangle, samples last, in real arithmetic: the
    matrix is positive definite when every pivot (the diagonal of its LDL*) is positive.
    """
    x, y = batch.real.transpose(1, 2, 0).copy(), batch.imag.transpose(1, 2, 0).copy()
    ok = np.ones(len(batch), dtype=bool)
    with np.errstate(all="ignore"):  # a sample past a non-positive pivot is already refused
        for p in range(len(x)):
            x[p, p] -= t
            ok &= x[p, p] > 0.0
            for i in range(p + 1, len(x)):  # A[i, k] -= A[i, p] conj(A[k, p]) / A[p, p] for p < k <= i
                u, v = x[i, p] / x[p, p], y[i, p] / x[p, p]
                x[i, p + 1 : i + 1] -= u * x[p + 1 : i + 1, p] + v * y[p + 1 : i + 1, p]
                y[i, p + 1 : i] -= v * x[p + 1 : i, p] - u * y[p + 1 : i, p]
    return ok.astype(float)


def lambda_min_law(n: int, t) -> Fraction:
    """P(lambda_min(rho) > t) = (1 - N t)^(N^2 - 1) over the flat N x N ensemble, for t in [0, 1/N).

    tr W ~ Gamma(N^2) is independent of rho = W / tr W (Zyczkowski and Sommers 2001), and
    lambda_min(W) is exponential with rate N (Edelman 1988), so N lambda_min(rho) ~ Beta(1, N^2 - 1).
    """
    t = Fraction(t)
    if n < 1 or not 0 <= t < Fraction(1, n):
        raise ValueError(f"the law needs N >= 1 and t in [0, 1/N), got N = {n}, t = {t}")
    return (1 - n * t) ** (n * n - 1)


def estimate_lambda_min_law(
    n: int, points: Sequence, samples: int, seed: int, *, workers: int = 1
) -> list[EstimateReport]:
    """Sample fraction of lambda_min(rho) > t against ``lambda_min_law(n, t)``, for each t in ``points``.

    Each t is compared as ``float(t)``, and its target is the law at that float.
    """
    points = [float(t) for t in points]
    consumers = [partial(_positive_definite, t) for t in points]
    exact = [lambda_min_law(n, t) for t in points]
    return _estimate(partial(sample_density_batch, n), n * n, consumers, exact, samples, seed, workers)
