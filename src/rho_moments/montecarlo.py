"""Monte Carlo verification oracle for the exact moment engines.

Density matrices are drawn as rho = G G^dagger / tr(G G^dagger) with G a
square matrix of independent standard complex Gaussians; that normalization
realizes the flat trace-one ensemble, which the purity, entry-moment, and
eigenvalue-law checks validate rather than assume. The Gram product is built in
real arithmetic from the real and imaginary parts of G, with the samples on the
last axis. No sampler or consumer step applies BLAS, LAPACK, a complex ufunc
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
count changes only the speed.
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
from .quantum import EntryMomentSpec, mgf_coefficient

__all__ = [
    "MIN_SAMPLES",
    "EstimateReport",
    "sample_density",
    "sample_density_batch",
    "estimate_entry_moment",
    "estimate_entry_moments",
    "estimate_purity",
    "estimate_mgf",
    "estimate_simplex_moment",
    "estimate_dirichlet_moment",
    "lambda_min_law",
    "estimate_lambda_min_law",
]

# A chunk holds _CHUNK_ENTRIES sample entries, or one sample if that is wider:
# its Gaussian draw and its Gram array are then 1 MiB each and stay in cache
# (16384 samples at n = 2, 7281 at n = 3, 1024 at n = 8). The size depends on
# the sample width alone, because chunk boundaries fix the streams.
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
    (2, n, n, count) array. The result is exactly Hermitian, with an exactly
    zero imaginary diagonal. Traces of G G^dagger are strictly positive in exact
    arithmetic; samples that underflow to zero are redrawn.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")

    def build(rows: int) -> np.ndarray:
        """G G^dagger for ``rows`` fresh draws of G, summed in real arithmetic with the samples last."""
        z = rng.standard_normal((2, n, n, rows))
        if rows == 1:  # einsum drops a length-1 sample axis and sums in another order; a zero partner does not
            z = np.concatenate((z, np.zeros_like(z)), axis=-1)
        x, y = z
        gram = np.empty(z.shape[1:], dtype=complex)
        re, im = gram.real, gram.imag
        for i in range(n):
            np.einsum("pjs,pjs->s", z[:, i], z[:, i], out=re[i, i])
            im[i, i] = 0.0
            # row i against rows k > i: Re = x_i.x_k + y_i.y_k, Im = y_i.x_k - x_i.y_k
            np.einsum("pjs,pkjs->ks", z[:, i], z[:, i + 1 :], out=re[i, i + 1 :])
            np.einsum("js,kjs->ks", y[i], x[i + 1 :], out=im[i, i + 1 :])
            im[i, i + 1 :] -= np.einsum("js,kjs->ks", x[i], y[i + 1 :])
            np.conjugate(gram[i, i + 1 :], out=gram[i + 1 :, i])
        return gram.transpose(2, 0, 1)[:rows]

    gram = build(count)
    traces = _redraw_underflowed(gram, lambda g: np.einsum("sii->s", g).real, build)[:, None, None]
    np.divide(gram.real, traces, out=gram.real)
    np.divide(gram.imag, traces, out=gram.imag)
    return gram


def sample_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n density matrix from the flat ensemble."""
    return sample_density_batch(n, 1, rng)[0]


def _entry_reports(
    specs: Sequence[EntryMomentSpec], exact: Sequence[complex], samples: int, seed: int, workers: int
) -> list[EstimateReport]:
    """Estimate several entry moments from one shared sample stream, each against its ``exact`` value."""
    if not specs:
        return []
    n = specs[0].dimension
    if any(s.dimension != n for s in specs):
        raise ValueError("all specs must share one dimension")

    def make_consumer(spec: EntryMomentSpec) -> Callable[[np.ndarray], np.ndarray]:
        idx = [(i - 1, j - 1) for i, j in spec.pairs]

        def consume(batch: np.ndarray) -> np.ndarray:
            value = batch[:, idx[0][0], idx[0][1]].copy()
            re, im = value.real, value.imag
            for i, j in idx[1:]:
                x, y = batch[:, i, j].real, batch[:, i, j].imag
                re[:], im[:] = re * x - im * y, re * y + im * x
            return value

        return consume

    consumers = [make_consumer(s) for s in specs]
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


def estimate_entry_moment(
    spec: EntryMomentSpec, samples: int, seed: int, *, workers: int = 1
) -> EstimateReport:
    """Sample mean of prod_p rho[i_p, j_p] against the exact engine value."""
    return estimate_entry_moments([spec], samples, seed, workers=workers)[0]


def estimate_purity(n: int, samples: int, seed: int, *, workers: int = 1) -> EstimateReport:
    """Sample mean of tr(rho^2) against the exact ensemble purity."""
    exact = quantum.purity_mean(n)

    def consume(batch: np.ndarray) -> np.ndarray:
        return np.einsum("sij,sji->s", batch, batch).real

    return _estimate(partial(sample_density_batch, n), n * n, [consume], [exact], samples, seed, workers)[0]


def estimate_mgf(
    a: np.ndarray, truncation: int, samples: int, seed: int, *, workers: int = 1
) -> EstimateReport:
    """Sample mean of the series sum_{k <= truncation} t^k / k! at t = tr(A rho), by Horner's rule.

    ``a`` must be Hermitian to within 1e-12 per entry. The mean's expectation is exactly the target
    sum_k ``mgf_coefficient(k, a)``, so no truncation bias limits ``a``.
    """
    (a,), n = quantum._validated_observables([a])
    if not np.allclose(a, a.conj().T, rtol=0, atol=1e-12):
        raise ValueError("a must be Hermitian")
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    series = sum(mgf_coefficient(k, a) for k in range(truncation + 1))

    def consume(batch: np.ndarray) -> np.ndarray:
        # t = Re tr(A rho), with Re(A_ij rho_ji) = Re A_ij Re rho_ji - Im A_ij Im rho_ji
        t = np.einsum("ij,sji->s", a.real, batch.real) - np.einsum("ij,sji->s", a.imag, batch.imag)
        value = np.full(len(t), 1.0 / math.factorial(truncation))
        for k in range(truncation - 1, -1, -1):
            value = value * t + 1.0 / math.factorial(k)
        return value

    return _estimate(partial(sample_density_batch, n), n * n, [consume], [series], samples, seed, workers)[0]


def _float_targets(exact, scale, power: int, count: int) -> tuple[complex, float, float]:
    """The exact target, the scale and scale^power / count! as floats, or a ValueError."""
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
    """
    n_big = len(spec.exponents)
    exact, lam, volume = _float_targets(classical.dirichlet_moment(spec), spec.scale, n_big, n_big)

    def consume(batch: np.ndarray) -> np.ndarray:
        coords = lam * batch[:, :n_big]
        columns = np.column_stack((coords, coords.sum(axis=1)))  # the last is the weight's (sum x)
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
