import functools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oracles import density_oracle, strided_density_batch
from rho_moments import montecarlo, verify
from rho_moments.montecarlo import (
    MIN_SAMPLES,
    estimate_dirichlet_moment,
    estimate_entry_moments,
    estimate_lambda_min_law,
    estimate_mgf,
    estimate_purity,
    estimate_simplex_moment,
    lambda_min_law,
    sample_density_batch,
)
from rho_moments.classical import SimplexMomentSpec, DirichletSpec
from rho_moments.combinat import MAX_FACTORIAL_ARG
from rho_moments.errors import CapExceededError
from rho_moments.quantum import EntryMomentSpec, mgf_coefficient


class Replay:
    """Stands in for a Generator: ``standard_normal`` hands out copies of the given draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        z = self.draws.pop(0)
        assert z.shape == shape
        return z.copy()


def haar_like_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestSampleDensity:
    def test_single_point_ensemble(self):
        rng = np.random.default_rng(0)
        rho = sample_density_batch(1, 1, rng)[0]
        assert rho.shape == (1, 1)
        assert rho[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
    def test_invariants_hold_in_bulk(self, n):
        rng = np.random.default_rng(100 + n)
        batch = sample_density_batch(n, 100_000, rng)
        assert float(np.abs(batch - batch.conj().transpose(0, 2, 1)).max()) <= 1e-12
        assert float(np.abs(np.einsum("sii->s", batch) - 1.0).max()) <= 1e-12
        assert float(np.linalg.eigvalsh(batch).min()) >= -1e-10

    @pytest.mark.parametrize("n", (1, 2, 3, 8))
    def test_matches_gram_of_complex_gaussians_bit_for_bit(self, n):
        # the sampler draws Re and Im of G[i, j] as one (2, n, n, count) array and
        # sums each entry of G G^H in real arithmetic over the row pair
        batch = sample_density_batch(n, 1000, np.random.default_rng(n))
        z = np.random.default_rng(n).standard_normal((2, n, n, 1000))
        x, y = z
        gram = np.empty((1000, n, n), dtype=complex)
        for i in range(n):
            for k in range(i, n):
                gram[:, i, k].real = np.einsum("pjs,pjs->s", z[:, i], z[:, k])
                gram[:, i, k].imag = np.einsum("js,js->s", y[i], x[k]) - np.einsum("js,js->s", x[i], y[k])
                gram[:, k, i] = np.conjugate(gram[:, i, k])
            gram[:, i, i].imag = 0.0
        traces = np.einsum("sii->s", gram).real[:, None, None]
        expected = np.empty_like(gram)
        expected.real, expected.imag = gram.real / traces, gram.imag / traces
        assert batch.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_complex_gram_oracle(self, n):
        z = np.random.default_rng(200 + n).standard_normal((2, n, n, 2000))
        batch = sample_density_batch(n, 2000, Replay(z))
        # each trace is 1, so this bound is relative to the matrix scale
        assert float(np.abs(batch - density_oracle(z)).max()) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_the_strided_kernel_bytewise(self, n):
        # the plane sums, the column-add trace and the upper-triangle division keep every bit
        chunk = max(1, montecarlo._CHUNK_ENTRIES // (n * n))
        rng = np.random.default_rng(500 + n)
        for rows in (1, 2, 9, chunk - 1, chunk):
            z = rng.standard_normal((2, n, n, rows))
            got = sample_density_batch(n, rows, Replay(z)).tobytes()
            assert (rows, got) == (rows, strided_density_batch(n, rows, Replay(z)).tobytes())

    @pytest.mark.parametrize("n", (1, 3, 8))
    def test_redraws_match_the_strided_kernel_bytewise(self, n):
        rng = np.random.default_rng(600 + n)
        draws = [rng.standard_normal((2, n, n, rows)) for rows in (9, 2, 1)]
        draws[0][..., [0, 4]] = 0.0  # samples 0 and 4 underflow,
        draws[1][..., 0] = 0.0  # and sample 0's first redraw does too, so it is drawn alone
        replay = Replay(*draws)
        batch = sample_density_batch(n, 9, replay)
        assert replay.draws == []
        assert batch.tobytes() == strided_density_batch(n, 9, Replay(*draws)).tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_is_exactly_hermitian(self, n):
        rho = sample_density_batch(n, 2000, np.random.default_rng(300 + n))
        adjoint = rho.conj().transpose(0, 2, 1)
        off = ~np.eye(n, dtype=bool)
        assert rho[:, off].tobytes() == adjoint[:, off].tobytes()
        # the diagonal is real, with an imaginary part of +0.0 (its adjoint has -0.0)
        diagonal = np.einsum("sii->si", rho)
        assert diagonal.imag.tobytes() == np.zeros(diagonal.shape).tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_one_sample_matches_the_first_of_a_batch(self, n):
        z = np.random.default_rng(400 + n).standard_normal((2, n, n, 9))
        one = sample_density_batch(n, 1, Replay(z[..., :1].copy()))
        assert one.shape == (1, n, n)
        assert one.tobytes() == sample_density_batch(n, 9, Replay(z))[:1].tobytes()

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_underflowed_row_is_redrawn(self, n):
        rng = np.random.default_rng(n)
        first, second = rng.standard_normal((2, n, n, 5)), rng.standard_normal((2, n, n, 1))
        first[..., 0] = 0.0  # sample 0's trace underflows, so it alone is drawn again
        replay = Replay(first, second)
        batch = sample_density_batch(n, 5, replay)
        assert replay.draws == []
        rho = batch[0]
        assert float(np.abs(rho - rho.conj().T).max()) <= 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        # the redraw is written through the stack's view into sample 0 and leaves the others
        spliced = first.copy()
        spliced[..., :1] = second
        assert batch.tobytes() == sample_density_batch(n, 5, Replay(spliced)).tobytes()
        np.testing.assert_allclose(batch, density_oracle(spliced), rtol=0, atol=1e-15)

    def test_mean_diagonal_entry(self):
        rng = np.random.default_rng(7)
        batch = sample_density_batch(3, 200_000, rng)
        values = batch[:, 0, 0].real
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - 1 / 3) <= 4 * se

    def test_unitary_invariance(self):
        # the flat measure is conjugation-invariant: E[rho11] computed on a
        # rotated independent stream must agree with the unrotated one
        rng_u = np.random.default_rng(42)
        u = haar_like_unitary(2, rng_u)
        a = sample_density_batch(2, 200_000, np.random.default_rng(1))[:, 0, 0].real
        rotated = np.einsum(
            "ij,sjk,km->sim", u, sample_density_batch(2, 200_000, np.random.default_rng(2)), u.conj().T
        )
        b = rotated[:, 0, 0].real
        se = np.hypot(a.std(ddof=1) / np.sqrt(a.size), b.std(ddof=1) / np.sqrt(b.size))
        assert abs(a.mean() - b.mean()) <= 4 * se


# Hex SHA-256 of sample_density_batch(n, 1000, default_rng(n)) for each n, of
# the lambda_min > 1/54 indicator on the n = 3 batch, then of the repr of every
# estimator's report at seeds 1-4, one per line.
REPORT_HASHES = """
import hashlib, numpy as np
from fractions import Fraction
from rho_moments.classical import DirichletSpec, SimplexMomentSpec
from rho_moments.montecarlo import *
from rho_moments.montecarlo import _positive_definite
from rho_moments.quantum import EntryMomentSpec as Spec
for n in (1, 2, 3, 8):
    print(hashlib.sha256(sample_density_batch(n, 1000, np.random.default_rng(n)).tobytes()).hexdigest())
print(hashlib.sha256(_positive_definite(1 / 54, sample_density_batch(3, 1000, np.random.default_rng(3))).tobytes()).hexdigest())
a = np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.4]])
for seed in (1, 2, 3, 4):
    for report in [
        *estimate_entry_moments([Spec(2, ((1, 1),))], 65537, seed),
        *estimate_entry_moments([Spec(2, ((1, 2), (2, 1))), Spec(2, ((1, 2), (2, 2), (2, 1)))], 65537, seed),
        estimate_purity(3, 65537, seed),
        estimate_mgf(a, 6, 65537, seed),
        estimate_simplex_moment(SimplexMomentSpec((3, 0, 4)), 65537, seed),
        estimate_dirichlet_moment(DirichletSpec((1, 0), 1, 3), 65537, seed),
        *estimate_lambda_min_law(3, [Fraction(1, 54), Fraction(1, 27)], 65537, seed),
    ]:
        print(hashlib.sha256(repr(report).encode()).hexdigest())
"""


@pytest.mark.parametrize(
    "setting",
    [
        {"OPENBLAS_CORETYPE": "SandyBridge"},
        # names missing from a build's dispatch list only warn; X86_V2 is the baseline and stays
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
    ],
    ids=["openblas-sandybridge", "numpy-avx2", "numpy-no-avx2"],
)
def test_report_bits_do_not_depend_on_blas_or_simd_dispatch(setting, capsys):
    package_root = str(Path(montecarlo.__file__).parents[1])
    env = dict(os.environ, **setting)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-c", REPORT_HASHES], env=env, capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    exec(REPORT_HASHES, {})
    assert fresh.stdout == capsys.readouterr().out


@pytest.mark.parametrize(
    "estimate",
    [
        lambda m: estimate_entry_moments([EntryMomentSpec(2, ((1, 1),))], m, seed=1)[0],
        lambda m: estimate_entry_moments([EntryMomentSpec(2, ((1, 2), (2, 1)))], m, seed=1)[0],
        lambda m: estimate_purity(2, m, seed=1),
        lambda m: estimate_mgf(np.diag([0.1, -0.1]), 6, m, seed=1),
        lambda m: estimate_simplex_moment(SimplexMomentSpec((2, 0, 1)), m, seed=1),
        lambda m: estimate_dirichlet_moment(DirichletSpec((1, 0)), m, seed=1),
        lambda m: estimate_lambda_min_law(2, [Fraction(1, 16)], m, seed=1)[0],
    ],
    ids=["entry", "entries", "purity", "mgf", "simplex", "dirichlet", "lambda-min"],
)
def test_requires_minimum_samples(estimate):
    with pytest.raises(ValueError, match="at least"):
        estimate(MIN_SAMPLES - 1)
    assert estimate(MIN_SAMPLES).sample_count == MIN_SAMPLES


@pytest.mark.parametrize(
    "estimate,spec",
    [
        (estimate_simplex_moment, SimplexMomentSpec((1, 2), Fraction(10) ** 400)),
        (estimate_simplex_moment, SimplexMomentSpec((400,), 10)),
        (estimate_dirichlet_moment, DirichletSpec((1, 2), Fraction(10) ** 400)),
        (estimate_dirichlet_moment, DirichletSpec((400,), 10)),
        # below 2^-511 the squared deviations underflow, so the z-score would read 0
        (estimate_simplex_moment, SimplexMomentSpec((1, 2), Fraction(1, 10**400))),
        (estimate_simplex_moment, SimplexMomentSpec((400, 400))),
        (estimate_dirichlet_moment, DirichletSpec((1, 2), Fraction(1, 10**400))),
        (estimate_dirichlet_moment, DirichletSpec((400, 400))),
    ],
    ids=[
        "simplex-scale", "simplex-value", "dirichlet-scale", "dirichlet-value",
        "simplex-tiny-scale", "simplex-tiny-value", "dirichlet-tiny-scale", "dirichlet-tiny-value",
    ],
)
def test_simplex_targets_beyond_float_range_are_value_errors(estimate, spec):
    with pytest.raises(ValueError, match="float"):
        estimate(spec, MIN_SAMPLES, seed=1)


def test_float_targets_refuse_below_two_to_the_minus_511_only():
    # 2^-511 itself squares to 2^-1022, the least normal float, so it is the smallest target kept
    least = Fraction(1, 1 << 511)
    assert montecarlo._float_targets(least, 1, 0, 0) == (complex(least), 1.0, 1.0)
    with pytest.raises(ValueError, match="too small for a float z-score"):
        montecarlo._float_targets(Fraction(1, (1 << 511) + 1), 1, 0, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample_density_batch(0, 3, np.random.default_rng(0)), "n must be positive"),
        (lambda: sample_density_batch(2, -1, np.random.default_rng(0)), "count must be non-negative"),
        (
            lambda: estimate_entry_moments([EntryMomentSpec(2, ((1, 1),)), EntryMomentSpec(3, ((1, 1),))], MIN_SAMPLES, 1),
            "all specs must share one dimension",
        ),
        (lambda: estimate_mgf(np.eye(2), -1, MIN_SAMPLES, 1), "truncation must be non-negative"),
    ],
    ids=["density-n", "density-count", "mixed-dimensions", "truncation"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_no_entry_specs_give_no_reports(monkeypatch):
    assert estimate_entry_moments([], MIN_SAMPLES, 1) == []

    def refuse(*args):
        raise AssertionError("sampled with nothing to estimate")

    monkeypatch.setattr(montecarlo, "sample_density_batch", refuse)
    assert estimate_entry_moments([], 1_000_000, 1) == []
    with pytest.raises(ValueError, match="at least"):
        estimate_entry_moments([], MIN_SAMPLES - 1, 1)


def test_no_lambda_min_points_draw_no_samples(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled with nothing to estimate")

    monkeypatch.setattr(montecarlo, "sample_density_batch", refuse)
    assert estimate_lambda_min_law(3, [], 1_000_000, 1) == []
    with pytest.raises(ValueError, match="at least"):
        estimate_lambda_min_law(3, [], MIN_SAMPLES - 1, 1)


class TestEstimatorDeterminism:
    def test_single_thread_bit_identical(self):
        spec = EntryMomentSpec(2, ((1, 2), (2, 1)))
        first = estimate_entry_moments([spec], 20_000, seed=5)
        second = estimate_entry_moments([spec], 20_000, seed=5)
        assert first == second

    def test_two_workers_bit_identical(self):
        spec = EntryMomentSpec(2, ((1, 1),))
        a = estimate_entry_moments([spec], 20_000, seed=5, workers=2)
        b = estimate_entry_moments([spec], 20_000, seed=5, workers=2)
        assert a == b

    def test_simplex_estimator_deterministic(self):
        spec = SimplexMomentSpec((2, 0, 1))
        a = estimate_simplex_moment(spec, 20_000, seed=9)
        b = estimate_simplex_moment(spec, 20_000, seed=9)
        assert a == b


# Every public estimator as reports(samples, workers).
WORKER_ESTIMATORS = {
    "entry": lambda m, w: estimate_entry_moments([EntryMomentSpec(2, ((1, 1),))], m, 1, workers=w),
    "entries": lambda m, w: estimate_entry_moments(
        [EntryMomentSpec(2, ((1, 2), (2, 1))), EntryMomentSpec(2, ((1, 1), (1, 1)))], m, 1, workers=w
    ),
    "purity": lambda m, w: [estimate_purity(3, m, 1, workers=w)],
    "mgf": lambda m, w: [estimate_mgf(np.diag([0.1, -0.1]), 6, m, 1, workers=w)],
    "simplex": lambda m, w: [estimate_simplex_moment(SimplexMomentSpec((2, 0, 1)), m, 1, workers=w)],
    "dirichlet": lambda m, w: [estimate_dirichlet_moment(DirichletSpec((1, 0), 1, 2), m, 1, workers=w)],
    "lambda-min": lambda m, w: estimate_lambda_min_law(3, [Fraction(1, 54), Fraction(1, 18)], m, 1, workers=w),
}


class TestSeedAloneFixesReports:
    """Chunk c has its own stream, so the worker count changes only the speed."""

    @pytest.mark.parametrize("samples", (100, 65537, 200_000))
    @pytest.mark.parametrize("name", WORKER_ESTIMATORS)
    def test_worker_count_leaves_reports_unchanged(self, name, samples):
        reports = WORKER_ESTIMATORS[name]
        one = reports(samples, 1)
        assert reports(samples, 2) == one
        assert reports(samples, 3) == one

    def test_verify_suite_is_independent_of_workers(self):
        assert verify.run_suite("all", 70001, 7, 1) == verify.run_suite("all", 70001, 7, 2)

    @pytest.mark.parametrize("cpus", (None, 1000), ids=("machine-cpus", "many-cpus"))
    def test_pool_is_clamped_to_cpus_and_chunks(self, monkeypatch, cpus):
        sizes = []

        class SerialPool:
            # stands in for ThreadPoolExecutor and starts no thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        if cpus is not None:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = EntryMomentSpec(2, ((1, 2), (2, 1)))
        one = estimate_entry_moments([spec], 200_000, seed=3, workers=1)
        many = estimate_entry_moments([spec], 200_000, seed=3, workers=1000)
        # 200000 samples of a 2 x 2 matrix are 13 chunks of at most 2**16 / 4
        assert sizes == [1, min(os.cpu_count() or 1, 13)]
        assert many == one

    def test_chunks_are_sized_by_matrix_entries(self, monkeypatch):
        counts = []
        draw = montecarlo.sample_density_batch

        def recording(n, count, rng):
            counts.append((n, count))
            return draw(n, count, rng)

        monkeypatch.setattr(montecarlo, "sample_density_batch", recording)
        estimate_purity(8, 2**11 + 1, seed=1, workers=1)
        estimate_purity(4, 2**12 + 1, seed=1, workers=1)
        estimate_purity(3, 7282, seed=1, workers=1)
        # at most 2**16 entries per chunk: 2**10 samples of 8 x 8, 2**12 of 4 x 4, 7281 of 3 x 3
        assert counts == [(8, 2**10), (8, 2**10), (8, 1), (4, 2**12), (4, 1), (3, 7281), (3, 1)]


class TestVerifySharesOneStream:
    """The sampler suite reads purity-mc-n2 and both entry checks from one N = 2 stream."""

    def test_one_n2_stream_gives_the_reports_of_separate_calls(self, monkeypatch):
        drawn = {}
        draw = montecarlo.sample_density_batch

        def recording(n, count, rng):
            drawn[n] = drawn.get(n, 0) + count
            return draw(n, count, rng)

        monkeypatch.setattr(montecarlo, "sample_density_batch", recording)
        results = {r.name: r for r in verify.run_suite("sampler", 5000, 7, 1)}
        # N = 2: the invariants, the shared stream, the law and the control's 10000; N = 3: invariants, purity, law
        assert drawn == {2: 25000, 3: 15000}
        monkeypatch.setattr(montecarlo, "sample_density_batch", draw)
        assert results["purity-mc-n2"] == verify._z_check("purity-mc-n2", estimate_purity(2, 5000, 7 + 502))
        specs = [EntryMomentSpec(2, ((1, 2), (2, 1))), EntryMomentSpec(2, ((1, 1), (1, 1)))]
        offdiag, diag = estimate_entry_moments(specs, 5000, 7 + 502)
        assert results["entry-mc-offdiag-1/10"] == verify._z_check("entry-mc-offdiag-1/10", offdiag)
        assert results["entry-mc-diag-3/10"] == verify._z_check("entry-mc-diag-3/10", diag)

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_shared_checks_pass_at_the_benchmark_seeds(self, seed):
        # the benchmark's verify seed pool at its own 1e6 samples
        names = ("purity-mc-n2", "entry-mc-offdiag-1/10", "entry-mc-diag-3/10")
        results = [r for r in verify.run_suite("sampler", 1_000_000, seed, 2) if r.name in names]
        assert [(r.name, r.passed) for r in results] == [(name, True) for name in names]

    def test_no_stream_crosses_suites(self):
        alone = [r for suite in ("classical", "quantum", "sampler") for r in verify.run_suite(suite, 1000, 1, 1)]
        assert verify.run_suite("all", 1000, 1, 1) == alone


class TestEstimateEntryMoment:
    def test_offdiagonal_golden(self):
        (report,) = estimate_entry_moments([EntryMomentSpec(2, ((1, 2), (2, 1)))], 500_000, seed=21)
        assert report.exact_value == pytest.approx(0.1)
        assert report.z_score <= 4.0

    def test_diagonal_third(self):
        (report,) = estimate_entry_moments([EntryMomentSpec(3, ((1, 1),))], 200_000, seed=22)
        assert report.exact_value == pytest.approx(1 / 3)
        assert report.z_score <= 4.0

    def test_shared_stream_reports(self):
        specs = [
            EntryMomentSpec(2, ((1, 1), (1, 1))),
            EntryMomentSpec(2, ((1, 2), (2, 1))),
        ]
        reports = estimate_entry_moments(specs, 200_000, seed=23)
        assert [r.sample_count for r in reports] == [200_000, 200_000]
        assert all(r.z_score <= 4.0 for r in reports)


class TestEstimateMgf:
    def test_zero_matrix_is_exact(self):
        report = estimate_mgf(np.zeros((2, 2)), 4, 1_000, seed=3)
        assert report.estimate == 1.0 + 0.0j
        assert report.exact_value == pytest.approx(1.0)
        assert report.z_score == 0.0

    def test_truncation_zero_is_the_constant_one(self):
        # the series is its k = 0 term alone, 1/0! = 1, whatever the samples
        report = estimate_mgf(np.diag([0.3, -0.1]), 0, MIN_SAMPLES, seed=3)
        assert report.estimate == 1.0 and report.exact_value == 1.0
        assert report.std_error == 0.0 and report.z_score == 0.0

    def test_small_diagonal(self):
        report = estimate_mgf(np.diag([0.1, -0.1]), 6, 300_000, seed=31)
        assert report.z_score <= 4.0

    def test_random_hermitian(self):
        rng = np.random.default_rng(32)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.2 * (g + g.conj().T) / 2
        report = estimate_mgf(a, 6, 300_000, seed=33)
        assert report.z_score <= 4.0

    def test_large_matrix_is_measured_against_its_truncated_series(self):
        # each sample's truncated series is averaged, not exp(t), so a cut far from exp is no bias
        a = np.diag([3.0, -3.0])
        report = estimate_mgf(a, 4, 200_000, seed=3)
        assert report.exact_value == sum(mgf_coefficient(k, a) for k in range(5))
        assert report.z_score <= 4.0

    def test_truncation_past_the_float_range_is_refused_before_drawing(self, monkeypatch):
        # 171! does not convert to a float, so its weight 1/171! is refused before any draw
        def refuse(*args):
            raise AssertionError("sampled before the truncation was checked")

        monkeypatch.setattr(montecarlo, "sample_density_batch", refuse)
        with pytest.raises(ValueError, match="truncation 171 is above 170"):
            estimate_mgf(0.01 * np.eye(2), 171, 1_000, 1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            estimate_mgf(np.array([[0.0, 1.0], [0.0, 0.0]]), 4, 1_000, seed=3)

    @pytest.mark.parametrize(
        "a, wording",
        [
            ([[np.inf]], "finite entries"),  # gave exact_value nan+nanj and z_score inf
            (np.zeros((0, 0)), "dimension at least 1"),
            (np.zeros((2, 3)), "square matrices"),
            (np.diag([1e200, 1.0]), "the moment does not fit a float"),
        ],
    )
    def test_matrix_refusals(self, a, wording):
        with pytest.raises(ValueError, match=wording):
            estimate_mgf(a, 3, 1_000, seed=1)

    def test_slightly_non_hermitian_rejected(self):
        # 3e-6 is far inside numpy's default relative tolerance, but the exact target gains an
        # imaginary part that no sample of the real t = Re tr(A rho) can match
        with pytest.raises(ValueError, match="a must be Hermitian"):
            estimate_mgf(np.array([[0, 0.3], [0.3 + 3e-6j, 0]]), 6, 20_000, seed=1)


class TestEstimatePurity:
    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_exact(self, n):
        report = estimate_purity(n, 200_000, seed=40 + n)
        assert report.z_score <= 4.0


class TestSimplexEstimators:
    def test_dirichlet_weighted(self):
        report = estimate_dirichlet_moment(
            DirichletSpec((1, 0), weight_power=2), 200_000, seed=51
        )
        assert report.z_score <= 4.0

    def test_weight_power_past_the_limit_is_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(montecarlo, "sample_simplex_batch", no_draw)
        limit = MAX_FACTORIAL_ARG
        with pytest.raises(CapExceededError, match=f"weight power {limit + 1} is above the Monte Carlo limit {limit}"):
            estimate_dirichlet_moment(DirichletSpec((0,), 1, limit + 1), MIN_SAMPLES, seed=1)
        with pytest.raises(AssertionError, match="drew samples"):  # the limit itself is drawn
            estimate_dirichlet_moment(DirichletSpec((0,), 1, limit), MIN_SAMPLES, seed=1)

    def test_point_simplex_zero_variance(self):
        report = estimate_simplex_moment(SimplexMomentSpec((3,)), 1_000, seed=52)
        assert report.estimate == pytest.approx(1.0)
        assert report.std_error == 0.0
        assert report.z_score == 0.0


def real_part_reports(samples, seed):
    """The N = 2 law's reports at t = 1/16, 2/16, 3/16 on Re(rho): real symmetric, trace one, another law."""
    consumers = [functools.partial(montecarlo._positive_definite, j / 16) for j in (1, 2, 3)]
    exact = [lambda_min_law(2, Fraction(j, 16)) for j in (1, 2, 3)]
    draw = lambda count, rng: sample_density_batch(2, count, rng).real  # noqa: E731
    return montecarlo._estimate(draw, 4, consumers, exact, samples, seed, 1)


class TestLambdaMinLaw:
    """N lambda_min(rho) ~ Beta(1, N^2 - 1), read as indicator means through the one reduction."""

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
    def test_consumer_matches_eigvalsh(self, n):
        batch = sample_density_batch(n, 20_000, np.random.default_rng(66 + n))
        smallest = np.linalg.eigvalsh(batch)[:, 0]
        for t in (-1e-10, 0.0, 1 / (4 * n**3), 1 / (2 * n**3), 3 / (2 * n**3), 0.5 / n, 1.0):
            np.testing.assert_array_equal(montecarlo._positive_definite(t, batch), (smallest > t).astype(float))

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_consumer_matches_eigvalsh_on_indefinite_matrices(self, n):
        rng = np.random.default_rng(70 + n)
        g = rng.standard_normal((5000, n, n)) + 1j * rng.standard_normal((5000, n, n))
        batch = g + g.conj().transpose(0, 2, 1)
        smallest = np.linalg.eigvalsh(batch)[:, 0]
        for t in (-2.0, -0.5, 0.0, 0.5):
            np.testing.assert_array_equal(montecarlo._positive_definite(t, batch), (smallest > t).astype(float))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_law_is_the_beta_tail(self, n):
        for j in range(8):
            t = Fraction(j, 8 * n)
            assert float(lambda_min_law(n, t)) == pytest.approx(stats.beta(1, n * n - 1).sf(n * float(t)), rel=1e-12)

    def test_law_at_one_dimension(self):
        assert {lambda_min_law(1, t) for t in (0, 0.5, Fraction(99, 100))} == {1}

    @pytest.mark.parametrize("n, t", [(2, -1e-10), (2, Fraction(-1, 10)), (2, Fraction(1, 2)), (3, 0.5), (8, 1), (0, 0)])
    def test_law_refuses_points_outside_its_domain(self, n, t):
        with pytest.raises(ValueError):
            lambda_min_law(n, t)

    def test_law_accepted(self):
        reports = estimate_lambda_min_law(2, [Fraction(j, 16) for j in (1, 2, 3)], 100_000, seed=61)
        assert [r.exact_value for r in reports] == [complex(lambda_min_law(2, Fraction(j, 16))) for j in (1, 2, 3)]
        assert all(r.z_score <= 4.0 for r in reports)

    def test_law_accepted_at_n8(self):
        # mc-wide's dimension, which verify leaves out for its cost
        reports = estimate_lambda_min_law(8, [Fraction(j, 1024) for j in (1, 2, 3)], 20_000, seed=68, workers=2)
        assert all(r.z_score <= 4.0 for r in reports)

    def test_wrong_sampler_rejected(self):
        assert max(r.z_score for r in real_part_reports(10_000, 62)) > 4.0

    def test_disjoint_seeds_compatible(self):
        for seed in (63, 64):
            reports = estimate_lambda_min_law(3, [Fraction(j, 54) for j in (1, 2, 3)], 50_000, seed)
            assert all(r.z_score <= 4.0 for r in reports)

    def test_chunk_boundary(self):
        # one sample past whole chunks of 2**14 samples at n = 2: the last batch holds a single draw
        [report] = estimate_lambda_min_law(2, [Fraction(1, 8)], 2**15 + 1, seed=65)
        assert report.sample_count == 2**15 + 1
        assert report.z_score <= 4.0

    def test_report_keeps_its_bits(self):
        # float.hex as in PINNED_REPORTS; 1/54 is no binary fraction, so the target is the law at float(1/54)
        [report] = estimate_lambda_min_law(3, [Fraction(1, 54)], PINNED_SAMPLES, 7)
        assert report.exact_value == complex(lambda_min_law(3, 1 / 54))
        assert (report.estimate.real.hex(), report.estimate.imag.hex(), report.std_error.hex(),
                report.exact_value.real.hex(), report.exact_value.imag.hex(), report.z_score.hex()) == PINNED_LAW, PINNED_ON

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_verify_checks_pass_at_the_benchmark_seeds(self, seed):
        # 1e5 samples give the law checks and the control the counts they use at verify's 1e6
        results = [r for r in verify.run_suite("sampler", 100_000, seed, 2) if r.name.startswith("lambda-min-law")]
        assert [(r.name, r.passed) for r in results] == [
            ("lambda-min-law-n2", True), ("lambda-min-law-n3", True), ("lambda-min-law-control", True)
        ]
        assert all(len(r.name) <= 25 for r in results) and "z=" not in results[-1].detail


# float.hex of (estimate.real, estimate.imag, std_error, exact_value.real,
# exact_value.imag, z_score) and the sample count of each report, recorded with
# 65537 samples, so every call reduces more than one chunk. NEP 19 lets a
# Generator's streams change between numpy releases, so a failure names both.
PINNED_SAMPLES = 65537
PINNED_ON = f"pinned on numpy 2.4.6; this run has numpy {np.__version__}"
PINNED_REPORTS = {
    "purity-n2": (
        lambda m: [estimate_purity(2, m, 1)],
        [("0x1.99bc73c83b44dp-1", "0x0.0p+0", "0x1.0b63aa7e2d0d5p-11",
          "0x1.999999999999ap-1", "0x0.0p+0", "0x1.0af12b27412f3p-1")],
    ),
    "purity-n8": (
        lambda m: [estimate_purity(8, m, 2)],
        [("0x1.f8030aaa6614fp-3", "0x0.0p+0", "0x1.50f6e26cdc5ecp-14",
          "0x1.f81f81f81f820p-3", "0x0.0p+0", "0x1.5a05740a2ca97p-1")],
    ),
    "entries": (
        lambda m: estimate_entry_moments(
            [EntryMomentSpec(2, ((1, 1),)), EntryMomentSpec(2, ((1, 2),)), EntryMomentSpec(2, ((1, 2), (2, 1)))],
            m, 3,
        ),
        [("0x1.0009a437aa5cdp-1", "0x0.0p+0", "0x1.cacca8136c00fp-11",
          "0x1.0000000000000p-1", "0x0.0p+0", "0x1.584d821c3f371p-4"),
         ("0x1.84e167a489d70p-14", "0x1.2b034631ed6c5p-12", "0x1.c988f62b67bf8p-11",
          "0x0.0p+0", "0x0.0p+0", "0x1.4e9d610553d09p-2"),
         ("0x1.98dae5e49ce32p-4", "0x0.0p+0", "0x1.0c9f4488d1764p-12",
          "0x1.999999999999ap-4", "0x0.0p+0", "0x1.6b7b7d1a6c464p-1")],
    ),
    "mgf": (
        lambda m: [estimate_mgf(np.diag([0.1, -0.1]), 6, m, 4)],
        [("0x1.0045086045664p+0", "0x0.0p+0", "0x1.6d0ffa078bd02p-13",
          "0x1.00418f357f381p+0", "0x0.0p+0", "0x1.37c3a21c4e244p-2")],
    ),
    "simplex": (
        lambda m: [estimate_simplex_moment(SimplexMomentSpec((2, 0, 1)), m, 5),
                   estimate_simplex_moment(SimplexMomentSpec((3,)), m, 5)],
        [("0x1.120f830929845p-6", "0x0.0p+0", "0x1.244a290ecf287p-14",
          "0x1.1111111111111p-6", "0x0.0p+0", "0x1.bdb552ab1dfdbp-1"),
         ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
          "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")],
    ),
    "dirichlet": (
        lambda m: [estimate_dirichlet_moment(DirichletSpec((1, 0), 1, 2), m, 6)],
        [("0x1.98dd79505c65bp-4", "0x0.0p+0", "0x1.a8bec009e7327p-12",
          "0x1.999999999999ap-4", "0x0.0p+0", "0x1.c58b979f6b982p-2")],
    ),
}


# TestLambdaMinLaw.test_report_keeps_its_bits: the n = 3 indicator at t = 1/54, seed 7
PINNED_LAW = ("0x1.430abcf5430abp-1", "0x0.0p+0", "0x1.ee218d8486661p-10",
              "0x1.441a082356bbdp-1", "0x0.0p+0", "0x1.191ab26e765b2p+0")


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_reports_keep_their_bits(name):
    reports, pinned = PINNED_REPORTS[name]
    got = reports(PINNED_SAMPLES)
    assert [
        (r.estimate.real.hex(), r.estimate.imag.hex(), r.std_error.hex(),
         r.exact_value.real.hex(), r.exact_value.imag.hex(), r.z_score.hex())
        for r in got
    ] == pinned, PINNED_ON
    for r in got:
        assert (type(r.estimate), type(r.exact_value)) == (complex, complex), PINNED_ON
        assert (type(r.std_error), type(r.z_score)) == (float, float), PINNED_ON
        assert r.sample_count == PINNED_SAMPLES, PINNED_ON
