"""Self-check suites wired to the ``verify`` CLI command.

Each check compares an exact engine value against an independent route:
closed forms, identities between modules, or seeded Monte Carlo estimates.
Checks report pass/fail plus a one-line detail so failures are actionable
from CI logs. Within the sampler suite, ``purity-mc-n2``,
``entry-mc-offdiag-1/10`` and ``entry-mc-diag-3/10`` read one N = 2 sample
stream; every other Monte Carlo check draws its own, and no stream is shared
between suites, so a check prints the same line alone or under ``all``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod

import numpy as np

from . import classical, montecarlo, quantum
from .characters import dim_char_sum, unitary_char_poly, weyl_dim
from .classical import DirichletSpec, SimplexMomentSpec
from .combinat import CycleType, _Frozen, enumerate_cycle_types, enumerate_partitions
from .quantum import EntryMomentSpec

__all__ = ["CheckResult", "SUITES", "run_suite"]

Z_MAX = 4.0


class CheckResult(_Frozen):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        super().__init__(name, bool(passed), detail)  # checks compute numpy bools; JSON needs a plain bool


def _z_check(name: str, report: montecarlo.EstimateReport) -> CheckResult:
    return CheckResult(
        name,
        report.z_score <= Z_MAX,
        f"z={report.z_score:.2f} (exact={report.exact_value.real:.6g}, "
        f"estimate={report.estimate.real:.6g}, n={report.sample_count})",
    )


def _random_simplex_spec(rng: np.random.Generator) -> SimplexMomentSpec:
    n_b = int(rng.integers(1, 5))
    budget = int(rng.integers(0, 5))
    exponents = [0] * n_b
    for _ in range(budget):
        exponents[int(rng.integers(0, n_b))] += 1
    return SimplexMomentSpec(tuple(exponents))


def _classical_checks(samples: int, seed: int, workers: int) -> list[CheckResult]:
    checks = []

    golden = classical.simplex_moment(SimplexMomentSpec((2, 0, 1)))
    checks.append(
        CheckResult("simplex-golden-1/60", golden == Fraction(1, 60), f"value={golden}")
    )

    beta_ok = all(
        classical.beta_function(m, n)
        == classical.simplex_moment(SimplexMomentSpec((m - 1, n - 1)))
        for m in range(1, 7)
        for n in range(1, 7)
    )
    checks.append(CheckResult("beta-vs-simplex-identity", beta_ok, "m,n in 1..6"))

    rng = np.random.default_rng(seed)
    identity_ok = True
    for _ in range(50):
        n_big = int(rng.integers(1, 5))
        exps = tuple(int(rng.integers(0, 4)) for _ in range(n_big))
        lam = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        d = classical.dirichlet_moment(DirichletSpec(exps, lam))
        s = classical.simplex_moment(SimplexMomentSpec(exps + (0,), lam))
        if d != s:
            identity_ok = False
            break
    checks.append(
        CheckResult("dirichlet-vs-simplex-identity", identity_ok, "50 random specs, exact")
    )

    for idx in range(5):
        spec = _random_simplex_spec(rng)
        report = montecarlo.estimate_simplex_moment(
            spec, samples, seed + 100 + idx, workers=workers
        )
        checks.append(_z_check(f"simplex-mc-{list(spec.exponents)}", report))

    for idx, m in enumerate((1, 2)):
        spec = DirichletSpec((1, 0), weight_power=m)
        report = montecarlo.estimate_dirichlet_moment(
            spec, samples, seed + 200 + idx, workers=workers
        )
        checks.append(_z_check(f"dirichlet-mc-weight-{m}", report))

    return checks


def _quantum_checks(samples: int, seed: int, workers: int) -> list[CheckResult]:
    checks = []

    worst = 0.0
    for n in (2, 3):
        for k in range(1, 6):
            value = quantum.moment_traces([np.eye(n)] * k)
            worst = max(worst, abs(value - 1.0))
    checks.append(
        CheckResult("trace-power-normalization", worst <= 1e-12, f"max |E[(tr rho)^K]-1|={worst:.2e}")
    )

    purity_ok = all(
        quantum.purity_mean(n) == Fraction(2 * n, n * n + 1) for n in range(1, 7)
    )
    checks.append(CheckResult("purity-closed-form", purity_ok, "N=1..6, exact"))

    rng = np.random.default_rng(seed)
    worst_k1 = worst_k2 = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v1 = quantum.moment_traces([c1])
        worst_k1 = max(worst_k1, abs(v1 - np.trace(c1) / n))
        v2 = quantum.moment_traces([c1, c2])
        closed = (n * np.trace(c1) * np.trace(c2) + np.trace(c1 @ c2)) / (n * (n * n + 1))
        worst_k2 = max(worst_k2, abs(v2 - closed))
    checks.append(CheckResult("closed-form-k1", worst_k1 <= 1e-10, f"max delta={worst_k1:.2e}"))
    checks.append(CheckResult("closed-form-k2", worst_k2 <= 1e-10, f"max delta={worst_k2:.2e}"))

    def leibniz(n, term):
        """Sum over permutations p of range(n) of sgn(p) * term(p)."""
        return sum(
            (-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1 :]) * term(p) for p in permutations(range(n))
        )

    # det_lemma_value against its definition, det M[i, j] = (i + beta_j)!, and int_lemma_value against
    # the simplex integral of prod_j x_j^beta_j times the difference product det[x_j^i], both by Leibniz
    lemma_ok = all(
        quantum.det_lemma_value(beta) == leibniz(n, lambda p: prod(factorial(i + beta[j]) for i, j in enumerate(p)))
        and quantum.int_lemma_value(beta)
        == leibniz(n, lambda p: classical.simplex_moment(SimplexMomentSpec(tuple(b + e for b, e in zip(beta, p)))))
        for n in range(1, 4)
        for beta in product(range(4), repeat=n)
    )
    checks.append(CheckResult("det-vs-int-lemma", lemma_ok, "beta entries <= 3, N <= 3"))

    # the paper's route: dimension times character, summed over every K-box shape;
    # each K's shapes and characters, and each (K, N)'s dimensions, are built once
    cauchy_ok = True
    for k in range(1, 7):
        shapes = enumerate_partitions(k)
        chars = [unitary_char_poly(irrep) for irrep in shapes]
        for n in range(1, 5):
            total, dims = dim_char_sum(k, n), [weyl_dim(irrep, n) for irrep in shapes]
            cauchy_ok &= all(
                total.coefficient(c.counts) == sum(d * chi.coefficient(c.counts) for d, chi in zip(dims, chars))
                for c in enumerate_cycle_types(k)
            )
    checks.append(
        CheckResult("dim-char-sum-vs-characters", cauchy_ok, "K <= 6, N <= 4, every class, exact")
    )

    # the derivative route: each class monomial of dim_char_sum expanded into trace words
    routes = {
        k: [(c, quantum.omega_expand(CycleType(key), k)) for key, c in dim_char_sum(k, 2).terms.items()]
        for k in (1, 2, 3)
    }
    omega_ok = all(
        Fraction(factorial(3), factorial(k + 3)) * sum(c * e.evaluate_entry_pairs(pairs) for c, e in routes[k])
        == quantum.entry_moment(EntryMomentSpec(2, pairs))
        for k in (1, 2, 3)
        for pairs in product(product((1, 2), repeat=2), repeat=k)
    )
    checks.append(CheckResult("entry-vs-omega-route", omega_ok, "K <= 3, N = 2, exhaustive, exact"))

    # diag(rho) is Dirichlet(N, ..., N), so E[prod rho_ii^k_i] = simplex_moment(k + N - 1) / simplex_moment((N - 1,)*N)
    def moment(exponents):
        return classical.simplex_moment(SimplexMomentSpec(tuple(exponents)))

    diag_ok = all(
        quantum.entry_moment(EntryMomentSpec(n, tuple((i, i) for i in word)))
        == moment(word.count(i) + n - 1 for i in range(1, n + 1)) / moment([n - 1] * n)
        for n in range(1, 4)
        for k in range(1, 7)
        for word in combinations_with_replacement(range(1, n + 1), k)
    )
    checks.append(CheckResult("diag-entry-vs-dirichlet", diag_ok, "every diagonal spec, K <= 6, N <= 3, exact"))

    a = 0.25 * _random_hermitian(2, rng)
    report = montecarlo.estimate_mgf(a, 6, samples, seed + 300, workers=workers)
    checks.append(_z_check("mgf-series-mc", report))

    return checks


def _random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _sampler_checks(samples: int, seed: int, workers: int) -> list[CheckResult]:
    checks = []

    batch_size = min(samples, 20000)
    worst_herm = worst_trace = 0.0
    positive = 0
    rng = np.random.default_rng(seed + 400)
    for n in (2, 3):
        batch = montecarlo.sample_density_batch(n, batch_size, rng)
        worst_herm = max(worst_herm, float(np.abs(batch - batch.conj().transpose(0, 2, 1)).max()))
        worst_trace = max(worst_trace, float(np.abs(np.einsum("sii->s", batch) - 1.0).max()))
        positive += int(montecarlo._positive_definite(-1e-10, batch).sum())
    checks.append(
        CheckResult(
            "density-sample-invariants",
            worst_herm <= 1e-12 and worst_trace <= 1e-12 and positive == 2 * batch_size,
            f"max |rho-rho^H|={worst_herm:.1e}, max |tr-1|={worst_trace:.1e}, "
            f"rho+1e-10*I positive definite in {positive}/{2 * batch_size}",
        )
    )

    # purity and both entry moments at N = 2 read one stream, seeded as purity-mc-n2 alone was
    specs = [EntryMomentSpec(2, ((1, 2), (2, 1))), EntryMomentSpec(2, ((1, 1), (1, 1)))]
    consumers = [montecarlo._purity, *(partial(montecarlo._entry_product, s) for s in specs)]
    exact = [quantum.purity_mean(2), *map(quantum.entry_moment, specs)]
    draw = partial(montecarlo.sample_density_batch, 2)
    purity, offdiag, diag = montecarlo._estimate(draw, 4, consumers, exact, samples, seed + 502, workers)
    checks.append(_z_check("purity-mc-n2", purity))
    checks.append(_z_check("purity-mc-n3", montecarlo.estimate_purity(3, samples, seed + 503, workers=workers)))
    checks.append(_z_check("entry-mc-offdiag-1/10", offdiag))
    checks.append(_z_check("entry-mc-diag-3/10", diag))

    # N lambda_min(rho) ~ Beta(1, N^2 - 1), checked at t = j / (2 N^3) for j = 1, 2, 3
    for n in (2, 3):
        points = [Fraction(j, 2 * n**3) for j in (1, 2, 3)]
        law = montecarlo.estimate_lambda_min_law(n, points, min(samples, 100000), seed + 700 + n, workers=workers)
        checks.append(_z_check(f"lambda-min-law-n{n}", max(law, key=lambda r: r.z_score)))

    # the N = 2 checks on Re(rho), real symmetric with trace one but of another eigenvalue law, must fail;
    # always at 10000 samples, as fewer do not reject it reliably
    def real_part(count: int, rng: np.random.Generator) -> np.ndarray:
        return montecarlo.sample_density_batch(2, count, rng).real

    consumers = [partial(montecarlo._positive_definite, j / 16) for j in (1, 2, 3)]
    exact = [montecarlo.lambda_min_law(2, Fraction(j, 16)) for j in (1, 2, 3)]
    control = montecarlo._estimate(real_part, 4, consumers, exact, 10000, seed + 800, workers)
    worst = max(r.z_score for r in control)
    checks.append(CheckResult("lambda-min-law-control", worst > Z_MAX, f"Re(rho) worst |z| {worst:.1f} (must reject)"))

    return checks


SUITES = {
    "classical": _classical_checks,
    "quantum": _quantum_checks,
    "sampler": _sampler_checks,
}


def run_suite(suite: str, samples: int, seed: int, workers: int = 1) -> list[CheckResult]:
    """Run one named suite, or every suite for ``all``; results keep order."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name](samples, seed, workers))
    return results
