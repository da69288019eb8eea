"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints one ``ACCEPTANCE <nn> ...: PASS|FAIL`` line (visible with
``pytest -s`` or in the captured-output section of a failure report). Monte
Carlo checks use the fixed seeds recorded here so the suite is not flaky.
"""

import itertools
import json
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate

from rho_moments.characters import (
    dim_char_sum,
    sym_character,
    unitary_char_poly,
    weyl_dim,
)
from rho_moments.classical import (
    DirichletSpec,
    SimplexMomentSpec,
    dirichlet_moment,
    simplex_moment,
)
from rho_moments.cli import main as cli_main
from rho_moments.combinat import (
    Partition,
    class_order,
    enumerate_cycle_types,
    enumerate_partitions,
)
from rho_moments.montecarlo import (
    estimate_entry_moments,
    estimate_lambda_min_law,
    estimate_mgf,
    estimate_purity,
    estimate_simplex_moment,
)
from rho_moments.quantum import (
    EntryMomentSpec,
    det_lemma_value,
    entry_moment,
    eval_power_sums,
    int_lemma_value,
    moment_traces,
    purity_mean,
)

from oracles import exact_det, power_sum_value, weyl_ratio_character
from test_characters import (
    DIMENSION_POLYS,
    SYM_CHARACTER_TABLES,
    UNITARY_CHARACTER_POLYS,
    WEIGHTED_SUMS,
    random_distinct_spectrum_matrix,
)
from test_montecarlo import real_part_reports

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

MC_SAMPLES = 1_000_000
Z_MAX = 4.0


def conclude(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_c01_symmetric_group_character_tables():
    start = time.monotonic()
    ok = True
    for k, (orders, rows) in SYM_CHARACTER_TABLES.items():
        classes = enumerate_cycle_types(k)
        ok &= [class_order(c) for c in classes] == orders
        for irrep in enumerate_partitions(k):
            ok &= [sym_character(irrep, c) for c in classes] == rows[irrep.parts]
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    conclude(1, "S_K character tables K=1..4 exact", ok, f"{elapsed:.2f}s")


def test_c02_unitary_character_polynomials():
    start = time.monotonic()
    ok = all(
        unitary_char_poly(Partition(parts)).terms == expected
        for parts, expected in UNITARY_CHARACTER_POLYS.items()
    )
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    conclude(2, "U(N) power-sum expansions exact", ok, f"{elapsed:.2f}s")


def test_c03_dimension_polynomials():
    ok = all(
        weyl_dim(Partition(parts), n) == poly(n)
        for parts, poly in DIMENSION_POLYS.items()
        for n in range(1, 9)
    )
    conclude(3, "Weyl dimensions match polynomials at N=1..8", ok)


def test_c04_dimension_weighted_sums():
    ok = True
    for k, expected in WEIGHTED_SUMS.items():
        for n in range(1, 7):
            want = {key: c for key, c in expected(n).items() if c}
            ok &= dim_char_sum(k, n).terms == want
    conclude(4, "dim-weighted character sums K=0..4 exact", ok)


def test_c05_frobenius_weyl_equality():
    rng = np.random.default_rng(20240601)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        shapes = [p for p in enumerate_partitions(k) if len(p.parts) <= n]
        if not shapes:
            continue
        irrep = shapes[int(rng.integers(0, len(shapes)))]
        a, alpha = random_distinct_spectrum_matrix(n, rng)
        lhs = power_sum_value(unitary_char_poly(irrep).terms, eval_power_sums(a, k))
        rhs = weyl_ratio_character(irrep.parts, alpha)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
        checked += 1
    conclude(5, "determinant ratio equals power-sum expansion", worst <= 1e-8, f"worst={worst:.2e}")


def test_c06_classical_moments():
    start = time.monotonic()
    ok = simplex_moment(SimplexMomentSpec((2, 0, 1))) == F(1, 60)

    rng = np.random.default_rng(20240602)
    worst_z = 0.0
    for idx in range(20):
        n_b = int(rng.integers(1, 5))
        exponents = [0] * n_b
        for _ in range(int(rng.integers(0, 5))):
            exponents[int(rng.integers(0, n_b))] += 1
        report = estimate_simplex_moment(
            SimplexMomentSpec(tuple(exponents)), MC_SAMPLES, seed=9000 + idx
        )
        worst_z = max(worst_z, report.z_score)
    ok &= worst_z <= Z_MAX

    for _ in range(50):
        n_big = int(rng.integers(1, 5))
        exps = tuple(int(rng.integers(0, 4)) for _ in range(n_big))
        lam = F(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        ok &= dirichlet_moment(DirichletSpec(exps, lam)) == simplex_moment(
            SimplexMomentSpec(exps + (0,), lam)
        )
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    conclude(6, "classical moments vs MC and identity", ok, f"worst z={worst_z:.2f}, {elapsed:.1f}s")


def test_c07_lemma_values():
    ok = True
    for n in range(1, 5):
        for beta in itertools.product(range(5), repeat=n):
            oracle = exact_det(
                [[factorial(i + beta[j]) for j in range(n)] for i in range(n)]
            )
            ok &= det_lemma_value(beta) == oracle
    value = int_lemma_value((0, 1))
    quad, _ = integrate.quad(lambda x: (1 - 2 * x) * (1 - x), 0, 1)
    ok &= value == F(1, 6) and abs(float(value) - quad) <= 1e-10
    conclude(7, "determinant and integral lemmas", ok)


def test_c08_trace_power_normalization():
    ok = all(
        moment_traces([np.eye(n)] * k) == 1.0 + 0.0j
        for n in range(1, 5)
        for k in range(1, 7)
    )
    conclude(8, "E[(tr rho)^K] = 1 exactly, K<=6 N<=4", ok)


def test_c09_low_order_closed_forms():
    rng = np.random.default_rng(20240603)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        c1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, abs(moment_traces([c1]) - np.trace(c1) / n))
        closed = (n * np.trace(c1) * np.trace(c2) + np.trace(c1 @ c2)) / (n * (n * n + 1))
        worst = max(worst, abs(moment_traces([c1, c2]) - closed))
    conclude(9, "K=1,2 closed forms", worst <= 1e-10, f"worst={worst:.2e}")


def test_c10_purity():
    start = time.monotonic()
    ok = all(purity_mean(n) == F(2 * n, n * n + 1) for n in range(1, 7))
    worst_z = 0.0
    for n in (2, 3, 4):
        report = estimate_purity(n, MC_SAMPLES, seed=9100 + n)
        worst_z = max(worst_z, report.z_score)
    ok &= worst_z <= Z_MAX
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    conclude(10, "purity exact and vs MC", ok, f"worst z={worst_z:.2f}, {elapsed:.1f}s")


def canonical_entry_multisets(n, k):
    """Multisets of K index pairs, deduplicated under the joint (i,j)->(j,i) swap."""
    indices = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    seen = set()
    for pairs in itertools.combinations_with_replacement(indices, k):
        swapped = tuple(sorted((j, i) for i, j in pairs))
        if min(pairs, swapped) in seen:
            continue
        seen.add(pairs)
        yield pairs


def test_c11_entry_moments_vs_mc():
    goldens = {
        ((1, 2), (2, 1)): F(1, 10),
        ((1, 1), (1, 1)): F(3, 10),
    }
    ok = all(entry_moment(EntryMomentSpec(2, pairs)) == value for pairs, value in goldens.items())

    worst_z = 0.0
    spec_count = 0
    for n, seed in ((2, 9200), (3, 9300)):
        specs = [
            EntryMomentSpec(n, pairs)
            for k in (1, 2, 3)
            for pairs in canonical_entry_multisets(n, k)
        ]
        spec_count += len(specs)
        reports = estimate_entry_moments(specs, MC_SAMPLES, seed=seed)
        worst_z = max(worst_z, max(r.z_score for r in reports))
    ok &= worst_z <= Z_MAX
    conclude(
        11,
        "entry moments exhaustive vs MC",
        ok,
        f"{spec_count} specs, worst z={worst_z:.2f}",
    )


def test_c12_mgf_cross_check():
    start = time.monotonic()
    rng = np.random.default_rng(20240604)
    worst_z = 0.0
    for idx in range(5):
        for n in (2, 3):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.12 * (g + g.conj().T) / 2
            report = estimate_mgf(a, 6, 500_000, seed=9400 + 10 * idx + n)
            worst_z = max(worst_z, report.z_score)
    elapsed = time.monotonic() - start
    ok = worst_z <= Z_MAX and elapsed < 60.0
    conclude(12, "MGF estimate vs truncated series", ok, f"worst z={worst_z:.2f}, {elapsed:.1f}s")


def test_c13_sampler_eigenvalue_law():
    # N lambda_min(rho) ~ Beta(1, N^2 - 1) at N = 2, 3, and Re(rho), a real trace-one ensemble, as the control
    worst_z = 0.0
    for n in (2, 3):
        points = [F(j, 2 * n**3) for j in (1, 2, 3)]
        reports = estimate_lambda_min_law(n, points, 100_000, seed=9500 + n)
        worst_z = max(worst_z, *(r.z_score for r in reports))
    control_z = max(r.z_score for r in real_part_reports(10_000, 9501))
    ok = worst_z <= Z_MAX and control_z > Z_MAX
    conclude(
        13,
        "lambda_min law and negative control",
        ok,
        f"worst z={worst_z:.2f}, control off by {control_z:.1f} standard errors",
    )


def test_c14_cli_verify_and_fixtures():
    start = time.monotonic()
    runner = CliRunner()
    result = runner.invoke(
        cli_main, ["verify", "--suite", "all", "--samples", "200000", "--seed", "1"]
    )
    ok = result.exit_code == 0
    elapsed = time.monotonic() - start
    ok &= elapsed < 180.0

    for k in (1, 2, 3, 4):
        for which, stem in (("sym-chars", "sym_chars"), ("unitary-chars", "unitary_chars")):
            table = runner.invoke(
                cli_main, ["tables", which, "--k", str(k), "--format", "csv"]
            )
            ok &= table.stdout_bytes == (FIXTURES / f"{stem}_k{k}.csv").read_bytes()
    conclude(14, "CLI verify suite and table fixtures", ok, f"verify {elapsed:.1f}s")
