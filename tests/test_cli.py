import ctypes
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import rho_moments.classical
import rho_moments.montecarlo
import rho_moments.quantum
import rho_moments.verify
from rho_moments.characters import PowerSumPoly
from rho_moments.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parents[1] / "README.md"

# Recorded stdout of each command in every format, as fixtures/<name>.<json|csv|md>.
QUERY_FIXTURES = {
    "qmoment_offdiag": "qmoment --n 2 --entries '1,2 2,1'",
    "qmoment_composite": "qmoment --n 2 --entries '1,1 1,1 1,2'",
    "simplex": "simplex --nu 2,0,1 --lambda 1",
    "simplex_dirichlet": "simplex --nu 2,0 --dirichlet --f-power 0",
    "tables_dims": "tables dims --k 2 --n 4",
    "tables_dim_char_sum": "tables dim-char-sum --k 4 --n 3",
    "verify_classical": "verify --suite classical --samples 1000 --seed 1 --threads 1",
}
FORMAT_SUFFIXES = {"json": "json", "csv": "csv", "markdown": "md"}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.mark.parametrize("fmt", FORMAT_SUFFIXES)
@pytest.mark.parametrize("name", QUERY_FIXTURES)
def test_output_fixture_bytes(runner, name, fmt):
    result = runner.invoke(main, shlex.split(QUERY_FIXTURES[name]) + ["--format", fmt])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (FIXTURES / f"{name}.{FORMAT_SUFFIXES[fmt]}").read_bytes()


class TestTablesCommand:
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_sym_chars_fixture_bytes(self, runner, k):
        result = runner.invoke(main, ["tables", "sym-chars", "--k", str(k), "--format", "csv"])
        assert result.exit_code == 0
        expected = (FIXTURES / f"sym_chars_k{k}.csv").read_bytes()
        assert result.stdout_bytes == expected

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_unitary_chars_fixture_bytes(self, runner, k):
        result = runner.invoke(main, ["tables", "unitary-chars", "--k", str(k), "--format", "csv"])
        assert result.exit_code == 0
        expected = (FIXTURES / f"unitary_chars_k{k}.csv").read_bytes()
        assert result.stdout_bytes == expected

    def test_output_is_stable_across_runs(self, runner):
        args = ["tables", "unitary-chars", "--k", "4", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.stdout_bytes == second.stdout_bytes

    def test_json_cells_carry_integer_pairs(self, runner):
        result = runner.invoke(main, ["tables", "unitary-chars", "--k", "2", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["table"] == "unitary-chars"
        row = doc["rows"][0]
        assert row["irrep"] == "2"
        cell = row["t1^2"]
        assert cell == {"numerator": 1, "denominator": 2, "twopi_exponent": 0}

    def test_dims_requires_n(self, runner):
        result = runner.invoke(main, ["tables", "dims", "--k", "2"])
        assert result.exit_code == 2

    def test_dims_values(self, runner):
        result = runner.invoke(
            main, ["tables", "dims", "--k", "2", "--n", "4", "--format", "json"]
        )
        doc = json.loads(result.output)
        dims = {row["irrep"]: row["dim"]["numerator"] for row in doc["rows"]}
        assert dims == {"2": 10, "1,1": 6}

    def test_dim_char_sum_k0_constant(self, runner):
        result = runner.invoke(main, ["tables", "dim-char-sum", "--k", "0"])
        assert result.exit_code == 0
        assert "| 1        | 1           |" in result.output

    @pytest.mark.parametrize(
        "argv,row",
        [
            ("dims --k 4 --n 100000", f"4,{math.comb(100003, 4)}"),
            ("dim-char-sum --k 10 --n 100000", f"t1^10,{Fraction(10**50, math.factorial(10))}"),
        ],
    )
    def test_large_n(self, runner, argv, row):
        result = runner.invoke(main, ["tables", *argv.split(), "--format", "csv"])
        assert result.exit_code == 0
        assert row in result.output.splitlines()

    @pytest.mark.parametrize("which", ("dims", "dim-char-sum"))
    def test_n_beyond_the_exact_budget_is_resource_error(self, runner, which):
        # 10 * 12001 bits of n^10 pass the budget, the bit size of 10000!
        result = runner.invoke(main, ["tables", which, "--k", "10", "--n", str(2**12000)])
        assert result.exit_code == 1
        assert "exact-arithmetic limit" in result.output

    def test_cap_rejected_with_message(self, runner):
        result = runner.invoke(main, ["tables", "sym-chars", "--k", "11"])
        assert result.exit_code == 1
        assert "cap of 10" in result.output

    def test_cap_override_warns(self, runner):
        result = runner.invoke(main, ["tables", "sym-chars", "--k", "11", "--cap-k", "11"])
        assert result.exit_code == 0
        assert "warning" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [["tables", "sym-chars", "--k", "3"], ["qmoment", "--n", "2", "--entries", "1,1 1,1 1,1"]],
    ids=["tables", "qmoment"],
)
def test_raised_cap_warns_with_the_cost_of_its_refusal(runner, argv):
    refused = runner.invoke(main, argv + ["--cap-k", "2"])
    warned = runner.invoke(main, argv + ["--cap-k", "20"])
    assert refused.exit_code == 1 and warned.exit_code == 0
    cost = refused.stderr.partition("; ")[2]
    assert cost and warned.stderr.endswith(f"; {cost}")


class TestSimplexCommand:
    def test_golden(self, runner):
        result = runner.invoke(
            main, ["simplex", "--nu", "2,0,1", "--lambda", "1", "--format", "json"]
        )
        doc = json.loads(result.output)
        assert doc["exact_value"] == {
            "numerator": 1,
            "denominator": 60,
            "twopi_exponent": 0,
        }

    def test_point_simplex_with_scale(self, runner):
        result = runner.invoke(main, ["simplex", "--nu", "1", "--lambda", "3", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["exact_value"]["numerator"] == 3

    def test_flat_pair(self, runner):
        result = runner.invoke(main, ["simplex", "--nu", "0,0", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["exact_value"] == {
            "numerator": 1,
            "denominator": 1,
            "twopi_exponent": 0,
        }

    def test_dirichlet_flag(self, runner):
        result = runner.invoke(
            main,
            ["simplex", "--nu", "2,0", "--dirichlet", "--format", "json"],
        )
        doc = json.loads(result.output)
        assert doc["exact_value"]["denominator"] == 12

    def test_f_power_requires_dirichlet(self, runner):
        result = runner.invoke(main, ["simplex", "--nu", "1", "--f-power", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("power, code", [(10001, 1), (10000, 0)])
    def test_monte_carlo_weight_power_is_bounded(self, runner, power, code):
        argv = ["simplex", "--nu", "0", "--dirichlet", "--f-power", str(power), "--mc", "100", "1"]
        result = runner.invoke(main, argv, catch_exceptions=False)
        assert result.exit_code == code, result.output
        if code:
            assert result.output == "Error: weight power 10001 is above the Monte Carlo limit 10000\n"

    @pytest.mark.parametrize("dirichlet", ([], ["--dirichlet"]))
    def test_monte_carlo_target_below_the_float_range_is_usage_error(self, runner, dirichlet):
        # an exact value of 1e-400 reads 0.0 as a float, and so would every sample and the z-score
        argv = ["simplex", "--nu", "1", "--lambda", "1e-400", *dirichlet, "--mc", "100", "1"]
        result = runner.invoke(main, argv, catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert "float" in result.output

    def test_malformed_rational_is_usage_error(self, runner):
        result = runner.invoke(main, ["simplex", "--nu", "1", "--lambda", "a/b"])
        assert result.exit_code == 2

    def test_factorial_beyond_the_exact_budget_is_resource_error(self, runner):
        result = runner.invoke(main, ["simplex", "--nu", "99999999"])
        assert result.exit_code == 1
        assert "exact-arithmetic limit" in result.output

    def test_huge_scale_prints_in_full(self, runner):
        result = runner.invoke(main, ["simplex", "--nu", "1,2", "--lambda", "1e5000"])
        assert result.exit_code == 0, result.output
        # 1! 2! (10^5000)^4 / 4! = 25 * 10^19998 / 3
        assert "25" + "0" * 19998 + "/3" in result.output

    @pytest.mark.parametrize(
        "argv",
        (["--nu", "1", "--lambda", "1e3000000"], ["--nu", "0", "--lambda", "1e200000", "--format", "csv"]),
    )
    def test_scale_text_beyond_the_exact_budget_is_resource_error(self, runner, argv):
        # refused from the text, before Fraction multiplies the exponent out
        result = runner.invoke(main, ["simplex", *argv])
        assert result.exit_code == 1
        assert "exact-arithmetic limit" in result.output

    def test_tiny_scale_is_accepted(self, runner):
        result = runner.invoke(main, ["simplex", "--nu", "1", "--lambda", "1e-400", "--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["query"]["lambda"]["denominator"] == 10**400

    def test_mc_report_attached(self, runner):
        result = runner.invoke(
            main,
            ["simplex", "--nu", "2,0,1", "--mc", "5000", "7", "--threads", "1", "--format", "json"],
        )
        doc = json.loads(result.output)
        assert doc["mc_report"]["sample_count"] == 5000
        assert doc["mc_report"]["seed"] == 7
        assert doc["mc_report"]["z_score"] <= 6.0


class TestQmomentCommand:
    def test_diagonal_golden(self, runner):
        result = runner.invoke(main, ["qmoment", "--n", "2", "--entries", "1,1", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["exact_value"] == {
            "numerator": 1,
            "denominator": 2,
            "twopi_exponent": 0,
        }

    def test_offdiagonal_golden(self, runner):
        result = runner.invoke(
            main, ["qmoment", "--n", "2", "--entries", "1,2 2,1", "--format", "json"]
        )
        doc = json.loads(result.output)
        assert doc["exact_value"]["numerator"] == 1
        assert doc["exact_value"]["denominator"] == 10
        # raw (unnormalized) value carries the 2*pi power of the volume
        assert doc["raw_value"] == {
            "numerator": 1,
            "denominator": 60,
            "twopi_exponent": 1,
        }

    def test_composite_query_with_mc(self, runner):
        result = runner.invoke(
            main,
            [
                "qmoment",
                "--n",
                "2",
                "--entries",
                "1,1 1,1 1,2",
                "--mc",
                "20000",
                "42",
                "--threads",
                "1",
                "--format",
                "json",
            ],
        )
        doc = json.loads(result.output)
        assert doc["exact_value"]["numerator"] == 0
        assert doc["mc_report"]["z_score"] <= 6.0

    def test_mc_output_is_independent_of_thread_count(self, runner):
        argv = ["qmoment", "--n", "2", "--entries", "1,2 2,1", "--mc", "1000000", "42"]
        one = runner.invoke(main, argv + ["--threads", "1"])
        assert one.exit_code == 0, one.output
        # the default is the CPU count, and a count below 1 means one worker
        for threads in (["--threads", "2"], [], ["--threads", "0"], ["--threads", "-2"]):
            assert runner.invoke(main, argv + threads).stdout_bytes == one.stdout_bytes

    def test_out_of_range_pair_names_offender(self, runner):
        result = runner.invoke(main, ["qmoment", "--n", "2", "--entries", "1,1 2,3"])
        assert result.exit_code == 2
        assert "(2,3)" in result.output

    def test_non_integer_index_is_usage_error(self, runner):
        result = runner.invoke(main, ["qmoment", "--n", "2", "--entries", "1,x"])
        assert result.exit_code == 2, result.output
        assert "indices must be integers, got '1,x'" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("entries", ("", "   "))
    def test_no_entry_pair_is_usage_error(self, runner, entries):
        result = runner.invoke(main, ["qmoment", "--n", "2", "--entries", entries])
        assert result.exit_code == 2, result.output
        assert "--entries must name at least one i,j pair" in result.output
        assert "Traceback" not in result.output

    def test_cap_exceeded_is_resource_error(self, runner):
        entries = " ".join(["1,1"] * 9)
        result = runner.invoke(main, ["qmoment", "--n", "2", "--entries", entries])
        assert result.exit_code == 1
        assert "cap" in result.output

    def test_raised_cap_reaches_the_mc_report(self, runner, monkeypatch):
        # the report is measured against the printed exact value: one permutation sum, one plan read, per query
        plan = rho_moments.quantum._layer_plan
        calls = []
        monkeypatch.setattr(rho_moments.quantum, "_layer_plan", lambda mults: calls.append(mults) or plan(mults))
        entries = " ".join(["1,1"] * 9)
        argv = ["qmoment", "--n", "2", "--entries", entries, "--cap-k", "9", "--mc", "1000", "1", "--threads", "1"]
        result = runner.invoke(main, argv + ["--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["mc_report"]["sample_count"] == 1000
        assert len(calls) == 1

    def test_volume_beyond_the_exact_budget_is_resource_error(self, runner):
        result = runner.invoke(main, ["qmoment", "--n", "1000", "--entries", "1,1"])
        assert result.exit_code == 1
        assert "exact-arithmetic limit" in result.output

    def test_values_past_the_digit_limit_print_in_full(self, runner):
        # the raw volume has ~7000 digits, past Python's default int-to-str limit
        result = runner.invoke(
            main, ["qmoment", "--n", "50", "--entries", "1,1", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        raw = json.loads(result.output)["raw_value"]
        expected = rho_moments.quantum.hs_volume(50) * Fraction(1, 50)
        assert Fraction(raw["numerator"], raw["denominator"]) == expected.rational
        assert raw["twopi_exponent"] == expected.twopi_exponent


class TestVerifyCommand:
    def test_quantum_suite_passes(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--suite", "quantum", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 0, result.output
        assert "pass" in result.output

    def test_json_report_shape(self, runner):
        result = runner.invoke(
            main,
            [
                "verify",
                "--suite",
                "classical",
                "--samples",
                "5000",
                "--seed",
                "7",
                "--threads",
                "1",
                "--format",
                "json",
            ],
        )
        doc = json.loads(result.output)
        assert doc["all_passed"] is True
        assert all({"name", "passed", "detail"} <= set(c) for c in doc["checks"])

    def test_perturbed_block_weight_fails(self, runner, monkeypatch):
        plan = rho_moments.quantum._layer_plan

        def corrupted(mults):
            # Layer K - 1 holds m - e_0 alone, whose R~ the last layer reads:
            # add 1 to its first weight, in new lists, so the cached plan stays as built.
            *layers, last = plan(mults)
            if layers:
                src, mul, weight, starts = layers[-1]
                layers[-1] = (src, mul, [weight[0] + 1, *weight[1:]], starts)
            return (*layers, last)

        monkeypatch.setattr(rho_moments.quantum, "_layer_plan", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "quantum", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_perturbed_dim_char_sum_fails(self, runner, monkeypatch):
        closed_form = rho_moments.verify.dim_char_sum

        def corrupted(k, n):
            # one K = 5 coefficient off by one: only the character-route check sees it
            terms = closed_form(k, n).terms
            if k == 5:
                terms[(5,)] += 1
            return PowerSumPoly(terms)

        monkeypatch.setattr(rho_moments.verify, "dim_char_sum", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "quantum", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        failed = [line.split()[0] for line in result.output.splitlines() if " FAIL " in line]
        assert failed == ["dim-char-sum-vs-characters"]

    def test_perturbed_det_lemma_fails(self, runner, monkeypatch):
        definition = rho_moments.quantum.det_lemma_value

        def corrupted(beta):
            # one beta off by one: only the Leibniz-determinant check sees it
            return definition(beta) + (tuple(beta) == (0, 2, 3))

        monkeypatch.setattr(rho_moments.quantum, "det_lemma_value", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "quantum", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        failed = [line.split()[0] for line in result.output.splitlines() if " FAIL " in line]
        assert failed == ["det-vs-int-lemma"]

    @pytest.mark.parametrize("seed", (747, 1207, 1416))
    def test_control_rejects_re_rho_at_the_minimum_sample_count(self, runner, seed):
        # at these seeds 100 control samples gave a worst |z| of 3.55-3.84, under the rejection bound
        result = runner.invoke(
            main,
            ["verify", "--suite", "sampler", "--samples", "100", "--seed", str(seed), "--threads", "1"],
        )
        assert result.exit_code == 0, result.output
        assert "lambda-min-law-control     pass" in result.output

    def test_perturbed_eigenvalue_law_fails(self, runner, monkeypatch):
        law = rho_moments.montecarlo.lambda_min_law

        def corrupted(n, t):
            # the N = 3 law 1/10 too high: only its own check sees it, not N = 2 or the control
            return law(n, t) + Fraction(1, 10) * (n == 3)

        monkeypatch.setattr(rho_moments.montecarlo, "lambda_min_law", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "sampler", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        failed = [line.split()[0] for line in result.output.splitlines() if " FAIL " in line]
        assert failed == ["lambda-min-law-n3"]

    def test_perturbed_int_lemma_fails(self, runner, monkeypatch):
        integral = rho_moments.quantum.int_lemma_value

        def corrupted(beta):
            # one beta off by one: only the simplex-integral Leibniz sum sees it
            return integral(beta) + (tuple(beta) == (0, 2, 3))

        monkeypatch.setattr(rho_moments.quantum, "int_lemma_value", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "quantum", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        failed = [line.split()[0] for line in result.output.splitlines() if " FAIL " in line]
        assert failed == ["det-vs-int-lemma"]

    def test_perturbed_omega_expand_fails(self, runner, monkeypatch):
        expand = rho_moments.quantum.omega_expand

        def corrupted(monomial, k, **kwargs):
            # one cycle word of the 3-cycle class lost: only the derivative route sees it
            terms = expand(monomial, k, **kwargs).terms
            if monomial.counts == (0, 0, 1):
                del terms[max(terms)]
            return rho_moments.quantum.TraceProductExpr(k, terms)

        monkeypatch.setattr(rho_moments.quantum, "omega_expand", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "quantum", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        failed = [line.split()[0] for line in result.output.splitlines() if " FAIL " in line]
        assert failed == ["entry-vs-omega-route"]

    def test_perturbed_diagonal_entry_moment_fails(self, runner, monkeypatch):
        engine = rho_moments.quantum.entry_moment

        def corrupted(spec, **kwargs):
            # one N = 3, K = 6 diagonal moment off: only the Dirichlet-law check sees it
            value = engine(spec, **kwargs)
            return value * 2 if spec.pairs == ((1, 1), (1, 1), (2, 2), (2, 2), (3, 3), (3, 3)) else value

        monkeypatch.setattr(rho_moments.quantum, "entry_moment", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "quantum", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        failed = [line.split()[0] for line in result.output.splitlines() if " FAIL " in line]
        assert failed == ["diag-entry-vs-dirichlet"]

    def test_json_report_parses_for_quantum_checks(self, runner):
        # quantum checks compute their verdicts as numpy bools
        argv = "verify --suite quantum --samples 5000 --seed 7 --threads 1 --format json"
        result = runner.invoke(main, argv.split())
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["all_passed"] is True
        assert all(type(c["passed"]) is bool for c in doc["checks"])

    def test_unknown_suite_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "bogus"])
        assert result.exit_code == 2

    def test_unknown_suite_is_refused_by_run_suite(self):
        message = "unknown suite 'nope'; choose from ['classical', 'quantum', 'sampler'] or 'all'"
        with pytest.raises(ValueError, match=re.escape(message)):
            rho_moments.verify.run_suite("nope", 1000, 1)

    def test_perturbed_dirichlet_moment_fails(self, runner, monkeypatch):
        moment = rho_moments.classical.dirichlet_moment

        def corrupted(spec):
            # a scale other than 1 off by a factor: only the simplex-identity check sees it
            return moment(spec) * (2 if spec.scale != 1 else 1)

        monkeypatch.setattr(rho_moments.classical, "dirichlet_moment", corrupted)
        result = runner.invoke(
            main,
            ["verify", "--suite", "classical", "--samples", "5000", "--seed", "7", "--threads", "1"],
        )
        assert result.exit_code == 1
        failed = [line.split()[0] for line in result.output.splitlines() if " FAIL " in line]
        assert failed == ["dirichlet-vs-simplex-identity"]

    def test_tiny_sample_count_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--samples", "10"])
        assert result.exit_code == 2


# Two threads allocate, touch and free two 1 MiB arrays 50 times, as the Monte Carlo
# workers do with chunk arrays; prints the minor faults of the round after a warm-up.
CHUNK_FAULTS_SCRIPT = """
import resource
import threading
import numpy as np
from rho_moments.cli import pin_allocator

pin_allocator()


def work():
    for _ in range(50):
        a, b = np.ones(1 << 17), np.ones(1 << 17)
        del a, b


def run_round():
    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


run_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestPinAllocator:
    def test_every_command_pins_it(self, runner, monkeypatch):
        # every command that draws samples: verify here, --mc below; the exact commands pin nothing
        import rho_moments.cli

        calls = []
        monkeypatch.setattr(rho_moments.cli, "pin_allocator", lambda: calls.append(1))
        result = runner.invoke(main, ["verify", "--suite", "classical", "--samples", "100"])
        assert result.exit_code in (0, 1), result.output
        assert calls == [1]

    @pytest.mark.parametrize(
        "argv, pins",
        [
            (["tables", "sym-chars", "--k", "3"], 0),
            (["qmoment", "--n", "2", "--entries", "1,2 2,1"], 0),
            (["simplex", "--nu", "2,0,1"], 0),
            (["qmoment", "--n", "2", "--entries", "1,2 2,1", "--mc", "100", "1", "--threads", "1"], 1),
            (["simplex", "--nu", "2,0,1", "--mc", "100", "1", "--threads", "1"], 1),
        ],
    )
    def test_only_sampling_commands_pin_it(self, runner, monkeypatch, argv, pins):
        import rho_moments.cli

        calls = []
        monkeypatch.setattr(rho_moments.cli, "pin_allocator", lambda: calls.append(1))
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert len(calls) == pins

    def test_sets_three_glibc_options(self, monkeypatch):
        import rho_moments.cli

        calls = []

        class FakeLibc:
            def mallopt(self, param, value):
                calls.append((param, value))

        monkeypatch.setattr(rho_moments.cli.sys, "platform", "linux")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc())
        rho_moments.cli.pin_allocator()
        # M_MMAP_THRESHOLD 2 MiB, M_TRIM_THRESHOLD 8 MiB, M_ARENA_MAX 1
        assert calls == [(-3, 2 << 20), (-1, 8 << 20), (-8, 1)]

    def test_libc_without_mallopt_is_left_alone(self, monkeypatch):
        import rho_moments.cli

        monkeypatch.setattr(rho_moments.cli.sys, "platform", "linux")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        rho_moments.cli.pin_allocator()

    def test_other_platforms_untouched(self, monkeypatch):
        import rho_moments.cli

        monkeypatch.setattr(rho_moments.cli.sys, "platform", "darwin")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: pytest.fail("libc opened"))
        rho_moments.cli.pin_allocator()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc", reason="glibc mallopt only"
    )
    def test_freed_chunks_are_reused_without_faults(self):
        done = run_fresh(CHUNK_FAULTS_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["qmoment", "--n", "2", "--entries", "1,1", "--mc", "50", "1"],
        ["simplex", "--nu", "2,0,1", "--mc", "50", "1"],
        ["qmoment", "--n", "2", "--entries", "1,1", "--mc", "1000", "-1"],
        ["simplex", "--nu", "2,0,1", "--mc", "1000", "-1"],
        ["tables", "dims", "--k", "2", "--n", "0"],
        ["tables", "dim-char-sum", "--k", "3", "--n", "0"],
        ["verify", "--seed", "-1"],
        ["simplex", "--nu", "1,2", "--lambda", "1e400", "--mc", "100", "1"],
        ["simplex", "--nu", "400", "--lambda", "10", "--mc", "100", "1"],
        ["tables", "sym-chars", "--k", "3", "--cap-k", "-5"],
        ["qmoment", "--n", "2", "--entries", "1,1", "--cap-k", "-1"],
        ["tables", "sym-chars", "--k", "3", "--n", "5"],
        ["tables", "unitary-chars", "--k", "3", "--n", "5"],
        ["simplex", "--nu", "-1,2"],
        ["qmoment", "--n", "2", "--entries", "-1,2"],
        ["qmoment", "--n", "2", "--en", "1,2"],
        [],
        ["bogus"],
    ],
)
def test_bad_input_is_usage_error(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


SMALL = st.integers(-1, 5).map(str)
FORMAT_ARGS = st.sampled_from([[], ["--format", "json"], ["--format", "csv"]])
MC_ARGS = st.one_of(
    st.just([]),
    st.tuples(st.sampled_from(["-1", "0", "50", "100"]), st.sampled_from(["-1", "0", "3"])).map(
        lambda mc: ["--mc", *mc]
    ),
)
# tests that run the real worker pool ask for one or two threads only
THREAD_ARGS = st.sampled_from([[], ["--threads", "1"], ["--threads", "2"]])
GARBLED = st.sampled_from(["", ",", " ", "a", "1,,2", "1;2", "1,2,3", "1/2", "1.5"])
NU = st.one_of(st.lists(st.integers(-1, 3).map(str), min_size=1, max_size=4).map(",".join), GARBLED)
ENTRIES = st.one_of(
    st.lists(st.tuples(SMALL, SMALL).map(",".join), min_size=1, max_size=4).map(" ".join),
    GARBLED,
)


# Scales and powers whose exact values overflow a float or pass the
# exact-arithmetic budget, and exponents and dimensions far beyond it.
LAMBDA_ARGS = st.one_of(
    st.just([]),
    st.sampled_from(["0", "-1", "3/2", "1e400", "1e-400", "1e5000"]).map(lambda x: ["--lambda", x]),
)
F_POWER_ARGS = st.one_of(st.just([]), st.sampled_from(["0", "2", "30000"]).map(lambda m: ["--f-power", m]))
SIMPLEX_NU = st.one_of(
    NU,
    st.lists(st.sampled_from(["0", "1", "3", "99999999"]), min_size=1, max_size=3).map(",".join),
)
QMOMENT_N = st.one_of(SMALL, st.sampled_from(["50", "100000"]))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["tables", "simplex", "qmoment", "verify"]))
    if command == "tables":
        which = draw(st.sampled_from(["sym-chars", "unitary-chars", "dims", "dim-char-sum"]))
        argv = ["tables", which, "--k", draw(SMALL)]
        argv += draw(st.one_of(st.just([]), SMALL.map(lambda n: ["--n", n])))
    elif command == "simplex":
        argv = ["simplex", "--nu", draw(SIMPLEX_NU)]
        argv += draw(st.sampled_from([[], ["--dirichlet"]]))
        argv += draw(LAMBDA_ARGS) + draw(F_POWER_ARGS)
        argv += draw(MC_ARGS) + draw(THREAD_ARGS)
    elif command == "qmoment":
        argv = ["qmoment", "--n", draw(QMOMENT_N), "--entries", draw(ENTRIES)]
        argv += draw(MC_ARGS) + draw(THREAD_ARGS)
    else:
        argv = ["verify", "--suite", draw(st.sampled_from(["classical", "quantum", "sampler", "all", "bogus"]))]
        argv += ["--samples", draw(st.sampled_from(["-1", "0", "50", "100"]))]
        argv += ["--seed", draw(st.sampled_from(["-1", "0", "3"]))] + draw(THREAD_ARGS)
    return argv + draw(FORMAT_ARGS)


@given(cli_argv())
@settings(max_examples=150, deadline=None)
def test_any_input_ends_with_a_documented_exit_code(argv):
    # an uncaught exception propagates out of invoke and fails the test
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert "Traceback" not in result.output


# README lines such as `rho-moments simplex --nu 2,0,1 --lambda 1   # -> 1/60`
README_EXAMPLES = re.findall(r"^rho-moments (.+?)\s+# -> (\S+)$", README.read_text(), re.MULTILINE)


def test_readme_has_annotated_examples():
    assert len(README_EXAMPLES) >= 3


@pytest.mark.parametrize("command, value", README_EXAMPLES)
def test_readme_example_prints_its_value(runner, command, value):
    result = runner.invoke(main, shlex.split(command))
    assert result.exit_code == 0, result.output
    exact = [line.split() for line in result.output.splitlines() if line.startswith("exact_value")]
    assert exact == [["exact_value", value]]


IMPORT_GRAPH_SCRIPT = """
import shlex
import sys
sys.modules["scipy"] = None  # any scipy import now raises
from rho_moments.characters import PowerSumPoly
from rho_moments.cli import main

for argv in (
    "tables sym-chars --k 3",
    "qmoment --n 2 --entries '1,2 2,1'",
    "simplex --nu 2,0,1 --lambda 1",
    "qmoment --n 2 --entries '1,2 2,1' --mc 1000 1 --threads 1",
    "simplex --nu 2,0,1 --mc 1000 1 --threads 1",
    "verify --suite all --samples 1000 --seed 1 --threads 1",
):
    try:
        main.main(args=shlex.split(argv))
    except SystemExit as done:
        code = done.code
    assert code == 0, argv
    loaded = [name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None]
    assert not loaded, (argv, loaded)
"""


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` on this package in a fresh interpreter: pytest has imported numpy and scipy already."""
    package_root = str(Path(rho_moments.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)


def test_ascii_stdout_prints_the_twopi_power_in_utf8():
    # click wrote UTF-8 to a stdout that claims ASCII; the argparse CLI keeps that, not a UnicodeEncodeError
    package_root = str(Path(rho_moments.__file__).parents[1])
    env = dict(os.environ, PYTHONIOENCODING="ascii", PYTHONPATH=package_root)
    argv = [sys.executable, "-m", "rho_moments.cli", "qmoment", "--n", "2", "--entries", "1,2 2,1"]
    done = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (FIXTURES / "qmoment_offdiag.md").read_bytes()


def test_no_command_loads_scipy():
    done = run_fresh(IMPORT_GRAPH_SCRIPT)
    assert done.returncode == 0, done.stderr


NUMPY_GRAPH_SCRIPT = """
import shlex
import sys
import rho_moments
from rho_moments.cli import main

assert "numpy" not in sys.modules, "import rho_moments loaded numpy"
for argv in sys.argv[1:]:
    try:
        main.main(args=shlex.split(argv))
    except SystemExit as done:
        code = done.code
    assert code == 0, argv
print("numpy" in sys.modules)
"""

EXACT_COMMANDS = (
    "tables sym-chars --k 3",
    "tables dims --k 4 --n 3",
    "qmoment --n 2 --entries '1,2 2,1'",
    "simplex --nu 2,0,1 --lambda 1",
    "simplex --nu 2,0 --dirichlet --f-power 1",
)


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["tables", "sym-chars", "--k", "3"], 0, ""),
        (["tables", "sym-chars", "--k", "11"], 1, "Error: K = 11 exceeds the cap of 10; "),
        (["tables", "sym-chars", "--k", "x"], 2, "usage: rho-moments tables "),
    ],
    ids=["good", "capped", "bad"],
)
def test_main_main_exits_with_the_command_code(capsys, monkeypatch, argv, code, stderr):
    # the launcher contract: main.main(args=..., prog_name=...) raises SystemExit(code), and
    # main() reads sys.argv[1:], as the console script calls it
    assert main.name == "rho-moments"
    with pytest.raises(SystemExit) as done:
        main.main(args=argv, prog_name="rho-moments")
    assert done.value.code == code
    assert capsys.readouterr().err.startswith(stderr)
    monkeypatch.setattr(sys, "argv", ["rho-moments", *argv])
    with pytest.raises(SystemExit) as done:
        main()
    assert done.value.code == code


COLD_PATH_SCRIPT = """
import shlex
import sys
from rho_moments.cli import main

for argv in sys.argv[1:]:
    try:
        main.main(args=shlex.split(argv))
    except SystemExit as done:
        code = done.code
    assert code == 0, argv
print(sorted(name for name in ("click", "dataclasses", "inspect", "ctypes") if name in sys.modules))
"""


def test_exact_commands_load_only_the_standard_library():
    # the slow-to-import modules the exact commands no longer load: click, dataclasses (and with it inspect), ctypes
    done = run_fresh(COLD_PATH_SCRIPT, *EXACT_COMMANDS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argvs, loads_numpy",
    [
        (EXACT_COMMANDS, False),
        (("qmoment --n 2 --entries '1,2 2,1' --mc 1000 1 --threads 1",), True),
        (("simplex --nu 2,0,1 --mc 1000 1 --threads 1",), True),
        (("verify --suite classical --samples 1000 --seed 1 --threads 1",), True),
    ],
    ids=["exact", "qmoment-mc", "simplex-mc", "verify"],
)
def test_only_monte_carlo_loads_numpy(argvs, loads_numpy):
    done = run_fresh(NUMPY_GRAPH_SCRIPT, *argvs)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(loads_numpy)
