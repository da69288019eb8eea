"""Command-line surface: character tables, moment queries, verification suites.

Exact values stay ``Fraction`` or ``quantum.ScaledRational`` until they are
rendered, so they never pass through floating point: JSON encodes each as a
{numerator, denominator, twopi_exponent} triple through ``exact_json``, CSV
and markdown print ``str(value)``, that is ``p/q`` followed by ``·(2π)^e``
when e is not 0. Monte Carlo reports are floats by nature and are attached
separately. A ``CapExceededError`` from any command, a request past a cap or
the exact-arithmetic budget, exits 1 with its message; a usage error exits 2.
The exact commands (``tables``, and ``qmoment`` and ``simplex`` without
``--mc``) load only the standard library and this package: the parser is
``argparse``, and only the commands that draw samples import ``montecarlo``,
``verify``, numpy and ``ctypes``.
"""

from __future__ import annotations

import argparse
import codecs
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Sequence

from . import classical, quantum
from .characters import (
    dim_char_sum,
    monomial_label,
    sym_character,
    unitary_char_poly,
    weyl_dim,
)
from .classical import MIN_SAMPLES, DirichletSpec, SimplexMomentSpec
from .combinat import check_cap, check_exact_bits, class_order, enumerate_cycle_types, enumerate_partitions
from .errors import CapExceededError
from .quantum import DEFAULT_BOX_CAP, PERMUTATION_SUM_COST, EntryMomentSpec, ScaledRational

if TYPE_CHECKING:
    from .montecarlo import EstimateReport

__all__ = ["main"]

DEFAULT_TABLE_CAP = 10
TABLE_COST = "character tables grow with the partition count"
DESCRIPTION = "Exact moments of the flat density-matrix ensemble and the simplex."
SHOW_DEFAULT = "(default: %(default)s)"
FORMATS = ["json", "csv", "markdown"]


class UsageError(Exception):
    """A bad value found after parsing: exits 2 under the command's usage, as argparse's own errors do."""


def pin_allocator() -> None:
    """Keep freed Monte Carlo chunk memory resident in one glibc arena, for the next chunk to reuse.

    The mmap threshold fixed at 2 MiB keeps the 1 MiB chunk arrays on the heap;
    fixing it also freezes the trim threshold, raised from 128 KiB to 8 MiB so a
    freed chunk is not handed back to the kernel and faulted in again, zero-filled.
    One arena lets the worker threads share freed chunks instead of each keeping
    its own. ``verify --suite all --samples 1000000 --threads 2`` then takes ~9k
    minor faults at a ~50 MB peak, against ~220k with the mmap threshold alone.
    Only the commands that draw samples call it, so only they load ``ctypes``.
    """
    if sys.platform.startswith("linux"):
        import ctypes

        mallopt = getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)
        mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


def parse_rational(text: str, label: str) -> Fraction:
    """``text`` as a Fraction; one past the exact-arithmetic budget is refused before it is built.

    ``Fraction`` multiplies a decimal exponent out, so the size is bounded from
    the text: neither term has more digits than the mantissa plus the exponent.
    """
    mantissa, _, exponent = text.strip().lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "")
    try:
        # a ten-digit exponent is past any budget, and int() of a long one is slow
        digits = sum(c.isdigit() for c in mantissa) + (
            int(exponent or 0) if len(exponent.lstrip("0")) < 10 else math.inf
        )
        check_exact_bits(digits * math.log2(10), label)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{label} must be a rational like 3 or 5/2, got {text!r}") from exc


def parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--nu must be a comma list of integers, got {text!r}") from exc


def parse_entry_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in text.split():
        bits = token.split(",")
        if len(bits) != 2:
            raise UsageError(f"each entry must look like i,j; got {token!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise UsageError(f"indices must be integers, got {token!r}") from exc
    if not pairs:
        raise UsageError("--entries must name at least one i,j pair")
    return tuple(pairs)


def exact_json(value: int | Fraction | ScaledRational) -> dict:
    """The JSON triple of an exact value; ``json.dumps`` calls it on every value it cannot encode."""
    if not isinstance(value, ScaledRational):
        value = ScaledRational(value)  # a TypeError for anything but a rational
    return {
        "numerator": value.rational.numerator,
        "denominator": value.rational.denominator,
        "twopi_exponent": value.twopi_exponent,
    }


def echo_json(doc: dict) -> None:
    import json  # imported by the one format that needs it, as csv is below

    print(json.dumps(doc, indent=2, default=exact_json))


def echo_csv(rows: Iterable[Iterable]) -> None:
    import csv

    csv.writer(sys.stdout).writerows(rows)


def echo_aligned(pairs: list[tuple[str, str]]) -> None:
    """One ``key  value`` line per pair, the keys padded to one width."""
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)}  {value}")


def mc_report_json(report: EstimateReport) -> dict:
    return {
        "estimate": {"re": report.estimate.real, "im": report.estimate.imag},
        "std_error": report.std_error,
        "z_score": report.z_score,
        "sample_count": report.sample_count,
        "seed": report.seed,
    }


def emit_table(fmt: str, name: str, meta: dict, columns: list[str], rows: list[list]) -> None:
    """Render one table whose first column holds labels and the rest exact values."""
    if fmt == "json":
        payload_rows = [
            {col: cell if isinstance(cell, str) else exact_json(cell) for col, cell in zip(columns, row)}
            for row in rows
        ]
        echo_json({"table": name, **meta, "columns": columns, "rows": payload_rows})
        return
    text_rows = [columns] + [[str(cell) for cell in row] for row in rows]
    if fmt == "csv":
        echo_csv(text_rows)
        return
    widths = [max(len(r[i]) for r in text_rows) for i in range(len(columns))]
    header, *body = text_rows
    print("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |")
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in body:
        print("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")


def flatten(node, prefix: str = ""):
    """(dotted key, text) per leaf of a nested document; a list is one leaf of space-joined items."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from flatten(child, f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, " ".join(map(str, node)) if isinstance(node, list) else str(node)


def emit_query(fmt: str, doc: dict) -> None:
    """Render a single-result document: query fields, exact value, optional extras."""
    if fmt == "json":
        echo_json(doc)
    elif fmt == "csv":
        echo_csv(zip(*flatten(doc)))
    else:
        echo_aligned(list(flatten(doc)))


def warn_raised_cap(cap: int, default: int, cost: str) -> None:
    if cap > default:
        print(f"warning: cap raised above {default}; {cost}", file=sys.stderr)


def cmd_tables(which: str, k: int, n: int | None, fmt: str, cap_k: int) -> None:
    """Print character/dimension tables; K <= 4 reproduces the reference tables."""
    if k < 0 or (which != "dim-char-sum" and k < 1):
        raise UsageError("k must be positive (dim-char-sum allows 0)")
    if n is not None and which in ("sym-chars", "unitary-chars"):
        raise UsageError(f"--n does not apply to {which}")
    check_cap(k, cap_k, TABLE_COST)
    warn_raised_cap(cap_k, DEFAULT_TABLE_CAP, TABLE_COST)
    if n is not None:
        # no printed value exceeds about n^k
        check_exact_bits(k * n.bit_length(), f"--n to the power k={k}")

    if which == "sym-chars":
        classes = enumerate_cycle_types(k)
        columns = ["irrep"] + [c.label() for c in classes]
        rows: list[list] = [["order"] + [class_order(c) for c in classes]]
        for irrep in enumerate_partitions(k):
            rows.append([str(irrep)] + [sym_character(irrep, c) for c in classes])
        emit_table(fmt, "sym-chars", {"k": k}, columns, rows)
    elif which == "unitary-chars":
        classes = enumerate_cycle_types(k)
        columns = ["irrep"] + [monomial_label(c.counts) for c in classes]
        rows = []
        for irrep in enumerate_partitions(k):
            poly = unitary_char_poly(irrep)
            rows.append([str(irrep)] + [poly.coefficient(c.counts) for c in classes])
        emit_table(fmt, "unitary-chars", {"k": k}, columns, rows)
    elif which == "dims":
        if n is None:
            raise UsageError("--n is required for dims")
        columns = ["irrep", "dim"]
        rows = [[str(irrep), weyl_dim(irrep, n)] for irrep in enumerate_partitions(k)]
        emit_table(fmt, "dims", {"k": k, "n": n}, columns, rows)
    else:
        if n is None:
            n = max(k, 1)
        poly = dim_char_sum(k, n)
        columns = ["monomial", "coefficient"]
        rows = [[monomial_label(c.counts), poly.coefficient(c.counts)] for c in enumerate_cycle_types(k)]
        emit_table(fmt, "dim-char-sum", {"k": k, "n": n}, columns, rows)


def cmd_simplex(
    nu: str, lam: str, dirichlet: bool, f_power: int, mc: tuple[int, int] | None, threads: int, fmt: str
) -> None:
    """Exact simplex/Dirichlet moment for the given exponents and scale."""
    exponents = parse_exponents(nu)
    scale = parse_rational(lam, "--lambda")
    try:
        if dirichlet:
            spec = DirichletSpec(exponents, scale, f_power)
            exact = classical.dirichlet_moment(spec)
        else:
            if f_power:
                raise UsageError("--f-power needs --dirichlet")
            spec = SimplexMomentSpec(exponents, scale)
            exact = classical.simplex_moment(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    doc = {
        "query": {
            "integral": "dirichlet" if dirichlet else "simplex",
            "nu": list(exponents),
            "lambda": scale,
            **({"f_power": f_power} if dirichlet else {}),
        },
        "exact_value": exact,
    }
    if mc is not None:
        pin_allocator()
        from . import montecarlo

        samples, seed = mc
        estimate = montecarlo.estimate_dirichlet_moment if dirichlet else montecarlo.estimate_simplex_moment
        try:
            report = estimate(spec, samples, seed, workers=threads)
        except ValueError as exc:
            raise UsageError(f"argument --mc: {exc}") from exc
        doc["mc_report"] = mc_report_json(report)
    emit_query(fmt, doc)


def cmd_qmoment(n: int, entries: str, mc: tuple[int, int] | None, threads: int, cap_k: int, fmt: str) -> None:
    """Exact mean of a product of density-matrix entries."""
    pairs = parse_entry_pairs(entries)
    try:
        spec = EntryMomentSpec(n, pairs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    warn_raised_cap(cap_k, DEFAULT_BOX_CAP, PERMUTATION_SUM_COST)
    exact = quantum.entry_moment(spec, max_boxes=cap_k)
    doc = {
        "query": {"n": n, "entries": [list(p) for p in pairs]},
        "exact_value": exact,
        "raw_value": quantum.hs_volume(n) * exact,
    }
    if mc is not None:
        pin_allocator()
        from . import montecarlo

        samples, seed = mc
        [report] = montecarlo._entry_reports([spec], [exact], samples, seed, threads)
        doc["mc_report"] = mc_report_json(report)
    emit_query(fmt, doc)


def cmd_verify(suite: str, samples: int, seed: int, threads: int, fmt: str) -> int:
    """Run the self-check suites; exit 0 only if every check passes."""
    pin_allocator()
    from . import verify

    results = verify.run_suite(suite, samples, seed, threads)
    all_passed = all(r.passed for r in results)
    rows = [[r.name, "pass" if r.passed else "FAIL", r.detail] for r in results]
    if fmt == "json":
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        echo_json(
            {"suite": suite, "samples": samples, "seed": seed, "checks": checks, "all_passed": all_passed}
        )
    elif fmt == "csv":
        echo_csv([["check", "passed", "detail"], *rows])
    else:
        echo_aligned([(name, f"{status}  {detail}") for name, status, detail in rows])
        print(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed "
            f"(suite={suite}, samples={samples}, seed={seed})"
        )
    return 0 if all_passed else 1


def int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


class MonteCarloOption(argparse.Action):
    """``--mc SAMPLES SEED``, its ranges checked while parsing, before any command runs, as every range is."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        samples, seed = values
        if samples < MIN_SAMPLES or seed < 0:
            raise argparse.ArgumentError(self, f"needs SAMPLES >= {MIN_SAMPLES} and SEED >= 0, got {samples} {seed}")
        setattr(namespace, self.dest, (samples, seed))


def build_parser(prog: str) -> argparse.ArgumentParser:
    """The parser; each command's parser sets ``run``, the command's function, and ``command_parser``, itself."""
    # allow_abbrev=False throughout: an abbreviation such as --en for --entries is refused
    parser = argparse.ArgumentParser(prog=prog, description=DESCRIPTION, allow_abbrev=False)
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(name: str, run: Callable) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run, command_parser=sub)
        return sub

    tables = command("tables", cmd_tables)
    tables.add_argument("which", choices=["sym-chars", "unitary-chars", "dims", "dim-char-sum"])
    tables.add_argument("--k", required=True, type=int, help="Number of boxes K.")
    tables.add_argument("--n", type=int_at_least(1), help="Matrix dimension N (dims, dim-char-sum).")
    tables.add_argument("--cap-k", type=int_at_least(0), default=DEFAULT_TABLE_CAP, help=SHOW_DEFAULT)
    simplex = command("simplex", cmd_simplex)
    simplex.add_argument("--nu", required=True, help="Comma list of non-negative exponents.")
    simplex.add_argument(
        "--lambda", dest="lam", default="1", metavar="LAMBDA", help="Scale as a rational. " + SHOW_DEFAULT
    )
    simplex.add_argument("--dirichlet", action="store_true", help="Open-region Dirichlet integral instead.")
    simplex.add_argument(
        "--f-power", type=int, default=0, help="Weight power m in f(t)=t^m (Dirichlet only). " + SHOW_DEFAULT
    )
    qmoment = command("qmoment", cmd_qmoment)
    qmoment.add_argument("--n", required=True, type=int, help="Matrix dimension N.")
    qmoment.add_argument("--entries", required=True, help='Index pairs like "1,1 1,2" (1-based).')
    qmoment.add_argument("--cap-k", type=int_at_least(0), default=DEFAULT_BOX_CAP, help=SHOW_DEFAULT)
    verify = command("verify", cmd_verify)
    verify.add_argument("--suite", choices=["classical", "quantum", "sampler", "all"], default="all", help=SHOW_DEFAULT)
    verify.add_argument("--samples", type=int_at_least(MIN_SAMPLES), default=100000, help=SHOW_DEFAULT)
    verify.add_argument("--seed", type=int_at_least(0), default=1, help=SHOW_DEFAULT)
    for sub in (simplex, qmoment):
        sub.add_argument(
            "--mc", nargs=2, type=int, action=MonteCarloOption, metavar=("SAMPLES", "SEED"),
            help=f"Attach a Monte Carlo report (SAMPLES >= {MIN_SAMPLES}, SEED >= 0).",
        )
    for sub in (simplex, qmoment, verify):
        sub.add_argument("--threads", type=int, default=os.cpu_count() or 1, help="Worker count (default: CPU count).")
    for sub in (tables, simplex, qmoment, verify):
        sub.add_argument("--format", dest="fmt", choices=FORMATS, default="markdown", help=SHOW_DEFAULT)
    return parser


def main(args: Sequence[str] | None = None, prog_name: str = "rho-moments") -> NoReturn:
    """Parse ``args`` (by default ``sys.argv[1:]``), run the command, and exit with its code.

    The code is 0, 1 (a failed check or a resource limit) or 2 (a usage error),
    raised as ``SystemExit``. ``main.main(args=..., prog_name=...)`` is this same
    function: the form ``click.testing.CliRunner`` and ``benchmarks/launcher.py`` call.
    """
    # Exact values print in full, their size bounded by the budget in ``combinat``;
    # Python before 3.10.7 has no int-to-str digit limit to lift. It is lifted
    # before parsing, so the budget, not int(), refuses a long --n, with exit 1.
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)
    if codecs.lookup(sys.stdout.encoding).name == "ascii":
        sys.stdout.reconfigure(encoding="utf-8")  # as click did, so "·(2π)^e" prints under an ASCII locale
    options = vars(build_parser(prog_name).parse_args(args))
    run, command_parser = options.pop("run"), options.pop("command_parser")
    try:
        code = run(**options) or 0
        sys.stdout.flush()  # a reader that left shows here, as BrokenPipeError
    except UsageError as exc:
        command_parser.error(str(exc))
    except CapExceededError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 1
    except BrokenPipeError:
        # nothing more can be shown: point stdout at /dev/null, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except KeyboardInterrupt:
        print("Aborted!", file=sys.stderr)
        code = 1
    raise SystemExit(code)


main.name = "rho-moments"
main.main = main


if __name__ == "__main__":
    main()
