"""Record the benchmark's golden outputs: ``python benchmarks/make_goldens.py``.

Every golden is the program's own answer for a base input at the commit the
file was recorded at. The workloads transform those base inputs in ways that
leave the exact answer unchanged, so the goldens hold for every seed. Rerun
this only when an exact output is meant to change, and say so.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import common
from workloads import FORMATS, PURITY_NS, digest, sweep_specs

common.require_program()

from click.testing import CliRunner  # noqa: E402

from rho_moments import characters, classical, quantum  # noqa: E402
from rho_moments.cli import main as cli_main  # noqa: E402
from rho_moments.combinat import CycleType  # noqa: E402
from rho_moments.quantum import EntryMomentSpec  # noqa: E402

QMOMENT_BASES = [
    (2, [(1, 2), (2, 1)]),
    (2, [(1, 1), (1, 1)]),
    (3, [(1, 2), (2, 3), (3, 1)]),
    (4, [(1, 1), (2, 2), (3, 3), (4, 4)]),
    (3, [(1, 2), (2, 1), (3, 3), (3, 3)]),
    (4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 1)]),
    (3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)]),
    (2, [(1, 2), (2, 1), (1, 1), (2, 2), (1, 2), (2, 1), (2, 2)]),
    (4, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (3, 1), (2, 4), (4, 2)]),
    (3, [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1), (1, 2), (3, 3), (2, 2)]),
    (1, [(1, 1)] * 5),
    (4, [(1, 4)]),
]
SIMPLEX_BASES = [
    ((2, 0, 1), "1", None),
    ((1, 1, 1, 1), "2", None),
    ((3, 0), "1/2", None),
    ((0, 4, 1), "3", None),
    ((2, 2, 2), "1", None),
    ((1, 0), "1", 1),
    ((2, 1), "3/2", 2),
    ((0, 0, 3), "1", 0),
]
ENTRY_BASES = {
    "em8": (3, [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1), (1, 2), (3, 3), (2, 2)]),
    "em9": (3, [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1), (1, 2), (3, 3), (2, 2), (3, 3)]),
}
OMEGA_BASES = {"om8": ((2, 1, 0, 1), 8), "om7": ((1, 1, 0, 1), 7)}
DIM_CHAR_SUM_ARGS = [(12, 4), (10, 10)]
MC_WIDE_PAIRS = [[(1, 2), (2, 1)], [(3, 3), (5, 5)]]


def table_pool():
    for which, ks, ns in (
        ("sym-chars", range(5, 9), None),
        ("unitary-chars", range(5, 9), None),
        ("dims", range(1, 9), range(1, 5)),
        ("dim-char-sum", range(0, 9), range(1, 5)),
    ):
        for k in ks:
            for n in ns or [None]:
                for fmt in FORMATS:
                    argv = ["tables", which, "--k", str(k)]
                    if n is not None:
                        argv += ["--n", str(n)]
                    yield argv + ["--format", fmt]


def cli_goldens() -> dict:
    runner = CliRunner()
    tables = {}
    for argv in table_pool():
        result = runner.invoke(cli_main, argv)
        if result.exit_code != 0:
            raise SystemExit(f"{argv}: exit {result.exit_code}")
        tables[" ".join(argv)] = hashlib.sha256(result.stdout_bytes).hexdigest()
    qmoment = []
    for n, pairs in QMOMENT_BASES:
        exact = quantum.entry_moment(EntryMomentSpec(n, tuple(pairs)))
        raw = quantum.hs_volume(n) * exact
        qmoment.append({"n": n, "pairs": pairs, "exact": str(exact), "raw": str(raw)})
    simplex = []
    for nu, lam, f_power in SIMPLEX_BASES:
        if f_power is None:
            exact = classical.simplex_moment(classical.SimplexMomentSpec(nu, lam))
        else:
            exact = classical.dirichlet_moment(classical.DirichletSpec(nu, lam, f_power))
        simplex.append(
            {"nu": nu, "lambda": lam, "dirichlet": f_power is not None,
             "f_power": f_power or 0, "exact": str(exact)}
        )
    return {"tables": tables, "qmoment": qmoment, "simplex": simplex}


def exact_large_goldens() -> dict:
    rng = np.random.default_rng(2002)
    out = {}
    for key, k in (("mt8", 8), ("mt7", 7)):
        base = rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))
        value = quantum.moment_traces(list(base))
        out[key] = {"re": base.real.tolist(), "im": base.imag.tolist(),
                    "value": [value.real, value.imag]}
    for key, (counts, k) in OMEGA_BASES.items():
        expr = quantum.omega_expand(CycleType(counts), k)
        out[key] = {"counts": counts, "k": k, "sha256": digest(expr.terms.items())}
    for key, (n, pairs) in ENTRY_BASES.items():
        value = quantum.entry_moment(EntryMomentSpec(n, tuple(pairs)), max_boxes=len(pairs))
        out[key] = {"n": n, "pairs": pairs, "exact": str(value)}
    out["dcs"] = {
        "args": DIM_CHAR_SUM_ARGS,
        "sha256": [digest(characters.dim_char_sum(k, n).terms.items()) for k, n in DIM_CHAR_SUM_ARGS],
    }
    return out


def main() -> None:
    goldens = {
        "cli": cli_goldens(),
        "exact_large": exact_large_goldens(),
        "exact_small": {
            "sweep": [str(quantum.entry_moment(EntryMomentSpec(n, p))) for n, p in sweep_specs()],
            "purity": [str(quantum.purity_mean(n)) for n in PURITY_NS],
        },
        "mc_wide": {
            "entry_pairs": MC_WIDE_PAIRS,
            "purity": [str(quantum.purity_mean(8))],
            "entries": [str(quantum.entry_moment(EntryMomentSpec(8, tuple(p)))) for p in MC_WIDE_PAIRS],
        },
    }
    path = common.BENCH / "goldens.json"
    path.write_text(json.dumps(goldens, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
