"""Set-up probe: ``python probe.py {import,exact,mc}``.

Runs in a fresh interpreter, times ``import rho_moments.cli`` and then the
warm-up a workload needs before its first timed operation, and prints both as
one JSON line. ``import`` stops after the import: a CLI user pays nothing else.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import common  # pins BLAS threads before numpy loads


def warm_exact() -> None:
    from rho_moments import characters, quantum
    from rho_moments.combinat import CycleType
    from rho_moments.quantum import EntryMomentSpec

    quantum.entry_moment(EntryMomentSpec(2, ((1, 2), (2, 1), (1, 1), (2, 2))))
    quantum.omega_expand(CycleType((1, 1)), 3)
    quantum.moment_traces([[[1.0, 0.5j], [-0.5j, 2.0]]] * 2 + [[[0.0, 1.0], [1.0, 0.0]]])
    characters.dim_char_sum(5, 3)


def warm_mc() -> None:
    from rho_moments import montecarlo

    montecarlo.estimate_purity(8, 1 << 14, 0, workers=2)


WARMUPS = {"import": None, "exact": warm_exact, "mc": warm_mc}


def main() -> None:
    warm = WARMUPS[sys.argv[1]]
    common.require_program()
    start = perf_counter()
    import rho_moments.cli  # noqa: F401

    imported = perf_counter()
    if warm is not None:
        warm()
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))


if __name__ == "__main__":
    main()
