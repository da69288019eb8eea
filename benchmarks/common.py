"""Paths, child processes, statistics and the environment record.

Importing this module pins the BLAS/OpenMP thread pools to one thread, for
this process and every child it starts, so the Monte Carlo estimators' own
worker threads (at most two) are the only parallelism measured.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from functools import cache
from importlib import metadata
from pathlib import Path
from time import perf_counter

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
CHILD_TIMEOUT_S = 120.0


def require_program() -> None:
    """Exit with a non-zero status unless the program's sources sit next to the benchmark."""
    if not (SRC / "rho_moments" / "cli.py").is_file():
        sys.exit(f"benchmark: no program sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float


def run_child(argv: list[str]) -> Child:
    """Run one process to completion; time it and read its peak RSS.

    Output goes to unnamed files inside the checkout, so the child never
    blocks on a full pipe, and ``os.wait4`` reports the child's own rusage.
    A watchdog kills a child that outlives ``CHILD_TIMEOUT_S``.
    """
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=SCRATCH) as out, tempfile.TemporaryFile(dir=SCRATCH) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            argv=argv,
            wall_s=wall,
            returncode=proc.returncode,
            stdout=out.read().decode(),
            stderr=err.read().decode(),
            maxrss_mb=usage.ru_maxrss / 1024.0,
        )


def python_child(script: str, *args: str) -> Child:
    return run_child([sys.executable, str(BENCH / script), *args])


# reference() takes about this long on the machine the benchmark was defined
# on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6); see README.md.
REF_S = 0.03


@cache
def _reference_matrices():
    import numpy as np

    g = np.random.default_rng(0).standard_normal((2048, 8, 8, 2)) @ np.array([1.0, 1.0j])
    return np, g


def reference() -> float:
    """Wall time of a fixed interpreter-and-numpy computation, a gauge of machine speed.

    The machine this benchmark was defined on drifts by about 20% in speed
    over tens of seconds, in the program and in this computation alike. On
    the workloads where it narrows the spread (``Workload.gauged``), timed
    operations are divided by the gauge read around them, so the drift
    cancels while a change in the program does not.
    """
    np, g = _reference_matrices()
    start = perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    for _ in range(3):
        np.einsum("sij,skj->sik", g, g.conj())
    return perf_counter() - start


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` in seconds at the defining machine's speed (see ``reference``)."""
    return wall * REF_S / (0.5 * (ref_before + ref_after))


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "git_commit": _git_commit(),
        "thread_env": THREAD_ENV,
    }


def load_goldens() -> dict:
    return json.loads((BENCH / "goldens.json").read_text())
