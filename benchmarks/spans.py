"""Outside-in span and counter recorder for the rho-moments benchmark.

The recorder wraps the public functions of each ``rho_moments`` module in
every module namespace that binds them, so a call made through any import
route is timed. Spans are kept in memory as tuples and handed to the caller
at the end of each operation; nothing is written while the program runs.

Self time is a span's duration minus the wall time its children cover. When
children overlap, as the Monte Carlo samplers do in worker threads, the
covered wall is shared among them in proportion to their durations, so the
self times of one operation always add up to its root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from math import factorial
from time import perf_counter

LAYERS = ("combinat", "characters", "classical", "quantum", "montecarlo", "verify", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _entry_terms(args, kwargs):
    return "", {"terms": factorial(_arg(args, kwargs, 0, "spec").order())}


def _traces_terms(args, kwargs):
    return "", {"terms": factorial(len(_arg(args, kwargs, 0, "observables")))}


def _omega_terms(args, kwargs):
    return "", {"terms": factorial(_arg(args, kwargs, 1, "k"))}


def _density_samples(args, kwargs):
    return f".n{_arg(args, kwargs, 0, 'n')}", {"samples": _arg(args, kwargs, 1, "count")}


def _simplex_samples(args, kwargs):
    return "", {"samples": _arg(args, kwargs, 1, "count")}


# Work counts recorded at the call boundary. ``terms`` is K! per call as the
# permutation-sum formula states it, a computed count, not one the program
# reports. Sampler calls are split by matrix dimension.
HOOKS = {
    "quantum.entry_moment": _entry_terms,
    "quantum.moment_traces": _traces_terms,
    "quantum.omega_expand": _omega_terms,
    "montecarlo.sample_density_batch": _density_samples,
    "classical.sample_simplex_batch": _simplex_samples,
}


class Recorder:
    """Collects spans ``(id, name, start, end, parent)`` and named counters."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        # A worker thread's first span belongs to whatever the main thread is
        # waiting in, which is the call that submitted the work.
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def take(self):
        """Return and forget the spans and counters recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    def wrap(self, fn, name: str):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                full = name
                if hook is not None:
                    suffix, counts = hook(args, kwargs)
                    full = name + suffix
                    for key, value in counts.items():
                        self.count(f"{full}.{key}", value)
                self.spans.append((sid, full, start, end, parent))

        return wrapper


def _public_functions(module, layer: str):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield obj, f"{layer}.{attr}"


@contextmanager
def installed(recorder: Recorder):
    """Wrap every public function of every layer for the duration of the block.

    A function imported with ``from ... import`` is bound in several module
    namespaces; each binding is replaced, and all are restored on exit. The
    suite functions stored in ``verify.SUITES`` are wrapped as
    ``verify.<suite>``.
    """
    import rho_moments
    from rho_moments import verify

    modules = [importlib.import_module(f"rho_moments.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for fn, name in _public_functions(module, layer):
            wrappers[id(fn)] = (fn, recorder.wrap(fn, name))
    patched = []
    for module in [rho_moments, *modules]:
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
                patched.append((module, attr, obj))
    suites = dict(verify.SUITES)
    for suite, fn in suites.items():
        verify.SUITES[suite] = recorder.wrap(fn, f"verify.{suite}")
    try:
        yield
    finally:
        verify.SUITES.update(suites)
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def self_times(spans) -> dict[int, float]:
    """Self time of each span id; they sum to the durations of the roots."""
    by_id = {s[0]: s for s in spans}
    children: dict[int | None, list[int]] = defaultdict(list)
    for sid, _name, _start, _end, parent in spans:
        children[parent if parent in by_id else None].append(sid)

    out: dict[int, float] = {}
    todo = [(sid, 1.0) for sid in children[None]]
    while todo:
        sid, weight = todo.pop()
        _, _, start, end, _ = by_id[sid]
        kids = children.get(sid, [])
        intervals = sorted(
            (max(by_id[k][2], start), min(by_id[k][3], end)) for k in kids
        )
        covered = 0.0
        at = start
        for lo, hi in intervals:
            lo = max(lo, at)
            if hi > lo:
                covered += hi - lo
                at = hi
        out[sid] = weight * max(end - start - covered, 0.0)
        total = sum(by_id[k][3] - by_id[k][2] for k in kids)
        share = weight * (covered / total if total > covered else 1.0)
        todo.extend((k, share) for k in kids)
    return out
