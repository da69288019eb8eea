#!/usr/bin/env python3
"""Run one workload of the rho-moments benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace {0,1} [--out FILE]

Workloads: cli-cold, exact-large, exact-small, mc-verify, mc-wide (see
``workloads.py`` and ``README.md``). With ``--trace 0`` the run measures the
untraced program and reports the end-to-end metrics listed in
``BENCHMARK.json``. With ``--trace 1`` every operation runs twice, untraced and
then with every layer's public functions wrapped, and the run reports the
per-layer metrics plus the tracing overhead. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--out`` also writes
the environment, every operation's wall time and, when tracing, every span.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import common
import spans
from probe import WARMUPS
from workloads import WORKLOADS

SETUP_PROBES = 7


def metric_units() -> dict[str, dict[str, str]]:
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {
        "0": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


class LayerTotals:
    """Per-layer sums over the traced operations of one run."""

    def __init__(self):
        self.ops = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.dur_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)
        self.mn = [0, 0]
        self.accounting = []  # (untraced wall, traced wall, layer self sum)
        self.kept_spans = []

    def add(self, traced_wall, span_list, counts, mn, untraced_wall, keep=False):
        own = spans.self_times(span_list)
        layer_sum = 0.0
        for sid, name, start, end, _parent in span_list:
            self.calls[name] += 1
            self.self_s[name] += own[sid]
            self.dur_s[name] += end - start
            layer = name.split(".", 1)[0]
            self.layer_self[layer] += own[sid]
            if layer != "bench":
                layer_sum += own[sid]
        for key, value in counts.items():
            self.counts[key] += value
        self.mn[0] += mn[0]
        self.mn[1] += mn[1]
        self.ops += 1
        self.accounting.append((untraced_wall, traced_wall, layer_sum))
        if keep:
            self.kept_spans.append(span_list)

    def metrics(self, wl, probes, walls) -> dict[str, float]:
        per = 1.0 / max(self.ops, 1)
        m = {}
        if wl.in_process:
            m["cli.import_s"] = common.median([p["import_s"] for p in probes])
            m["cli.command_s"] = 0.0
            m["cli.process_overhead_s"] = 0.0
        else:
            m["cli.import_s"] = self.dur_s["cli.import"] * per
            m["cli.command_s"] = self.dur_s["cli.command"] * per
            m["cli.process_overhead_s"] = (
                sum(a[1] for a in self.accounting) - self.dur_s["cli.import"] - self.dur_s["cli.command"]
            ) * per
        for fn in ("entry_moment", "moment_traces", "omega_expand"):
            name = f"quantum.{fn}"
            m[f"{name}.calls"] = self.calls[name] * per
            m[f"{name}.self_s"] = self.self_s[name] * per
            m[f"{name}.terms"] = self.counts[f"{name}.terms"] * per
        m["quantum.purity_mean.s"] = self.dur_s["quantum.purity_mean"] * per
        m["characters.dim_char_sum.s"] = self.dur_s["characters.dim_char_sum"] * per
        m["characters.unitary_char_poly.s"] = self.dur_s["characters.unitary_char_poly"] * per
        lookups = self.mn[0] + self.mn[1]
        m["characters.mn_cache.hit_ratio"] = self.mn[0] / lookups if lookups else 0.0
        m["combinat.self_s"] = self.layer_self["combinat"] * per

        def per_msample(name: str) -> float:
            samples = self.counts[f"{name}.samples"]
            return self.dur_s[name] / samples * 1e6 if samples else 0.0

        m["classical.sample_simplex_batch.s_per_msample"] = per_msample(
            "classical.sample_simplex_batch"
        )
        flops = nbytes = drawn = 0.0
        for key, samples in self.counts.items():
            if key.startswith("montecarlo.sample_density_batch.n"):
                n = int(key.split(".")[2][1:])
                flops += 8 * n**3 * samples  # complex n x n Gram product per sample
                nbytes += 3 * 16 * n * n * samples  # read G and conj(G), write G G^H
                drawn += samples
        for n in (2, 3, 8):
            m[f"montecarlo.sample_density_batch.n{n}.s_per_msample"] = per_msample(
                f"montecarlo.sample_density_batch.n{n}"
            )
        drawn += self.counts["classical.sample_simplex_batch.samples"]
        m["montecarlo.samples_drawn"] = drawn * per
        m["montecarlo.gram.ops_per_byte_computed"] = flops / nbytes if nbytes else 0.0
        m["montecarlo.estimator_overhead_s"] = sum(
            value for name, value in self.self_s.items()
            if name.startswith("montecarlo.estimate_")
        ) * per
        m["montecarlo.ks_eigenvalue_check.s"] = self.dur_s["montecarlo.ks_eigenvalue_check"] * per
        for suite in ("classical", "quantum", "sampler"):
            m[f"verify.{suite}.s"] = self.dur_s[f"verify.{suite}"] * per
        m["montecarlo.w1_samples_per_s"] = 0.0
        m["montecarlo.scaling_eff_2w"] = 0.0
        if walls.get("w1") and walls.get("w2"):
            rate1 = wl.SAMPLES / common.median(walls["w1"])
            rate2 = wl.SAMPLES / common.median(walls["w2"])
            m["montecarlo.w1_samples_per_s"] = rate1
            m["montecarlo.scaling_eff_2w"] = rate2 / (2.0 * rate1)
        m["tracing_overhead_s"] = sum(a[1] - a[0] for a in self.accounting) * per
        return m

    def accounting_line(self) -> str:
        """Compare the layers' self time with the traced and untraced walls, per operation.

        The layers' self times cover the traced wall except the harness's own
        time; their difference from the untraced wall is the tracing overhead,
        which run-to-run noise can make negative.
        """
        untraced, traced, layers = (sum(col) / self.ops for col in zip(*self.accounting))
        return (
            f"accounting: layer self time {layers:.6f} s per op, {layers / traced:.2%} of the "
            f"traced wall {traced:.6f} s; untraced wall {untraced:.6f} s, residual "
            f"{layers - untraced:+.6f} s against a tracing overhead of {traced - untraced:+.6f} s"
        )


def run_probe(wl, ref_before: float) -> dict:
    """Time set-up once in a fresh process; the gauge is read again after it."""
    child = common.python_child("probe.py", wl.probe)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-500:]}")
    probe = json.loads(child.stdout.strip().splitlines()[-1])
    probe["ref_after"] = common.reference()
    probe["scaled_setup_s"] = common.scaled(probe["setup_s"], ref_before, probe["ref_after"])
    return probe


def untraced(wl, op):
    """Run one operation as users do; return (output, wall seconds)."""
    if not wl.in_process:
        child = wl.execute(op)
        return child, child.wall_s
    wl.prepare()
    t0 = perf_counter()
    out = wl.execute(op)
    return out, perf_counter() - t0


def traced(wl, op, recorder):
    """Run one operation with every layer wrapped.

    Returns (output, wall seconds, spans, counters, Murnaghan-Nakayama cache
    (hits, misses) during the operation).
    """
    if not wl.in_process:
        child, doc = wl.traced(op)
        span_list = [tuple(s) for s in doc.get("spans", [])]
        return child, child.wall_s, span_list, doc.get("counts", {}), doc.get("mn_cache", (0, 0))
    from rho_moments import characters

    wl.prepare()
    before = characters._mn_character.cache_info()
    with spans.installed(recorder):
        t0 = perf_counter()
        with recorder.span("bench.op"):
            out = wl.execute(op)
        wall = perf_counter() - t0
    after = characters._mn_character.cache_info()
    span_list, counts = recorder.take()
    mn = (after.hits - before.hits, after.misses - before.misses)
    return out, wall, span_list, counts, mn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write a full result document here")
    args = parser.parse_args()

    common.require_program()
    units = metric_units()[str(args.trace)]
    env = common.environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    wl = WORKLOADS[args.workload](common.load_goldens())
    rng = random.Random(args.seed)
    ops = wl.ops(rng)
    recorder = spans.Recorder() if args.trace else None
    totals = LayerTotals()
    timed = []  # (tag, wall, index of the gauge reading taken just before)
    peak_child_mb = 0.0
    attempted = failed = 0
    errors: list[str] = []

    def judge(op, out) -> None:
        nonlocal attempted, failed
        attempted += 1
        problems = wl.check(op, out)
        if problems:
            failed += 1
            where = "" if wl.in_process else f" {op.payload}"
            errors.extend(f"{op.tag}{where}: {p}" for p in problems[:3])

    if WARMUPS[wl.probe] is not None:
        WARMUPS[wl.probe]()  # the warm-up the set-up probes time, here untimed

    # Untraced runs of a fixed-count workload do exactly that many ops. A
    # traced op costs about twice as much, and per-layer metrics are per op,
    # so a traced run stops on time, at most at the fixed count.
    fixed = wl.fixed_ops(args.seconds)
    start = perf_counter()
    probe_s = 0.0  # set-up probes run between ops but outside the measured time
    costs: list[float] = []
    # The gauge is read on every workload, also where it is not applied, so
    # that raw and scaled spreads can be compared from the same runs (--out).
    refs = [common.reference()]
    probes: list[dict] = []

    def elapsed() -> float:
        return perf_counter() - start - probe_s

    def more() -> bool:
        if fixed is not None and not args.trace:
            return len(costs) < fixed
        if len(costs) < wl.min_ops:
            return True
        if fixed is not None and len(costs) >= fixed:
            return False
        return elapsed() + common.median(costs) <= args.seconds

    while more():
        # Spread the set-up probes over the run, so a slow phase of the
        # machine does not catch all of them.
        if len(probes) < min(SETUP_PROBES, SETUP_PROBES * elapsed() / args.seconds):
            t0 = perf_counter()
            probes.append(run_probe(wl, refs[-1]))
            refs.append(probes[-1]["ref_after"])
            probe_s += perf_counter() - t0
        began = perf_counter()
        op = next(ops)
        try:
            if recorder is None:
                out, wall = untraced(wl, op)
            elif len(costs) % 2:  # alternate which run goes first
                traced_run = traced(wl, op, recorder)
                out, wall = untraced(wl, op)
            else:
                out, wall = untraced(wl, op)
                traced_run = traced(wl, op, recorder)
            timed.append((op.tag, wall, len(refs) - 1))
            if not wl.in_process:
                peak_child_mb = max(peak_child_mb, out.maxrss_mb)
            judge(op, out)
            if recorder is not None:
                judge(op, traced_run[0])
                totals.add(*traced_run[1:], untraced_wall=wall, keep=bool(args.out))
        except Exception:  # a crash in the program is a failed operation, not a crash of the run
            if recorder is not None:
                recorder.take()
            attempted += 1
            failed += 1
            errors.append(f"{op.tag}: {traceback.format_exc(limit=3).strip()}")
        refs.append(common.reference())
        costs.append(perf_counter() - began)
    measured_s = elapsed()
    while len(probes) < SETUP_PROBES:
        probes.append(run_probe(wl, refs[-1]))
        refs.append(probes[-1]["ref_after"])

    walls = defaultdict(list)
    for tag, wall, _ in timed:
        walls["all"].append(wall)
        walls[tag].append(wall)
    setup_key = "scaled_setup_s" if wl.gauged else "setup_s"
    probe_setup = [p[setup_key] for p in probes]
    primary = [
        common.scaled(wall, refs[i], refs[i + 1]) if wl.gauged else wall
        for tag, wall, i in timed
        if wl.primary in (None, tag)
    ]
    if args.trace:
        values = totals.metrics(wl, probes, walls)
    else:
        if wl.in_process:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_mb = peak_child_mb
        values = {
            "op_p50_s": common.median(primary) if primary else 0.0,
            "setup_s": common.median(probe_setup),
            "peak_rss_mb": peak_mb,
        }
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    print(f"workload {wl.name}: seed {args.seed}, {len(walls['all'])} ops in "
          f"{measured_s:.1f} s, trace {args.trace}")
    print(f"fail_ratio {failed}/{attempted}")
    how = "scaled to the speed gauge" if wl.gauged else "wall time, not gauged"
    print(f"setup_s samples ({how}): {', '.join(f'{v:.4f}' for v in probe_setup)}")
    print(f"speed gauge {common.median(refs):.4f} s median of {len(refs)} (nominal {common.REF_S} s)")
    if not args.trace and primary:
        print(f"op_p50_s = {values['op_p50_s']:.6g} s over {len(primary)} ops ({how})")
        for name, (value, unit) in wl.named(primary).items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  as {name} = {shown} {unit}")
    if args.trace and totals.ops:
        base = sum(totals.mn)
        print(f"characters.mn_cache: {totals.mn[0]} hits of {base} lookups")
        if wl.in_process:
            print(totals.accounting_line())
    for error in errors[:10]:
        print("error: " + error, file=sys.stderr)

    if args.out:
        doc = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "gauged": wl.gauged, "probes": probes,
            "ops": timed, "gauge": refs,
            "metrics": values, "attempted": attempted, "failed": failed, "errors": errors,
            "spans": totals.kept_spans,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
