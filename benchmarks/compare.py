#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise, or compare two summaries.

    python3 benchmarks/compare.py --out BENCH_mine.json
    python3 benchmarks/compare.py --out BENCH_change.json --against BENCH_parent.json

Each workload in BENCHMARK.json runs once per seed 1..10 as one
``run.py --trace 0`` process of ``run_seconds``. The summary keeps
every run's metrics and, per workload and metric, the median, the quartiles
and the spread (interquartile range over the median) as
``statistics.quantiles(values, n=4)`` gives them. With ``--against``, every
end-to-end metric of every workload is judged against the bound in
BENCHMARK.json: "worse" when this median is worse than the other's by more
than the bound, "unresolved" when either side's own spread exceeds the bound,
"ok" otherwise. To compare two commits, run each from its own checkout on
the same machine, alternating which goes first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common


SEEDS = range(1, 11)


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def judge(mine: dict, other: dict, spec: dict) -> str:
    a, b = mine["median"], other["median"]
    worse = (a - b) / b if spec["better"] == "lower" else (b - a) / b
    if spec["better"] == "lower":
        every_run_better = max(mine["values"]) < min(other["values"])
    else:
        every_run_better = min(mine["values"]) > max(other["values"])
    if every_run_better:
        return f"ok, every run better ({worse:+.1%})"
    if max(mine["spread"], other["spread"]) > spec["bound"]:
        return f"unresolved (spread above bound {spec['bound']})"
    return f"{'worse' if worse > spec['bound'] else 'ok'} ({worse:+.1%} against bound {spec['bound']})"


def main() -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    doc = {"env": common.environment(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        names = runs[0]["metrics"]
        doc["workloads"][workload] = {
            "runs": runs,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {m: summarise([r["metrics"][m]["value"] for r in runs]) for m in names},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    other = json.loads(open(args.against, encoding="utf-8").read()) if args.against else None
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for workload, entry in doc["workloads"].items():
        print(f"{workload}: fail_ratio {entry['failed']}/{entry['attempted']}")
        for name, stats in entry["metrics"].items():
            line = (f"  {name}: median {stats['median']:.6g}, quartiles "
                    f"{stats['q1']:.6g}..{stats['q3']:.6g}, spread {stats['spread']:.3f} "
                    f"(bound {specs[name]['bound']})")
            theirs = other and other["workloads"].get(workload, {}).get("metrics", {}).get(name)
            if theirs:
                line += f"; against {theirs['median']:.6g}: {judge(stats, theirs, specs[name])}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
