#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each workload, from the
repository root, and prints for every end-to-end metric the median of the
runs and the distance between their first and third quartiles as a share
of that median, beside a third of the metric's bound. The spread of
`setup_s` is printed but not held to its bound; its median, like every
other, is held to the bound when two sets of runs are compared.

    python3 perfbench/spread.py [--workloads a,b] [--seeds N] [--first-seed S]
                                [--trace 0|1] [--save FILE] [--against FILE]

`--save` writes every run's values to FILE; `--against` compares this set's
medians with those of a set saved earlier and flags a metric whose median
got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result["metrics"]


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / abs(first) if first else 0.0
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    earlier = json.loads(args.against.read_text()) if args.against else {}
    values = {}
    worst = 0.0
    failed = False
    for workload in chosen:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(spec, workload, seed, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        values[workload] = {m["name"]: [r[m["name"]]["value"] for r in runs] for m in metrics}
        print(f"== {workload} ({len(runs)} seeds)")
        for m in metrics:
            vals = values[workload][m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            line = f"{m['name']:40s} median {med:<14.6g} spread {spread:.4f}"
            if bound is not None:
                line += f"  bound/3 {bound / 3:.3f}"
                if m["name"] == "setup_s":
                    line += "  (spread not held to the bound)"
                else:
                    worst = max(worst, spread / bound)
                    line += "  ok" if spread < bound / 3 else "  WIDE"
            before = earlier.get(workload, {}).get(m["name"])
            if before and bound is not None:
                drift = worse_by(m, statistics.median(before), med)
                bad = drift > bound
                failed |= bad
                line += f"  vs earlier set: worse by {drift:+.4f}{'  OVER BOUND' if bad else ''}"
            print(line)
    if worst:
        print(f"widest spread / bound: {worst:.3f}")
    if args.save:
        args.save.write_text(json.dumps(values, indent=1))
    if failed:
        sys.exit("a median got worse than the earlier set by more than its bound")


if __name__ == "__main__":
    main()
