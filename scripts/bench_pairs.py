#!/usr/bin/env python3
"""Compare two checkouts of pntap with alternated benchmark pairs.

    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --workloads ap_many_moduli,ap_large_moduli --seeds 601-610 \\
        --seconds 30 --trace-workload ap_many_moduli --trace-seed 611 \\
        --title "what the change does" --out BENCH_6.json

Each pair runs `perfbench/run.py --trace 0` once in each checkout, on the
same workload and seed, for every seed given.  The parent runs first in
even pairs and the change first in odd pairs; within a pair index the
workloads are taken in turn, so slow drifts of the machine fall on both
sides alike.  Each run reports its median over its rounds; the output
gives, per workload and end-to-end metric, the median and quartiles of
the runs on each side, the median of the paired differences (change -
parent) and their interquartile range over the parent's median (beside
the parent's own interquartile range over its median: a drift that moves
both sides of a pair alike widens the latter, not the former), and the
number of pairs in which the change is lower.  Each
metric also gets the bound that the end_to_end list of the change's
BENCHMARK.json gives it, and a verdict, the first that holds of:

  worse          the change's median is worse than the parent's by more
                 than bound (relative to the parent's median);
  gain           the change is better in at least 9 of 10 pairs (a tie
                 counts for neither side) and the medians differ by more
                 than the parent's interquartile range;
  unresolved     the parent's interquartile range over its median exceeds
                 bound, and not every change run beats every parent run;
  no_regression  otherwise.

With --trace-workload, one more pair runs with --trace 1 and its
per-layer metrics are recorded side by side.  Nothing else should run on
the machine meanwhile.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'601-610' or '601,605,609' (or a mix) as a list of ints."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    # the kernel runs one worker per usable CPU, so its speed follows this
    # count, which an affinity mask or a container's cpuset can hold below
    # os_cpu_count
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    out = {"cpu": cpu, "os_cpu_count": os.cpu_count(), "usable_cpus": usable,
           "python": platform.python_version()}
    for name in ("numpy", "mpmath"):
        try:
            out[name] = importlib.import_module(name).__version__
        except ImportError:
            out[name] = None
    if out["mpmath"]:
        import mpmath.libmp
        out["mpmath_backend"] = mpmath.libmp.BACKEND
    uname = platform.uname()
    out["os"] = f"{uname.system} {uname.release}"
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """The module docstring's verdict on one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * v for v in parent]  # lower is better from here on
    c = [sign * v for v in change]
    p1, pm, p3 = statistics.quantiles(p, n=4, method="inclusive")
    cm = statistics.median(c)
    if cm - pm > bound * abs(pm):
        return "worse"
    if 10 * sum(b < a for a, b in zip(p, c)) >= 9 * len(p) and pm - cm > p3 - p1:
        return "gain"
    if p3 - p1 > bound * abs(pm) and max(c) >= min(p):
        return "unresolved"
    return "no_regression"


def compare(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    p, c = spread(parent), spread(change)
    d1, dm, d3 = statistics.quantiles([b - a for a, b in zip(parent, change)], n=4,
                                      method="inclusive")
    return {
        "verdict": verdict(parent, change, bound, better),
        "bound": bound,
        "paired_difference_median": round(dm, 4),
        "parent": p,
        "change": c,
        "change_vs_parent": round(c["median"] / p["median"] - 1.0, 4),
        "parent_iqr_over_median": round((p["q3"] - p["q1"]) / p["median"], 4),
        "paired_difference_iqr_over_parent_median": round((d3 - d1) / p["median"], 4),
        "change_lower_in_pairs": sum(b < a for a, b in zip(parent, change)),
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 601-610")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace-workload", help="run one traced pair on this workload")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--title", default="", help="one line on what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.trace_workload and args.trace_seed is None:
        ap.error("--trace-workload needs --trace-seed")
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds: the quartiles of a side need two runs")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                res = run_once(checkouts[side], w, seed, args.seconds, trace=0)
                runs[w][side].append(res)
                print(f"pair {i} {w} {side}: wall "
                      f"{res['metrics']['wall_s']['value']:.3f} s, failed "
                      f"{res['failed']}/{res['attempted']}", file=sys.stderr)

    order_text = ("the parent ran first in even pairs and the change first in odd pairs; "
                  "workloads taken in turn within a pair index")
    report = {
        "change": args.title,
        "machine": machine(),
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0, parent and change each in its own "
                   f"checkout; {len(args.seeds)} pairs per workload, seeds "
                   f"{args.seeds[0]}-{args.seeds[-1]}, {order_text}. Each value is "
                   f"the run's median over its rounds; the cells give median and "
                   f"quartiles of the runs."),
        "workloads": {},
    }
    for w in workloads:
        sides = runs[w]
        report["workloads"][w] = {
            "pairs": len(args.seeds),
            "seeds": args.seeds,
            "metrics": {m: compare([r["metrics"][m]["value"] for r in sides["parent"]],
                                   [r["metrics"][m]["value"] for r in sides["change"]],
                                   e["bound"], e["better"])
                        for m, e in end_to_end.items()},
            "failed_attempted": {side: [[r["failed"], r["attempted"]] for r in sides[side]]
                                 for side in SIDES},
            "correct_in_every_run": all(r["correct"] for side in SIDES for r in sides[side]),
        }
    if args.trace_workload:
        traced = {side: run_once(checkouts[side], args.trace_workload, args.trace_seed,
                                 args.seconds, trace=1)["metrics"] for side in SIDES}
        names = [m for m in traced["parent"]
                 if any(traced[side][m]["value"] for side in SIDES)]
        report[f"trace_{args.trace_workload}_seed{args.trace_seed}"] = {
            side: {m: round(traced[side][m]["value"], 4) for m in names} for side in SIDES}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
