"""pntap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh interpreter
(worker.py), for about S seconds: a round starts only if, at the median
round time so far, it would end less than half a round past S.  With
--trace 0 it reports the median set-up time, timed wall time and peak
RSS over the rounds; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics
(medians over the traced rounds) and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Results and traces also go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
from perfbench.trace import METRICS  # noqa: E402  (stdlib only; no pntap import)

WORKLOADS = ("constants_chain", "ap_many_moduli", "ap_large_moduli", "twisted_characters")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
RUN_LIMIT_S = 170.0
REQUIRED = (Path("src") / "pntap" / "__init__.py", Path("tests") / "data" / "zeta_zeros.txt")


def run_round(workload: str, seed: int, traced: bool, env: dict, timeout: float) -> dict:
    trace_file = HERE / "out" / f"trace-{workload}-seed{seed}.json" if traced else "-"
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         "1" if traced else "0", str(trace_file)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"round exited with {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - spawned
    res["round_s"] = time.monotonic() - spawned
    res["traced"] = traced
    return res


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    kinds = (False, True) if trace else (False,)
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        for traced in kinds:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            res = run_round(workload, seed, traced, env, timeout=max(remaining, 1.0))
            print(f"round {len(rounds) + 1}{' traced' if traced else ''}: "
                  f"setup {res['setup_s']:.3f} s, wall {res['wall_s']:.3f} s, "
                  f"rss {res['peak_rss_mb']:.1f} MB, failed {res['failed']}/{res['attempted']}",
                  file=sys.stderr)
            rounds.append(res)
        # start another round only if it is expected to end within half a
        # round of the deadline, so runs average about `seconds`
        step = statistics.median(r["round_s"] for r in rounds) * len(kinds)
        if time.monotonic() - start + step / 2 > seconds:
            return rounds


def summarize(rounds: list[dict], trace: bool) -> dict:
    metrics = {}
    if trace:
        traced = [r for r in rounds if r["traced"]]
        for name, unit, _ in METRICS:
            values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in rounds if not r["traced"]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(r[name] for r in rounds), "unit": unit}
    unexpected = [u for r in rounds for u in r["unexpected"]]
    for u in unexpected[:20]:
        print(f"FAILED CHECK: {u}", file=sys.stderr)
    return {"correct": not unexpected,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [str(f) for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run the benchmark "
              f"from a checkout of the pntap repository", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(rounds, bool(args.trace))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "rounds": rounds}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
