"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE TRACE_FILE

run.py starts one of these per round, with src/ and the repository root
on PYTHONPATH.  Set-up (interpreter start, `import pntap`, building the
seeded inputs, reading input files) ends at the monotonic time printed as
`ready`.  Then the workload runs under a timer, peak RSS is read, and the
checks run.  The last line of standard output is one JSON object.
With TRACE = 1 the public functions are wrapped first, and the spans of
the timed region are written to TRACE_FILE (unless it is "-").
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, traced, trace_file = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    root = Path(__file__).resolve().parents[1]
    import pntap
    if Path(pntap.__file__).resolve().parent != root / "src" / "pntap":
        print(f"imported pntap from {pntap.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    from perfbench import checks, trace, workloads

    tracer = trace.Tracer()
    if traced:
        tracer.install()
    prepare, run = workloads.WORKLOADS[workload]
    inputs = prepare(seed, root)
    ready = time.monotonic()

    tracer.spans.clear()
    t0 = time.perf_counter()
    outputs = run(inputs)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        outcomes = checks.CHECKS[workload](inputs, outputs)
    except Exception:
        outcomes = [checks.single("checks", False, traceback.format_exc())]
    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "unexpected": [f"{o.name}: {o.detail}" for o in outcomes
                       if o.failed and not o.known_fault],
    }
    if traced:
        result["layers"] = trace.layer_metrics(tracer.spans, wall)
        if trace_file != "-":
            Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
            with open(trace_file, "w") as fh:
                json.dump({"workload": workload, "seed": seed, "wall_s": wall,
                           "span_fields": ["layer", "start", "end", "parent", "info"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
