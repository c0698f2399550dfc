"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload mixed-missing --seeds 10 \
        --seconds 30 [--first-seed 0] [--output spread.json]

Runs the benchmark once per seed, one run after another, and prints for
every end-to-end metric the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median, next to the metric's bound
from BENCHMARK.json.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--output", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, walls = [], []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", f"{args.seconds:g}", "--trace", "0",
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: wall {walls[-1]:.1f}s correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {"workload": args.workload, "seconds": args.seconds,
               "wall_s": summarize(walls), "metrics": {}}
    print(f"{'metric':<14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        summary["metrics"][name] = s
        print(f"{name:<14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {bounds.get(name, float('nan')):6.2f}")
    print(f"all correct: {all(r['correct'] for r in runs)}; "
          f"wall per run median {summary['wall_s']['median']:.1f}s")
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
