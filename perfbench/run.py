"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pairwise-numeric --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  The library is imported from `src/`
in-process.  Human-readable lines come first: the workload's inputs, the
machine, every metric with its unit, and the error rate.  The last line is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a span
is recorded around every library call, the per-layer metrics are reported
instead, and the spans are written to .perfbench_work/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("pairwise-numeric", "mixed-missing", "score-serving")

def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="isodist performance benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=_seconds, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None, tiny: bool = False) -> int:
    """`tiny` shrinks every workload's inputs, for the benchmark's tests."""
    args = parse_args(argv)
    if not (SRC / "isodist" / "__init__.py").is_file():
        print(f"perfbench: no isodist sources under {SRC}", file=sys.stderr)
        return 2
    # The library's own thread pools are the only threads the benchmark
    # asks for; keep numerical libraries from adding theirs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Recorder

    WORK.mkdir(exist_ok=True)
    rec = Recorder(enabled=bool(args.trace))
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, rec, tiny=tiny)
        res = workloads.run(wl, args.seconds)

    if args.trace:
        units = workloads.per_layer_units()
        metrics = {name: res.per_layer.get(name, 0.0) for name in units}
    else:
        units = {**workloads.END_TO_END, **workloads.UNBOUNDED}
        metrics = workloads.end_to_end(res)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("inputs  " + json.dumps(wl.describe(), sort_keys=True))
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"samples setups={len(res.setup_s)} timed_ops={len(res.op_s)}")
    for name, value in metrics.items():
        note = ""
        if args.trace and name not in res.per_layer:
            note = "  (not exercised)"
        elif name in workloads.UNBOUNDED:
            note = "  (no bound)"
        print(f"  {name:<34s} {value:14.6g} {units[name]}{note}")
    rate = res.failed / res.attempted
    print(f"  {'error_rate':<34s} {rate:14.6g} ratio "
          f"({res.failed} failed / {res.attempted} attempted)")
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        rec.write(trace_path)
        print(f"spans written to {trace_path}")

    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
            if name not in workloads.UNBOUNDED
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
