"""Interleaved A/B runs of the benchmark on two revisions.

    python3 tools/ab.py BASE NEW [--workload W ...] [--pairs 10] \
        [--seconds 30] [--first-seed 1] [--trace 0] [--work DIR]

Checks BASE and NEW out as detached git worktrees under `.ab_work/` (or
--work) and runs each tree's `perfbench/run.py` alternately, pair after
pair, on every workload: pair i uses seed first-seed + i on both sides,
and the side that runs first switches from pair to pair.  It stops, with
exit code 1, on a run that exits non-zero or reports `correct: false` or
a failed op.

For every metric it prints each side's median and quartiles, the median
of the per-pair ratios NEW / BASE, and in how many pairs NEW was better
(in the metric's direction from BENCHMARK.json, "lower" if not listed),
and whether NEW's median lies outside BASE's quartiles.  An end-to-end
metric whose NEW median is worse than BASE's by more than its bound from
BENCHMARK.json (bound x BASE's median) is marked "worse past bound", and
one whose BASE interquartile range is wider than that bound is marked
"unresolved", unless every NEW run is better than every BASE run: its
spread cannot tell a change within the bound from none.  A metric is
marked "gain" when NEW is better in at least 9 of 10 pairs and its
median is better than BASE's by more than BASE's interquartile range,
the rule a claimed gain must meet.  It also prints
the lines added and removed under src/ and tests/ from BASE to NEW, as
+added/-removed (net), from `git diff --numstat`, and, per workload, the
vCPUs each pair's two runs were seen on: every 0.2 s while a run lasts,
its process's vCPU is read from field 39 of /proc/<pid>/stat.  The last
line is the same report as one JSON object, with every run's value and
vCPU samples.  The worktrees are removed at the end.
Run it from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def line_counts(base: str, new: str) -> dict:
    """Lines added and removed under src/ and tests/ from `base` to `new`,
    and their net change, by `git diff --numstat` (binary files count 0)."""
    counts = {}
    for path in ("src", "tests"):
        numstat = [line.split("\t")[:2]
                   for line in git("diff", "--numstat", base, new, "--", path).splitlines()]
        added = sum(int(a) for a, _ in numstat if a != "-")
        removed = sum(int(r) for _, r in numstat if r != "-")
        counts[path] = {"added": added, "removed": removed, "net": added - removed}
    return counts


def summarize(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, inclusive) of `values`."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(base: list[float], new: list[float], better: str, bound: float | None = None) -> dict:
    """One metric's report over pairs (base[i], new[i]).  `gain` says
    whether new is better in at least 9 of 10 pairs and its median better
    than the base median by more than the base's q3 - q1.  With a
    `bound`, `beyond_bound` says whether the new median is worse than the
    base median by more than bound x the base median, and `unresolved`
    whether the base quartiles lie further apart than that, with some new
    run no better than some base run; both None without a bound."""
    a, b = summarize(base), summarize(new)
    ratios = [y / x for x, y in zip(base, new) if x]
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(base, new))
    outside = b["median"] < a["q1"] if better == "lower" else b["median"] > a["q3"]
    step = a["median"] - b["median"] if better == "lower" else b["median"] - a["median"]
    gain = 10 * wins >= 9 * len(base) and step > a["q3"] - a["q1"]
    worse = unresolved = None
    if bound is not None:
        slack = bound * a["median"]
        worse = (b["median"] > a["median"] + slack if better == "lower"
                 else b["median"] < a["median"] - slack)
        clear = max(new) < min(base) if better == "lower" else min(new) > max(base)
        unresolved = a["q3"] - a["q1"] > slack and not clear
    return {"base": a, "new": b, "ratio": statistics.median(ratios) if ratios else None,
            "wins": wins, "pairs": len(base), "beyond_quartiles": outside, "gain": gain,
            "beyond_bound": worse, "unresolved": unresolved, "runs": {"base": base, "new": new}}


def vcpu(pid: int) -> list[int]:
    """[the vCPU process `pid` last ran on], field 39 of /proc/<pid>/stat
    (fields counted from 1, the command name in parentheses); [] where it
    cannot be read."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return [int(fh.read().rsplit(")", 1)[1].split()[39 - 3])]
    except (OSError, IndexError, ValueError):
        return []


def distinct(cpus: list[int]) -> str:
    """The distinct vCPUs among `cpus`, ascending, as "0,1"; "?" for none."""
    return ",".join(map(str, sorted(set(cpus)))) or "?"


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, list[int]]:
    """The metrics of one `perfbench/run.py` run in `tree`, and the vCPUs
    it was seen on, sampled every 0.2 s; SystemExit with a message on a
    failed run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    cpus, stdout = [], None
    with subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        while stdout is None:
            cpus += vcpu(proc.pid)
            try:
                stdout, stderr = proc.communicate(timeout=0.2)
            except subprocess.TimeoutExpired:
                pass
    where = f"{tree.name} {workload} seed {seed}"
    if proc.returncode != 0:
        sys.stderr.write(stdout + stderr)
        raise SystemExit(f"ab: {where}: exit code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(stderr)
        raise SystemExit(f"ab: {where}: the run printed no result")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(stdout + stderr)
        raise SystemExit(f"ab: {where}: correct={result['correct']}, "
                         f"{result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}, cpus


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--workload", action="append", dest="workloads")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, default=ROOT / ".ab_work")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    revs = {"base": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "new": git("rev-parse", "--verify", f"{args.new}^{{commit}}")}
    trees = {side: args.work.resolve() / side for side in revs}
    args.work.mkdir(parents=True, exist_ok=True)
    git("worktree", "prune")
    try:
        for side, tree in trees.items():
            if tree.exists():  # left by a run that was cut short
                git("worktree", "remove", "--force", str(tree))
            git("worktree", "add", "--force", "--detach", str(tree), revs[side])
        metrics = {w: {"base": {}, "new": {}} for w in workloads}
        vcpus = {w: {"base": [], "new": []} for w in workloads}  # per run, its samples
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for w in workloads:
                for side in order:
                    got, cpus = run_once(trees[side], w, seed, args.seconds, args.trace)
                    for name, value in got.items():
                        metrics[w][side].setdefault(name, []).append(value)
                    vcpus[w][side].append(cpus)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {w} done", file=sys.stderr)
    finally:
        for tree in trees.values():
            if tree.exists():
                git("worktree", "remove", "--force", str(tree))
        git("worktree", "prune")

    report = {"base": revs["base"], "new": revs["new"], "pairs": args.pairs,
              "seconds": args.seconds, "lines": line_counts(revs["base"], revs["new"]),
              "workloads": {}, "vcpus": vcpus}
    for w, sides in metrics.items():
        report["workloads"][w] = {
            name: compare(sides["base"][name], sides["new"][name], better.get(name, "lower"),
                          bound.get(name))
            for name in sides["base"]
        }
    print(f"base {revs['base'][:10]}  new {revs['new'][:10]}  "
          f"{args.pairs} pairs x {args.seconds:g} s")
    print("lines " + "  ".join(f"{path}/ +{c['added']}/-{c['removed']} ({c['net']:+d})"
                               for path, c in report["lines"].items()))
    for w, rows in report["workloads"].items():
        print(w)
        pairs = enumerate(zip(vcpus[w]["base"], vcpus[w]["new"]), 1)
        print("  vCPUs by pair, base/new: "
              + "  ".join(f"{i}: {distinct(b)}/{distinct(n)}" for i, (b, n) in pairs))
        for name, r in rows.items():
            a, b = r["base"], r["new"]
            ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
            print(f"  {name:<34s} {a['median']:11.5g} [{a['q1']:.5g}, {a['q3']:.5g}] -> "
                  f"{b['median']:11.5g} [{b['q1']:.5g}, {b['q3']:.5g}]  ratio {ratio}  "
                  f"better {r['wins']}/{r['pairs']}"
                  + ("  beyond base quartiles" if r["beyond_quartiles"] else "")
                  + ("  gain" if r["gain"] else "")
                  + ("  worse past bound" if r["beyond_bound"] else "")
                  + ("  unresolved" if r["unresolved"] else ""))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
