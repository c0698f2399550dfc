"""The benchmark's workloads: inputs, closed-loop ops, output checks and
per-layer metrics.

Every workload follows the command-line tool's call sequence
(load_csv -> fit_forest -> separation_matrix / anomaly_scores ->
CondensedMatrix.write_*), calling the library in-process from one client
that issues each op as soon as the previous one returns.  Inputs come
from `isodist.bench.generate_scenario` and depend only on the seed.

Layers are the library's modules: data (load_csv, deduplicate), forest
(fit_forest, remap_dataset, save_model, load_model), distance
(separation_matrix, anomaly_scores, pair_distance) and matrix
(CondensedMatrix.write_binary / write_csv).  The traced run wraps each of
those calls in a span.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from isodist import (
    CondensedMatrix,
    Column,
    Dataset,
    ForestParams,
    anomaly_scores,
    deduplicate,
    fit_forest,
    load_csv,
    load_model,
    pair_distance,
    save_model,
    separation_matrix,
)
from isodist.bench import generate_scenario
from isodist.data import UNSEEN_CODE, write_csv
from isodist.forest import Terminal, remap_dataset

from spans import Recorder

KINDS = ("single", "extended")

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "batch_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but carries no bound: the slowest
# tenth of ops follows seconds-long slowdowns of a shared machine, and its
# run-to-run spread exceeds any bound the benchmark may set.
UNBOUNDED = {"batch_ms_p90": "ms"}

# Every per-layer metric with its unit.  Metrics marked True also exist
# per model kind (suffix .single / .extended) for workloads fitting both.
PER_LAYER = {
    "data.load_csv_s": ("s", False),
    "data.deduplicate_s": ("s", True),
    "forest.fit_s": ("s", True),
    "forest.nodes_per_tree": ("count", True),
    "forest.fit_nodes_per_s": ("1/s", True),
    "forest.fit_speedup_2t": ("ratio", False),
    "forest.remap_dataset_s": ("s", False),
    "forest.save_model_s": ("s", False),
    "forest.load_model_s": ("s", False),
    "forest.model_bytes": ("B", False),
    "distance.separation_matrix_s": ("s", True),
    "distance.matrix_speedup_2t": ("ratio", False),
    "distance.cell_updates": ("count", False),
    "distance.cell_updates_per_s": ("1/s", False),
    "distance.anomaly_scores_s": ("s", True),
    "distance.row_trees_per_s": ("1/s", False),
    "distance.pair_distance_ms": ("ms", False),
    "matrix.write_binary_s": ("s", False),
    "matrix.bytes_written": ("B", False),
    "matrix.write_csv_s": ("s", True),
    "matrix.csv_bytes": ("B", True),
    "trace.job_s": ("s", False),
    "trace.batch_ms_p50": ("ms", False),
    "trace.batch_ms_p90": ("ms", False),
    "trace.spans_per_op": ("count", False),
    "trace.overhead_pct": ("%", False),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, suffixed variants included, -> unit."""
    out = {}
    for name, (unit, by_kind) in PER_LAYER.items():
        out[name] = unit
        if by_kind:
            for kind in KINDS:
                out[f"{name}.{kind}"] = unit
    return out


class CheckFailed(Exception):
    """An op's output is wrong."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_unit_interval(values, what: str) -> None:
    v = np.asarray(values, dtype=np.float64)
    check(np.isfinite(v).all(), f"{what}: non-finite value")
    bad = int(np.count_nonzero((v <= 0.0) | (v > 1.0)))
    check(bad == 0, f"{what}: {bad} values outside (0, 1]")


def check_matrix(matrix, gmap, what: str) -> np.ndarray:
    """Cells of rows that deduplicate() groups together are exactly 0, and
    every other cell lies in (0, 1]; returns the mask of the latter."""
    iu = np.triu_indices(matrix.n, k=1)
    distinct = gmap[iu[0]] != gmap[iu[1]]
    dup = matrix.values[~distinct]
    check(np.all(dup == 0.0), f"{what}: duplicate rows at a non-zero distance")
    check_unit_interval(matrix.values[distinct], what)
    return distinct


def check_pairs(forest, ds, matrix, rng, rec, n_pairs) -> None:
    """pair_distance on sampled pairs equals the matrix cell within 1e-9."""
    for _ in range(n_pairs):
        i, j = (int(x) for x in rng.choice(ds.n_rows, size=2, replace=False))
        with rec.span("distance.pair_distance"):
            d = pair_distance(forest, ds, i, j)
        check(
            abs(d - matrix[i, j]) <= 1e-9,
            f"pair_distance({i}, {j}) = {d!r} but matrix cell = {matrix[i, j]!r}",
        )


def count_nodes(tree) -> int:
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        if not isinstance(node, Terminal):
            stack.extend((node.left, node.right))
    return n


def _rows_and_updates(node):
    """(rows at `node`, cell updates in its subtree)."""
    if isinstance(node, Terminal):
        rows, below = node.size, 0.0
    else:
        rows_l, below_l = _rows_and_updates(node.left)
        rows_r, below_r = _rows_and_updates(node.right)
        rows, below = rows_l + rows_r, below_l + below_r
    return rows, below + (rows * rows if rows >= 2 else 0.0)


def cell_updates(tree) -> float:
    """Sum over nodes reached by >= 2 rows of (rows at node)^2, computed
    from the fit-time terminal sizes.  It counts the accumulator cells
    separation_matrix adds to when it traverses the fitted rows themselves,
    complete and without duplicates."""
    return _rows_and_updates(tree)[1]


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def write_input_csv(ds: Dataset, work: str) -> str:
    path = os.path.join(work, "input.csv")
    write_csv(ds, path)
    return path


@dataclass
class Result:
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    per_layer: dict = field(default_factory=dict)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(res: Result) -> dict:
    """The end-to-end metrics of a finished untraced run, then UNBOUNDED."""
    return {
        "setup_s": median_of(res.setup_s),
        "job_s": median_of(res.op_s),
        "batch_ms_p50": 1e3 * median_of(res.op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "batch_ms_p90": 1e3 * percentile(res.op_s, 90),
    }


class Workload:
    """One closed-loop workload.  Subclasses set `name` and `sizes` and
    define `describe`, `setup`, `op` and `layer_metrics`."""

    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, work: str, rec: Recorder, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.rec = rec
        self.size = self.sizes["tiny" if tiny else "full"]

    def forest_seed(self, k: int) -> int:
        # A fresh forest per op, reproducible from (run seed, op index).
        return self.seed * 100_000 + k

    def timed(self, job: str) -> bool:
        """Whether op `job` counts towards the latency metrics."""
        return True

    # Per-layer aggregation over the recorded spans.

    def per_op(self, name: str, key: str | None = None, **match) -> list[float]:
        """Per-op totals of span `name`: self seconds, or attribute `key`."""
        per_job = self.rec.per_job(name, key, **match)
        return [v for j, v in per_job.items() if j.startswith("op")]

    def per_setup(self, name: str, key: str | None = None) -> list[float]:
        per_job = self.rec.per_job(name, key)
        return [v for j, v in per_job.items() if j.startswith("setup")]

    def fit_metrics(self, per, suffix="", **match) -> dict:
        """fit_s, nodes_per_tree and fit_nodes_per_s over the fit spans
        that `per` (per_op or per_setup) selects."""
        fit = per("forest.fit_forest", **match)
        nodes = sum(per("forest.fit_forest", "nodes", **match))
        trees = sum(per("forest.fit_forest", "trees", **match))
        return {
            f"forest.fit_s{suffix}": median_of(fit),
            f"forest.nodes_per_tree{suffix}": nodes / trees if trees else 0.0,
            f"forest.fit_nodes_per_s{suffix}": nodes / sum(fit) if fit else 0.0,
        }

    def call_ms(self, name: str) -> float:
        """Median milliseconds of one call of span `name`."""
        return 1e3 * median_of(sp.duration for sp in self.rec.spans if sp.name == name)

    def describe(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """Build the inputs and everything the ops share; return None or
        a verify() that raises CheckFailed on a wrong set-up output."""
        raise NotImplementedError

    def op(self, k: int):
        """Run op k; return (latency seconds, verify) where verify() raises
        CheckFailed if the op's outputs are wrong."""
        raise NotImplementedError

    def layer_metrics(self) -> dict:
        raise NotImplementedError


def note_fit(span, forest) -> None:
    """Attach the fitted forest's node and tree counts to its fit span."""
    if span is not None:
        span.attrs["nodes"] = sum(count_nodes(t) for t in forest.trees)
        span.attrs["trees"] = len(forest.trees)


def _report_failure(where: str) -> None:
    print(f"perfbench: {where} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# A run sets up SETUP_SECONDS / (first set-up's time) times, at least
# SETUP_MIN and at most SETUP_MAX, so that the median set-up time is steady
# whether one set-up takes 5 ms or 5 s.  The first set-up precedes the ops;
# the others are spread over the measuring window, between ops, so that
# they sample the same stretch of machine time as the ops do.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 50, 1.0


def run(wl: Workload, seconds: float) -> Result:
    """Set `wl` up, then issue ops back to back until `seconds` of ops
    have passed and at least `min_ops` ops were issued.  An op that raises
    or fails a check counts as failed.  The set-ups count as one attempted
    op, failed if any set-up fails; the run stops there."""
    res = Result()
    rec = wl.rec
    res.attempted += 1

    def set_up() -> float:
        """Seconds one set-up took, or -1 if it failed."""
        rec.job = f"setup{len(res.setup_s)}"
        t0 = time.perf_counter()
        try:
            with rec.span("setup"):
                verify = wl.setup()
            res.setup_s.append(time.perf_counter() - t0)
            if verify is not None:
                verify()
        except Exception:  # reported in the result; no ops without a set-up
            res.failed += 1
            _report_failure(f"set-up {len(res.setup_s)}")
            return -1.0
        return time.perf_counter() - t0

    if set_up() < 0:
        return res
    planned = min(SETUP_MAX, max(SETUP_MIN, math.ceil(SETUP_SECONDS / res.setup_s[0])))

    latencies = res.op_s
    start = time.perf_counter()
    in_setup = 0.0  # set-up time inside the window, which does not count
    k = 0
    while time.perf_counter() - in_setup < start + seconds or k < wl.size["min_ops"]:
        job = f"op{k}"
        rec.job = job
        res.attempted += 1
        try:
            with rec.span("op"):
                latency, verify = wl.op(k)
            if wl.timed(job):
                latencies.append(latency)
            verify()
        except Exception:  # counted; the loop goes on
            res.failed += 1
            _report_failure(f"op {k}")
        k += 1
        elapsed = time.perf_counter() - in_setup - start
        while len(res.setup_s) < min(planned, planned * elapsed / seconds):
            took = set_up()
            if took < 0:
                return res
            in_setup += took
    while len(res.setup_s) < planned:
        if set_up() < 0:
            return res
    rec.job = None
    if rec.enabled:
        res.per_layer = wl.layer_metrics()
        # Spans recorded inside op spans, which are the ones op latency pays for.
        spans = sum(
            1
            for sp in rec.spans
            if sp.name == "op" or (sp.parent is not None and rec.spans[sp.parent].name == "op")
        )
        res.per_layer["trace.spans_per_op"] = spans / k
        if latencies:
            med = median_of(latencies)
            res.per_layer["trace.job_s"] = med
            res.per_layer["trace.batch_ms_p50"] = 1e3 * med
            res.per_layer["trace.batch_ms_p90"] = 1e3 * percentile(latencies, 90)
            res.per_layer["trace.overhead_pct"] = (
                100.0 * (spans / k) * span_cost() / med
            )
    return res


def span_cost(n: int = 2000) -> float:
    """Seconds one span costs to record, on a recorder of its own."""
    probe = Recorder(enabled=True)
    probe.job = "probe"
    t0 = time.perf_counter()
    for _ in range(n):
        with probe.span("empty"):
            pass
    return (time.perf_counter() - t0) / n


class PairwiseNumeric(Workload):
    """All-pairs matrix on complete numeric data, thread pools on."""

    name = "pairwise-numeric"
    sizes = {
        "full": {"rows": 1000, "trees": 50, "threads": 2, "pairs": 100, "min_ops": 3},
        "tiny": {"rows": 40, "trees": 4, "threads": 2, "pairs": 5, "min_ops": 2},
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No more threads than the machine has cores.
        self.threads = min(self.size["threads"], os.cpu_count() or 1)
        self.threads_of: dict[str, int] = {}

    def timed(self, job: str) -> bool:
        return self.threads_of.get(job) == self.threads

    def describe(self) -> dict:
        n = self.size["rows"]
        return {
            "generator": "generate_scenario('t4'), complete 5-column table",
            "seed": self.seed,
            "rows": n,
            "model": "single",
            "trees": self.size["trees"],
            "threads": self.threads,
            "clients": 1,
            "op": "fit_forest + deduplicate + separation_matrix + write_binary",
            "accumulator_bytes": n * n * 8 * self.threads,
        }

    def setup(self):
        rng = np.random.default_rng(self.seed)
        ds = generate_scenario("t4", self.size["rows"], rng)["dataset"]
        path = write_input_csv(ds, self.work)
        with self.rec.span("data.load_csv"):
            self.ds = load_csv(path)

    def op(self, k: int):
        rec, ds = self.rec, self.ds
        # The traced run alternates with single-threaded ops on the same
        # input, to measure what the thread pools gain.
        threads = 1 if rec.enabled and k % 2 else self.threads
        self.threads_of[f"op{k}"] = threads
        params = ForestParams(
            n_trees=self.size["trees"], seed=self.forest_seed(k), model_kind="single"
        )
        out = os.path.join(self.work, "matrix.bin")
        t0 = time.perf_counter()
        with rec.span("forest.fit_forest", threads=threads) as fit_span:
            forest = fit_forest(ds, params, threads=threads)
        with rec.span("data.deduplicate"):
            _, gmap = deduplicate(ds)
        with rec.span("distance.separation_matrix", threads=threads) as mat_span:
            matrix = separation_matrix(forest, ds, threads=threads)
        with rec.span("matrix.write_binary") as write_span:
            matrix.write_binary(out)
        latency = time.perf_counter() - t0

        def verify():
            if rec.enabled:
                note_fit(fit_span, forest)
                mat_span.attrs["cells"] = sum(cell_updates(t) for t in forest.trees)
                write_span.attrs["bytes"] = os.path.getsize(out)
            distinct = check_matrix(matrix, gmap, "matrix")
            # Complete data: every per-tree depth sum is an integer, and so
            # is the tree count times the average depth 1 - 2*log2(d).
            d = matrix.values[distinct]
            total = len(forest.trees) * (1.0 - 2.0 * np.log2(d))
            off = float(np.max(np.abs(total - np.round(total)), initial=0.0))
            check(off <= 1e-6, f"T*(1 - 2*log2 d) is {off:.3g} off an integer")
            rng = np.random.default_rng([self.seed, k])
            check_pairs(forest, ds, matrix, rng, rec, self.size["pairs"])

        return latency, verify

    def layer_metrics(self) -> dict:
        t = self.threads
        m = self.fit_metrics(self.per_op, threads=t)
        fit1 = median_of(self.per_op("forest.fit_forest", threads=1))
        mat = median_of(self.per_op("distance.separation_matrix", threads=t))
        mat1 = median_of(self.per_op("distance.separation_matrix", threads=1))
        cells = median_of(self.per_op("distance.separation_matrix", "cells", threads=t))
        fit = m["forest.fit_s"]
        m.update({
            "data.load_csv_s": median_of(self.per_setup("data.load_csv")),
            "data.deduplicate_s": median_of(self.per_op("data.deduplicate")),
            "forest.fit_speedup_2t": fit1 / fit if fit and fit1 else 0.0,
            "distance.separation_matrix_s": mat,
            "distance.matrix_speedup_2t": mat1 / mat if mat and mat1 else 0.0,
            "distance.cell_updates": cells,
            "distance.cell_updates_per_s": cells / mat if mat else 0.0,
            "distance.pair_distance_ms": self.call_ms("distance.pair_distance"),
            "matrix.write_binary_s": median_of(self.per_op("matrix.write_binary")),
            "matrix.bytes_written": median_of(self.per_op("matrix.write_binary", "bytes")),
        })
        return m


class MixedMissing(Workload):
    """Both model kinds on mixed-type data with missing cells, one thread."""

    name = "mixed-missing"
    sizes = {
        "full": {"rows": 600, "tables": 16, "trees": 6, "pairs": 100, "min_ops": 3},
        "tiny": {"rows": 40, "tables": 2, "trees": 3, "pairs": 5, "min_ops": 2},
    }
    models = (("single", 1), ("extended", 2))

    def describe(self) -> dict:
        n = self.size["rows"]
        return {
            "generator": "generate_scenario('mixed'): 2 numeric + 2 categorical "
            "columns, 10% missing cells; one table dealt into per-op tables",
            "seed": self.seed,
            "rows": n,
            "tables": self.size["tables"],
            "model": "single and extended (ndim=2)",
            "trees": self.size["trees"],
            "threads": 1,
            "clients": 1,
            "op": "per model: fit_forest + deduplicate + separation_matrix "
            "+ anomaly_scores + write_csv",
            "accumulator_bytes": n * n * 8,
        }

    def setup(self):
        # Op k works on table k mod `tables`.  The tables are slices of one
        # generated table, dealt out in order of each row's missing-cell
        # count: rows missing several cells drive the both-branch node
        # blow-up, and dealing spreads them evenly, so the tables (and the
        # seeds) differ in values but not in how much routing they cause.
        s = self.size
        rng = np.random.default_rng(self.seed)
        big = generate_scenario("mixed", s["rows"] * s["tables"], rng)["dataset"]
        n_missing = np.sum([c.missing for c in big.columns], axis=0)
        order = np.argsort(n_missing, kind="stable")
        self.tables = []
        for j in range(s["tables"]):
            path = write_input_csv(big.take(np.sort(order[j :: s["tables"]])), self.work)
            with self.rec.span("data.load_csv"):
                self.tables.append(load_csv(path))

    def op(self, k: int):
        rec, ds = self.rec, self.tables[k % len(self.tables)]
        outputs = []
        t0 = time.perf_counter()
        for kind, ndim in self.models:
            params = ForestParams(
                n_trees=self.size["trees"],
                ndim=ndim,
                seed=self.forest_seed(k),
                model_kind=kind,
            )
            out = os.path.join(self.work, f"matrix-{kind}.csv")
            with rec.span("forest.fit_forest", kind=kind) as fit_span:
                forest = fit_forest(ds, params)
            with rec.span("data.deduplicate", kind=kind):
                _, gmap = deduplicate(ds)
            with rec.span("distance.separation_matrix", kind=kind):
                matrix = separation_matrix(forest, ds)
            with rec.span("distance.anomaly_scores", kind=kind):
                scores = anomaly_scores(forest, ds)
            with rec.span("matrix.write_csv", kind=kind) as write_span:
                matrix.write_csv(out)
            outputs.append((kind, forest, gmap, matrix, scores, out, fit_span, write_span))
        latency = time.perf_counter() - t0

        def verify():
            rng = np.random.default_rng([self.seed, k])
            for kind, forest, gmap, matrix, scores, out, fit_span, write_span in outputs:
                if rec.enabled:
                    note_fit(fit_span, forest)
                    write_span.attrs["bytes"] = os.path.getsize(out)
                check_matrix(matrix, gmap, f"{kind} matrix")
                check_unit_interval(scores, f"{kind} scores")
                check_pairs(forest, ds, matrix, rng, rec, self.size["pairs"])
                back = CondensedMatrix.read_csv(out)
                check(
                    back.n == matrix.n and np.array_equal(back.values, matrix.values),
                    f"{kind} matrix does not round-trip through its CSV",
                )

        return latency, verify

    def layer_metrics(self) -> dict:
        m = {"data.load_csv_s": median_of(self.per_setup("data.load_csv"))}
        # Unsuffixed metrics total both models per op; suffixed ones split
        # them by model kind.
        for suffix, match in [("", {})] + [(f".{k}", {"kind": k}) for k, _ in self.models]:
            m.update(self.fit_metrics(self.per_op, suffix, **match))
            for span, metric in (
                ("data.deduplicate", "data.deduplicate_s"),
                ("distance.separation_matrix", "distance.separation_matrix_s"),
                ("distance.anomaly_scores", "distance.anomaly_scores_s"),
                ("matrix.write_csv", "matrix.write_csv_s"),
            ):
                m[metric + suffix] = median_of(self.per_op(span, **match))
            m["matrix.csv_bytes" + suffix] = median_of(
                self.per_op("matrix.write_csv", "bytes", **match)
            )
        m["distance.pair_distance_ms"] = self.call_ms("distance.pair_distance")
        return m


def add_unseen_labels(ds: Dataset, fraction: float, rng) -> tuple[Dataset, int]:
    """Give about `fraction` of the present categorical cells a label that
    no fitted model has seen; returns the new dataset and the cell count."""
    cols, n_unseen = [], 0
    for c in ds.columns:
        if c.kind != "categorical":
            cols.append(c)
            continue
        hit = ~c.missing & (rng.random(len(c.values)) < fraction)
        n_unseen += int(hit.sum())
        labels = list(c.labels) + ["unseen-at-fit"]
        values = np.where(hit, len(labels) - 1, c.values)
        cols.append(Column("categorical", values, c.missing, labels))
    return Dataset(cols, list(ds.names), ds.weights), n_unseen


class ScoreServing(Workload):
    """Anomaly scoring of fresh batches through a saved and reloaded model."""

    name = "score-serving"
    sizes = {
        "full": {
            "table_rows": 20_000,
            "subsample": 256,
            "trees": 50,
            "batch_rows": 256,
            "unseen": 0.02,
            "probe_rows": 32,
            "min_ops": 100,
        },
        "tiny": {
            "table_rows": 300,
            "subsample": 32,
            "trees": 4,
            "batch_rows": 16,
            "unseen": 0.1,
            "probe_rows": 8,
            "min_ops": 3,
        },
    }

    def describe(self) -> dict:
        s = self.size
        return {
            "generator": "generate_scenario('mixed') with about "
            f"{s['unseen']:.0%} of categorical cells relabelled unseen per batch",
            "seed": self.seed,
            "rows": s["table_rows"],
            "batch_rows": s["batch_rows"],
            "model": f"extended (ndim=2), subsample {s['subsample']}",
            "trees": s["trees"],
            "threads": 1,
            "clients": 1,
            "op": "remap_dataset + anomaly_scores on one fresh batch",
            "accumulator_bytes": 0,
        }

    def batch(self, stream: int, rows: int):
        """A fresh batch; stream 0 is the set-up's probe, op k uses k + 1."""
        rng = np.random.default_rng([self.seed, stream])
        ds = generate_scenario("mixed", rows, rng)["dataset"]
        return add_unseen_labels(ds, self.size["unseen"], rng)

    def setup(self):
        rec, s = self.rec, self.size
        rng = np.random.default_rng(self.seed)
        table = generate_scenario("mixed", s["table_rows"], rng)["dataset"]
        path = write_input_csv(table, self.work)
        with rec.span("data.load_csv"):
            ds = load_csv(path)
        params = ForestParams(
            n_trees=s["trees"],
            subsample=s["subsample"],
            ndim=2,
            seed=self.forest_seed(0),
            model_kind="extended",
        )
        with rec.span("forest.fit_forest") as fit_span:
            fitted = fit_forest(ds, params)
        model = os.path.join(self.work, "model.json")
        with rec.span("forest.save_model") as save_span:
            save_model(fitted, model)
        with rec.span("forest.load_model"):
            self.forest = load_model(model)

        def verify():
            if rec.enabled:
                note_fit(fit_span, fitted)
                save_span.attrs["bytes"] = os.path.getsize(model)
            probe, _ = self.batch(0, self.size["probe_rows"])
            same = np.array_equal(
                anomaly_scores(fitted, probe), anomaly_scores(self.forest, probe)
            )
            check(same, "reloaded model scores a probe batch differently")

        return verify

    def op(self, k: int):
        rec, forest = self.rec, self.forest
        batch, n_unseen = self.batch(k + 1, self.size["batch_rows"])
        t0 = time.perf_counter()
        with rec.span("forest.remap_dataset"):
            remapped = remap_dataset(forest, batch)
        with rec.span("distance.anomaly_scores"):
            scores = anomaly_scores(forest, batch)
        latency = time.perf_counter() - t0

        def verify():
            check_unit_interval(scores, "scores")
            seen_unseen = sum(
                int(np.count_nonzero(~c.missing & (c.values == UNSEEN_CODE)))
                for c in remapped.columns
                if c.kind == "categorical"
            )
            check(
                seen_unseen == n_unseen,
                f"remap found {seen_unseen} unseen labels, batch has {n_unseen}",
            )
            # Scores are per row: a probe row scored alone matches its
            # in-batch score.  Every other op probes a row with an unseen label.
            rng = np.random.default_rng([self.seed, k, 2])
            probe = int(rng.integers(batch.n_rows))
            codes = np.array([c.values for c in remapped.columns if c.kind == "categorical"])
            unseen_rows = np.flatnonzero(np.any(codes == UNSEEN_CODE, axis=0))
            if k % 2 == 0 and len(unseen_rows):
                probe = int(unseen_rows[0])
            alone = anomaly_scores(forest, batch.take([probe]))[0]
            check(
                abs(alone - scores[probe]) <= 1e-12,
                f"row {probe} scores {alone!r} alone, {scores[probe]!r} in its batch",
            )

        return latency, verify

    def layer_metrics(self) -> dict:
        m = self.fit_metrics(self.per_setup)
        scores = median_of(self.per_op("distance.anomaly_scores"))
        rows = self.size["batch_rows"] * len(self.forest.trees)
        m.update({
            "data.load_csv_s": median_of(self.per_setup("data.load_csv")),
            "forest.save_model_s": median_of(self.per_setup("forest.save_model")),
            "forest.load_model_s": median_of(self.per_setup("forest.load_model")),
            "forest.model_bytes": median_of(self.per_setup("forest.save_model", "bytes")),
            "forest.remap_dataset_s": median_of(self.per_op("forest.remap_dataset")),
            "distance.anomaly_scores_s": scores,
            "distance.row_trees_per_s": rows / scores if scores else 0.0,
        })
        return m


WORKLOADS = {w.name: w for w in (PairwiseNumeric, MixedMissing, ScoreServing)}
