"""Synthetic comparison scenarios and the benchmark runner.

Five generator configurations (t1..t5) cover: equal-scale independent
normals, unequal scales, a deterministic nonlinear extra column, a
correlated 5-d normal with 15% missingness, and a two-group Gaussian
mixture with mirrored covariances.  A sixth ("mixed") produces a small
numeric+categorical table with missing cells for the Gower comparison,
and "gower" runs that comparison on a user-supplied CSV.

The runner fits both tree models (single-variable and extended with two
variables per split) with no sub-sampling, full-depth trees and 100 trees
by default, computes the applicable baseline metrics, and reports the
Pearson correlation between every metric pair averaged over seeds.
"""

from __future__ import annotations

import time

import numpy as np

from . import baselines
from .data import Column, Dataset, load_csv
from .distance import separation_matrix
from .forest import ForestParams, fit_forest
from .matrix import CondensedMatrix

SCENARIOS = ("t1", "t2", "t3", "t4", "t5", "mixed", "gower")

# Unequal-scale scenario: second column Normal(0, 100) (variance 100).
T2_SD = 10.0

# Correlated 5-d normal; 15% of cells masked for the missing-data runs.
T4_MEAN = np.array([0.619, 2.149, 0.083, 0.113, 3.66])
T4_COV = np.array(
    [
        [6.17, 1.87, -2.82, -1.35, -1.48],
        [1.87, 3.01, -1.03, -0.84, 1.56],
        [-2.82, -1.03, 3.94, -0.8, -0.73],
        [-1.35, -0.84, -0.8, 1.67, 0.59],
        [-1.48, 1.56, -0.73, 0.59, 2.77],
    ]
)
T4_MISSING_FRACTION = 0.15

# Mirrored-covariance Gaussian mixture, equal group probability.
T5_MEAN_A = np.array([-1.0, -1.0])
T5_COV_A = np.array([[0.1, -0.2], [-0.2, 0.5]])
T5_MEAN_B = np.array([0.25, 0.25])
T5_COV_B = np.array([[0.1, 0.2], [0.2, 0.5]])

MIXED_MISSING_FRACTION = 0.10


def _numeric_dataset(arrays, names) -> Dataset:
    cols = [Column("numeric", a, np.zeros(len(a), dtype=bool)) for a in arrays]
    return Dataset(cols, names)


def mask_missing(ds: Dataset, fraction: float, rng) -> Dataset:
    """Mark a uniformly random `fraction` of all cells as missing."""
    cols = []
    for c in ds.columns:
        extra = rng.random(len(c.values)) < fraction
        cols.append(Column(c.kind, c.values, c.missing | extra, c.labels))
    return Dataset(cols, list(ds.names), ds.weights)


def generate_scenario(name: str, n_rows: int, rng) -> dict:
    """Draw one scenario dataset; returns {"dataset": ..., extras}."""
    if name == "t1":
        x1, x2 = rng.standard_normal(n_rows), rng.standard_normal(n_rows)
        return {"dataset": _numeric_dataset([x1, x2], ["x1", "x2"])}
    if name == "t2":
        x1 = rng.standard_normal(n_rows)
        x2 = T2_SD * rng.standard_normal(n_rows)
        return {"dataset": _numeric_dataset([x1, x2], ["x1", "x2"])}
    if name == "t3":
        x1, x2 = rng.standard_normal(n_rows), rng.standard_normal(n_rows)
        return {
            "dataset": _numeric_dataset([x1, x2, np.exp(x2)], ["x1", "x2", "x3"])
        }
    if name == "t4":
        X = rng.multivariate_normal(T4_MEAN, T4_COV, size=n_rows)
        full = _numeric_dataset(list(X.T), [f"x{i+1}" for i in range(5)])
        return {"dataset": full, "na": mask_missing(full, T4_MISSING_FRACTION, rng)}
    if name == "t5":
        groups = rng.random(n_rows) < 0.5
        X = np.empty((n_rows, 2))
        n_a = int(groups.sum())
        X[groups] = rng.multivariate_normal(T5_MEAN_A, T5_COV_A, size=n_a)
        X[~groups] = rng.multivariate_normal(T5_MEAN_B, T5_COV_B, size=n_rows - n_a)
        return {
            "dataset": _numeric_dataset(list(X.T), ["x1", "x2"]),
            "groups": groups,
        }
    if name == "mixed":
        x1, x2 = rng.standard_normal(n_rows), rng.standard_normal(n_rows)
        # Categories loosely tied to the numeric columns so every metric
        # sees related structure.
        lv1 = np.digitize(x1 + 0.5 * rng.standard_normal(n_rows), [-0.5, 0.5])
        lv2 = np.digitize(x2 + 0.5 * rng.standard_normal(n_rows), [-1.0, 0.0, 1.0])
        cols = [
            Column("numeric", x1, np.zeros(n_rows, dtype=bool)),
            Column("numeric", x2, np.zeros(n_rows, dtype=bool)),
            Column("categorical", lv1, np.zeros(n_rows, dtype=bool), ["a", "b", "c"]),
            Column(
                "categorical", lv2, np.zeros(n_rows, dtype=bool), ["p", "q", "r", "s"]
            ),
        ]
        ds = Dataset(cols, ["x1", "x2", "c1", "c2"])
        return {"dataset": mask_missing(ds, MIXED_MISSING_FRACTION, rng)}
    raise ValueError(f"unknown scenario {name!r}")


def _fit_matrix(ds, trees, seed, kind, ndim, threads) -> CondensedMatrix:
    params = ForestParams(
        n_trees=trees,
        subsample=None,
        ndim=ndim,
        max_depth=None,
        seed=seed,
        model_kind=kind,
    )
    forest = fit_forest(ds, params)
    return separation_matrix(forest, ds, threads=threads)


def _baseline_metrics(ds: Dataset, drop_cols=()) -> dict:
    """Euclidean / Mahalanobis / Cosine on mean-imputed numeric data."""
    keep = [i for i in range(ds.n_cols) if i not in drop_cols]
    cols = [ds.columns[i] for i in keep]
    sub = Dataset(cols, [ds.names[i] for i in keep], ds.weights)
    sub = baselines.mean_impute(sub)
    return {
        "Euc": baselines.euclidean_matrix(sub),
        "Mah": baselines.mahalanobis_matrix(sub),
        "Cos": baselines.cosine_distance_matrix(sub),
    }


def _group_means(matrix: CondensedMatrix, groups: np.ndarray) -> dict:
    sq = matrix.to_square()
    iu = np.triu_indices(matrix.n, k=1)
    gi, gj = groups[iu[0]], groups[iu[1]]
    cells = sq[iu]
    return {
        "within_a": float(cells[gi & gj].mean()),
        "within_b": float(cells[~gi & ~gj].mean()),
        "between": float(cells[gi != gj].mean()),
    }


def _scenario_metrics(name, n_rows, trees, seed, threads, input_path, missing_tokens):
    rng = np.random.default_rng(seed)
    out = generate_scenario(name, n_rows, rng) if name != "gower" else {}
    metrics = {}
    extras = {}

    if name == "gower":
        if input_path is None:
            raise ValueError("the gower scenario needs --input <csv>")
        ds = load_csv(input_path, missing_tokens=missing_tokens)
        metrics["IsoExt"] = _fit_matrix(ds, trees, seed, "extended", 2, threads)
        metrics["Gower"] = baselines.gower_matrix(ds)
        return metrics, extras

    ds = out["dataset"]
    if name == "mixed":
        metrics["IsoExt"] = _fit_matrix(ds, trees, seed, "extended", 2, threads)
        metrics["Gower"] = baselines.gower_matrix(ds)
        return metrics, extras

    metrics["Iso"] = _fit_matrix(ds, trees, seed, "single", 1, threads)
    metrics["IsoExt"] = _fit_matrix(ds, trees, seed, "extended", 2, threads)
    metrics.update(_baseline_metrics(ds))

    if name == "t3":
        for key, mat in _baseline_metrics(ds, drop_cols=(2,)).items():
            metrics[f"{key}(no_x3)"] = mat
    if name == "t4":
        na = out["na"]
        metrics["Iso(NA)"] = _fit_matrix(na, trees, seed, "single", 1, threads)
        metrics["IsoExt(NA)"] = _fit_matrix(na, trees, seed, "extended", 2, threads)
        for key, mat in _baseline_metrics(na).items():
            metrics[f"{key}(NA)"] = mat
    if name == "t5":
        extras["groups"] = out["groups"]
    return metrics, extras


def run_bench(
    scenario: str,
    rows: int = 500,
    trees: int = 100,
    n_seeds: int = 5,
    base_seed: int = 0,
    threads: int = 1,
    input_path=None,
    missing_tokens=("", "NA"),
) -> dict:
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {SCENARIOS}")
    seeds = [base_seed + s for s in range(n_seeds)]
    corr_acc: dict[str, list] = {}
    gm_acc: dict[str, list] = {}
    per_seed_times = []

    for seed in seeds:
        t0 = time.perf_counter()
        metrics, extras = _scenario_metrics(
            scenario, rows, trees, seed, threads, input_path, missing_tokens
        )
        names = sorted(metrics)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                key = f"{a}|{b}"
                corr_acc.setdefault(key, []).append(
                    baselines.pearson_corr(metrics[a], metrics[b])
                )
        if "groups" in extras:
            for mname, mat in metrics.items():
                gm = _group_means(mat, extras["groups"])
                for k, v in gm.items():
                    gm_acc.setdefault(f"{mname}.{k}", []).append(v)
        per_seed_times.append(time.perf_counter() - t0)

    report = {
        "scenario": scenario,
        "params": {
            "rows": rows,
            "trees": trees,
            "n_seeds": n_seeds,
            "base_seed": base_seed,
            "threads": threads,
        },
        "seeds": seeds,
        "correlations": {k: float(np.mean(v)) for k, v in sorted(corr_acc.items())},
        "timings": {
            "per_seed_seconds": per_seed_times,
            "total_seconds": float(sum(per_seed_times)),
        },
    }
    if gm_acc:
        report["group_means"] = {
            k: float(np.mean(v)) for k, v in sorted(gm_acc.items())
        }
    return report


def format_report(report: dict) -> str:
    lines = [
        f"scenario {report['scenario']}  "
        f"rows={report['params']['rows']} trees={report['params']['trees']} "
        f"seeds={report['seeds']}",
        "",
        "pairwise Pearson correlations (mean over seeds):",
    ]
    for key, val in report["correlations"].items():
        lines.append(f"  {key:<28s} {val: .3f}")
    if "group_means" in report:
        lines.append("")
        lines.append("group mean distances:")
        for key, val in report["group_means"].items():
            lines.append(f"  {key:<28s} {val: .3f}")
    lines.append("")
    lines.append(f"total time: {report['timings']['total_seconds']:.1f}s")
    return "\n".join(lines)
