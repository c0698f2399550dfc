"""Pairwise separation-depth distances and per-row anomaly scores.

Traversal mirrors fitting: every node a pair shares contributes w_i*w_j to
its depth sum and a shared terminal contributes 3*w_i*w_j instead (3 being
the expected continuation depth under an infinite same-distribution
sample), so on fully observed data the accumulated value per tree equals
the pair's separation depth.  Rows with missing values or categories the
split never saw go down both branches with weights scaled by the stored
left-branch proportion (single-variable trees) or contribute their stored
median imputation to the hyperplane projection (extended trees).

Depth sums are averaged over trees and squashed through
2^(-(avg-1)/2), giving distances in (0, 1] with 0.5 the expected value
for two random points.  Duplicated rows are collapsed before traversal
and expanded back with distance 0, since the depth expectation breaks on
true duplicates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import depth as depth_math
from .data import Dataset, deduplicate
from .forest import FitError, Forest, Terminal, remap_dataset, route
from .matrix import CondensedMatrix


def _walk(forest: Forest, tree, ds: Dataset, min_rows: int):
    """Pre-order, left-first walk of `tree` yielding (node, idx, w, depth)
    for every node that at least `min_rows` of the rows of `ds` reach.
    Rows start with weight 1; hyperplane trees carry no weights (w None)."""
    w = np.ones(ds.n_rows) if forest.params.model_kind == "single" else None
    stack = [(tree, np.arange(ds.n_rows), w, 0)]
    while stack:
        node, idx, w, depth = stack.pop()
        if len(idx) < min_rows:
            continue
        yield node, idx, w, depth
        if not isinstance(node, Terminal):
            idx_l, w_l, idx_r, w_r = route(node, ds, idx, w)
            stack.append((node.right, idx_r, w_r, depth + 1))
            stack.append((node.left, idx_l, w_l, depth + 1))


def _acc_depths(forest: Forest, tree, ds: Dataset, D):
    """Add one tree's pair depth sums into D: w_i*w_j for every shared node,
    3*w_i*w_j for a shared terminal."""
    for node, idx, w, _ in _walk(forest, tree, ds, 2):
        cell = 1.0 if w is None else np.outer(w, w)
        D[np.ix_(idx, idx)] += 3.0 * cell if isinstance(node, Terminal) else cell


def tree_depth_sums(forest: Forest, tree, ds: Dataset) -> np.ndarray:
    """Raw pair separation-depth sums for one tree (square array).

    `ds` must already be schema-compatible; rows are traversed as given
    (no deduplication), each with initial weight 1.
    """
    ds = remap_dataset(forest, ds)
    D = np.zeros((ds.n_rows, ds.n_rows))
    _acc_depths(forest, tree, ds, D)
    return D


def _depth_sum_matrix(forest: Forest, ds: Dataset, threads: int = 1) -> np.ndarray:
    n = ds.n_rows

    def run(trees):
        D = np.zeros((n, n))
        for tree in trees:
            _acc_depths(forest, tree, ds, D)
        return D

    if threads <= 1:
        return run(forest.trees)
    chunks = [forest.trees[i::threads] for i in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, chunks))
    total = parts[0]
    for p in parts[1:]:
        total += p
    return total


def separation_matrix(forest: Forest, ds: Dataset, threads: int = 1) -> CondensedMatrix:
    """Standardized pairwise distance matrix for the rows of `ds`.

    Exact duplicates are collapsed before traversal and expanded back with
    intra-duplicate distance 0.
    """
    if ds.n_rows < 2:
        raise FitError("need at least 2 rows for a distance matrix")
    ds = remap_dataset(forest, ds)
    rep_ds, gmap = deduplicate(ds)
    n = ds.n_rows
    if rep_ds.n_rows < 2:
        return CondensedMatrix(n)  # all rows identical
    D = _depth_sum_matrix(forest, rep_ds, threads=threads)
    avg = D / len(forest.trees)
    iu = np.triu_indices(rep_ds.n_rows, k=1)
    rep = CondensedMatrix(rep_ds.n_rows, depth_math.standardize_separation(avg[iu]))
    if rep_ds.n_rows == n:
        return rep
    full = rep.to_square()[np.ix_(gmap, gmap)]
    return CondensedMatrix.from_square(full)


def pair_distance(forest: Forest, ds: Dataset, i: int, j: int) -> float:
    """Distance between rows i and j of `ds`; bitwise-identical rows are 0
    without any traversal, and the result equals the full-matrix entry."""
    if ds.row_key(i) == ds.row_key(j):
        return 0.0
    sub = ds.take([i, j])
    return separation_matrix(forest, sub)[0, 1]


def anomaly_scores(forest: Forest, ds: Dataset) -> np.ndarray:
    """Standardized outlier score per row, in (0, 1]; higher = more anomalous.

    Average isolation depth over trees, with the expected-isolation
    continuation for the points remaining in each terminal at fit time,
    standardized against the expectation for the fitted subsample size.
    """
    ds = remap_dataset(forest, ds)
    depths = np.zeros(ds.n_rows)
    for tree in forest.trees:
        for node, idx, w, depth in _walk(forest, tree, ds, 1):
            if isinstance(node, Terminal):
                # A row reaches a node at most once, so no np.add.at.
                n_eff = max(1, int(round(node.size)))
                h = depth + depth_math.expected_isolation(n_eff)
                depths[idx] += h if w is None else w * h
    avg = depths / len(forest.trees)
    return depth_math.standardize_isolation(avg, max(2, forest.n_sub))
