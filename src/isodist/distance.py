"""Pairwise separation-depth distances and per-row anomaly scores.

Traversal mirrors fitting: every node a pair shares contributes w_i*w_j to
its depth sum and a shared terminal contributes 3*w_i*w_j instead (3 being
the expected continuation depth under an infinite same-distribution
sample), so on fully observed data the accumulated value per tree equals
the pair's separation depth.  Rows with missing values or categories the
split never saw go down both branches with weights scaled by the stored
left-branch proportion (single-variable trees) or contribute their stored
median imputation to the hyperplane projection (extended trees).

`separation_matrix` sums each tree's pair depths by one of two paths,
both reading the tree through `forest.walk`, the one row walk:

* Trees that send every row one way at every node (all extended trees,
  and single-variable trees on rows without missing cells or categories
  a node never saw) take the leaf-order kernel.  The rows of the nodes
  the walk does not descend from, concatenated, are the leaf order, in
  which every node is one block.  A terminal at depth d fills its block
  with d + 3; a split at depth d fills the two blocks between its
  children with d + 1 once its first child, next in pre-order, shows
  where its rows divide.  Each off-diagonal cell of an int32 scratch is
  written once, then gathered into an int32 accumulator.
* A tree whose unweighted walk stops at a split that sends some row
  neither way (it needs both-branch weights) is accumulated with
  weights, node by node, into a float64 accumulator (`_acc_depths`,
  which `tree_depth_sums` also uses).

Trees are summed one after another into one set of accumulators: an
int32 n x n accumulator and two int32 n x n scratch blocks, plus a
float64 n x n accumulator once a tree takes the weighted path, which also
makes n x n float64 temporaries at nodes near the root.  Only the
n(n-1)/2 upper cells become float64, at the end.  Before allocating,
`separation_matrix` estimates these four arrays and the float64 result;
if that exceeds the memory available to the process it raises `FitError`
naming both byte counts.

Depth sums are averaged over trees and squashed through
2^(-(avg-1)/2), giving distances in (0, 1] with 0.5 the expected value
for two random points.  Duplicated rows are collapsed before traversal
and expanded back with distance 0, since the depth expectation breaks on
true duplicates.
"""

from __future__ import annotations

import numpy as np

from . import depth as depth_math
from .data import Dataset, deduplicate
from .forest import FitError, Forest, remap_dataset, walk
from .matrix import CondensedMatrix

# The int32 sums move into the float64 sums before the next tree could
# take them past this value.
INT32_MAX = int(np.iinfo(np.int32).max)

# Accumulator bytes per n x n cell: int32 accumulator, two int32 scratch
# blocks, float64 accumulator.
CELL_BYTES = 4 + 4 + 4 + 8


def _acc_depths(tree, ds: Dataset, D):
    """Add one tree's pair depth sums into D: w_i*w_j for every shared node,
    3*w_i*w_j for a shared terminal."""
    for size, idx, w, _ in walk(tree, ds, True, 2):
        if len(idx) >= 2:
            cell = 1.0 if w is None else np.outer(w, w)
            D[np.ix_(idx, idx)] += cell if size is None else 3.0 * cell


def _tree_sums(forest: Forest, ds: Dataset) -> np.ndarray:
    """Condensed pair depth sums of all trees over the rows of `ds`.

    Trees the leaf-order kernel takes add into int32 `counts`, the others
    into float64 `sums`; each is allocated when a tree first needs it."""
    n = ds.n_rows
    counts = sums = None
    leaf = np.empty((n, n), dtype=np.int32)
    bound = 0  # the largest value a cell of `counts` can hold
    for tree in forest.trees:
        # `leaf` takes the pair depths in leaf order: the rows of the nodes
        # the walk does not descend from, concatenated.  A terminal fills
        # its own block; a split's first child with rows comes next in
        # pre-order and marks where the split's rows divide.
        order, placed, top, split = [], 0, 0, None
        for size, idx, _, depth in walk(tree, ds, False, 2):
            k = len(idx)
            if split is not None:
                s, e, d = split
                leaf[s : s + k, s + k : e] = d
                leaf[s + k : e, s : s + k] = d
                top, split = max(top, d), None
            if size is None and k >= 2:
                split = (placed, placed + k, depth + 1)
                continue
            if k >= 2:
                leaf[placed : placed + k, placed : placed + k] = depth + 3
                top = max(top, depth + 3)
            order.append(idx)
            placed += k
        if placed < n:  # the walk stopped: some row needs both-branch weights
            if sums is None:
                sums = np.zeros((n, n))
            _acc_depths(tree, ds, sums)
            continue
        if counts is None:
            counts = np.zeros((n, n), dtype=np.int32)
            scratch = np.empty_like(counts)
        if bound + top > INT32_MAX:
            if sums is None:
                sums = np.zeros((n, n))
            sums += counts
            counts[:] = 0
            bound = 0
        bound += top
        inv = np.empty(n, dtype=np.intp)
        inv[np.concatenate(order)] = np.arange(n)
        np.take(leaf, inv, axis=0, out=scratch)
        np.take(scratch, inv, axis=1, out=leaf)
        counts += leaf
    # Float sums first: a forest without kernel trees then adds exactly as
    # the node-by-node accumulation always has.
    if sums is None:
        return _upper(counts)
    total = _upper(sums)
    if counts is not None:
        total += _upper(counts)
    return total


def _upper(a) -> np.ndarray:
    """The condensed upper-triangle cells of square `a`, as float64."""
    return np.concatenate([a[i, i + 1 :] for i in range(len(a) - 1)], dtype=np.float64)


def _available_bytes() -> int | None:
    """Memory this process can still allocate: MemAvailable, capped by a
    cgroup memory limit less its usage; None when neither can be read."""
    found = []
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    found.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError):
        pass
    for limit, usage in (
        ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current"),
        ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
         "/sys/fs/cgroup/memory/memory.usage_in_bytes"),
    ):
        try:
            with open(limit) as lim, open(usage) as use:
                found.append(int(lim.read()) - int(use.read()))
        except (OSError, ValueError):  # absent, or "max" (no limit)
            pass
    return min(found) if found else None


def tree_depth_sums(forest: Forest, tree, ds: Dataset) -> np.ndarray:
    """Raw pair separation-depth sums for one tree (square array).

    `ds` must already be schema-compatible; rows are traversed as given
    (no deduplication), each with initial weight 1.
    """
    ds = remap_dataset(forest, ds)
    D = np.zeros((ds.n_rows, ds.n_rows))
    _acc_depths(tree, ds, D)
    return D


def separation_matrix(forest: Forest, ds: Dataset, threads: int = 1) -> CondensedMatrix:
    """Standardized pairwise distance matrix for the rows of `ds`.

    Exact duplicates are collapsed before traversal and expanded back with
    intra-duplicate distance 0.  Raises FitError when the accumulators and
    the result would not fit in the memory available to the process.

    `threads` is accepted and ignored, for backward compatibility: trees
    are summed one after another into one set of accumulators, since a
    thread pool measured no faster and each worker held its own.
    """
    if ds.n_rows < 2:
        raise FitError("need at least 2 rows for a distance matrix")
    ds = remap_dataset(forest, ds)
    rep_ds, gmap = deduplicate(ds)
    n = ds.n_rows
    if rep_ds.n_rows < 2:
        return CondensedMatrix(n)  # all rows identical
    need = CELL_BYTES * rep_ds.n_rows**2 + 8 * (n * (n - 1) // 2)
    available = _available_bytes()
    if available is not None and need > available:
        raise FitError(
            f"a distance matrix over {n} rows needs about {need} bytes, "
            f"but {available} bytes are available"
        )
    avg = _tree_sums(forest, rep_ds) / len(forest.trees)
    rep = CondensedMatrix(rep_ds.n_rows, depth_math.standardize_separation(avg))
    return rep if rep_ds.n_rows == n else rep.take(gmap)


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
        for size, idx, w, depth in walk(tree, ds, True, 1):
            if size is not None:
                # A row reaches a node at most once, so no np.add.at.
                n_eff = max(1, int(round(size)))
                h = depth + depth_math.expected_isolation(n_eff)
                depths[idx] += h if w is None else w * h
    avg = depths / len(forest.trees)
    return depth_math.standardize_isolation(avg, max(2, forest.n_sub))
