"""Pairwise separation-depth distances and per-row anomaly scores.

Traversal mirrors fitting: every node a pair shares contributes w_i*w_j to
its depth sum and a shared terminal contributes 3*w_i*w_j instead (3 being
the expected continuation depth under an infinite same-distribution
sample), so on fully observed data the accumulated value per tree equals
the pair's separation depth.  Rows with missing values or categories the
split never saw go down both branches with weights scaled by the stored
left-branch proportion (single-variable trees) or contribute their stored
median imputation to the hyperplane projection (extended trees).

`separation_matrix` sums each tree's pair depths by one of two paths:

* Trees that send every row one way at every node (all extended trees,
  and single-variable trees on rows without missing cells or categories
  a node never saw) take the leaf-order kernel.  Rows sorted into the
  tree's pre-order leaf order make every node one contiguous block, so a
  pair split at depth d gets d + 1 and a pair sharing a terminal at depth
  d gets d + 3, written as about n block assignments into an int32
  scratch and gathered into an int32 accumulator.
* A tree that sends some row neither way (such a row needs both-branch
  weights) is abandoned by the kernel's walk and accumulated with
  weights, node by node, into a float64 accumulator (`_acc_depths`, which
  `tree_depth_sums` also uses).

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
from .forest import FitError, Forest, Terminal, remap_dataset, route
from .matrix import CondensedMatrix

# The int32 sums move into the float64 sums before the next tree could
# take them past this value.
INT32_MAX = int(np.iinfo(np.int32).max)

# Accumulator bytes per n x n cell: int32 accumulator, two int32 scratch
# blocks, float64 accumulator.
CELL_BYTES = 4 + 4 + 4 + 8


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


def _leaf_blocks(tree, ds: Dataset):
    """The rows of `ds` in `tree`'s leaf order and the blocks of that order
    that hold their pair depths, or None when some node sends a row
    neither way (it would need both-branch weights).

    Rows route unweighted, pre-order and left-first, so every node's rows
    are one block of the order.  Returns (order, splits, terminals): a
    split at depth d whose rows divide into [s, m) and [m, e) gives
    (s, m, e, d + 1), and a terminal at depth d holding rows [s, e), at
    least 2, gives (s, e, d + 3).  Unlike `_walk`, this needs each split's
    children before it descends."""
    order, splits, terminals = [], [], []
    start = 0
    stack = [(tree, np.arange(ds.n_rows), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if len(idx) >= 2 and not isinstance(node, Terminal):
            idx_l, _, idx_r, _ = route(node, ds, idx, None)
            if len(idx_l) + len(idx_r) < len(idx):
                return None
            if len(idx_l) and len(idx_r):
                splits.append((start, start + len(idx_l), start + len(idx), depth + 1))
            stack.append((node.right, idx_r, depth + 1))
            stack.append((node.left, idx_l, depth + 1))
            continue
        if len(idx) >= 2:
            terminals.append((start, start + len(idx), depth + 3))
        order.append(idx)
        start += len(idx)
    return np.concatenate(order), splits, terminals


def _tree_sums(forest: Forest, ds: Dataset) -> np.ndarray:
    """Condensed pair depth sums of all trees over the rows of `ds`.

    Trees the leaf-order kernel takes add into int32 `counts`, the others
    into float64 `sums`; each is allocated when a tree first needs it."""
    n = ds.n_rows
    counts = sums = None
    bound = 0  # the largest value a cell of `counts` can hold
    for tree in forest.trees:
        blocks = _leaf_blocks(tree, ds)
        if blocks is None:
            if sums is None:
                sums = np.zeros((n, n))
            _acc_depths(forest, tree, ds, sums)
            continue
        order, splits, terminals = blocks
        if counts is None:
            counts = np.zeros((n, n), dtype=np.int32)
            leaf, scratch = np.empty_like(counts), np.empty_like(counts)
        top = max(b[-1] for b in splits + terminals)
        if bound + top > INT32_MAX:
            if sums is None:
                sums = np.zeros((n, n))
            sums += counts
            counts[:] = 0
            bound = 0
        bound += top
        # Every off-diagonal cell of `leaf` is written once per tree.
        for s, m, e, d in splits:
            leaf[s:m, m:e] = d
            leaf[m:e, s:m] = d
        for s, e, d in terminals:
            leaf[s:e, s:e] = d
        inv = np.empty(n, dtype=np.intp)
        inv[order] = np.arange(n)
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
    _acc_depths(forest, tree, ds, D)
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
        for node, idx, w, depth in _walk(forest, tree, ds, 1):
            if isinstance(node, Terminal):
                # A row reaches a node at most once, so no np.add.at.
                n_eff = max(1, int(round(node.size)))
                h = depth + depth_math.expected_isolation(n_eff)
                depths[idx] += h if w is None else w * h
    avg = depths / len(forest.trees)
    return depth_math.standardize_isolation(avg, max(2, forest.n_sub))
