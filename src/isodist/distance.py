"""Pairwise separation-depth distances and per-row anomaly scores.

Traversal mirrors fitting: every node a pair shares contributes w_i*w_j to
its depth sum and a shared terminal contributes 3*w_i*w_j instead (3 being
the expected continuation depth under an infinite same-distribution
sample), so on fully observed data the accumulated value per tree equals
the pair's separation depth.  Rows with missing values or categories the
split never saw go down both branches with weights scaled by the stored
left-branch proportion (single-variable trees) or contribute their stored
median imputation to the hyperplane projection (extended trees).

Everything here reads the forest as its flat arrays, `Forest.flat`, which
fitting and `load_model` emit, and rows reach nodes through
`forest.descend`, which moves (row, node, weight) triples down all trees
one depth level at a time.  `separation_matrix` sums each tree's pair
depths by one of two paths:

* A tree where no split that two rows reach sends one of them neither
  way (all extended trees, and single-variable trees on rows without
  missing cells or categories a node never saw) takes the leaf-order
  kernel.  An unweighted descent gives each row the node where it ends;
  sorted by that node, the rows are in leaf order, in which every node's
  rows form one block [s, e), found by `searchsorted` against the node
  ids and their subtree ends.  A terminal at depth d fills its block with
  d + 3; a split at depth d fills the two blocks between its children,
  [s, m) and [m, e), with d + 1.  Each off-diagonal cell of an int32
  scratch is written once, then gathered into an int32 accumulator.
  Trees are routed in batches of about ROUTE_TRIPLES triples per level.
* Any other tree is summed with weights, as the sparse product
  M diag(c) M^T (the proximity product of RF-GAP, Rhodes, Cutler and Moon,
  arXiv:2201.12682): M holds the weight with which each row reaches each
  node, and c is 1 at a split, 3 at a terminal and 0 at a node fewer than
  two rows reach.  It is made a block of rows at a time and added into a
  float64 accumulator (`_add_weighted`, which `tree_depth_sums` also
  uses).  `scipy.sparse` is imported there, on the first weighted tree,
  so that the kernel path and scoring run on numpy alone.

Trees are summed one after another into one set of accumulators: an
int32 n x n accumulator and two int32 n x n scratch blocks, plus a
float64 n x n accumulator once a tree takes the weighted path, whose
sparse product then holds at most one block of BLOCK_CELLS cells (or of
one row) as sparse and dense values.  Only the n(n-1)/2 upper cells
become float64, at the end.  Before allocating, `separation_matrix`
estimates these arrays, the block and the float64 result; if that exceeds
the memory available to the process it raises `FitError` naming both byte
counts.

`anomaly_scores` descends all trees at once with weights, a block of
about ROUTE_TRIPLES // trees rows at a time, so that its (row, node,
weight) triples do not grow with the table, and adds each terminal's
w * h, h its isolation depth, to its row in tree order and then
pre-order, as a tree-by-tree walk would.

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
from .forest import TERMINAL, FitError, FlatForest, Forest, descend, remap_dataset
from .matrix import CondensedMatrix

# The int32 sums move into the float64 sums before the next tree could
# take them past this value.
INT32_MAX = int(np.iinfo(np.int32).max)

# Accumulator bytes per n x n cell: int32 accumulator, two int32 scratch
# blocks, float64 accumulator.
CELL_BYTES = 4 + 4 + 4 + 8

# A weighted tree's sparse product is made a block of rows of about this
# many cells at a time: 8 bytes of value and 4 of column index per cell,
# then 8 bytes per cell as a dense block.
BLOCK_CELLS = 1 << 16
BLOCK_CELL_BYTES = 8 + 4 + 8

# Kernel trees are routed together, as many at once as keep the triples of
# one level below this count; `anomaly_scores` routes as many rows at once.
ROUTE_TRIPLES = 1 << 16


def _add_weighted(flat: FlatForest, t: int, ds: Dataset, D) -> None:
    """Add tree t's pair depth sums into the square D: w_i*w_j for every
    node both rows reach, 3*w_i*w_j for a terminal.  With M the rows x
    nodes weight matrix, that is M diag(c) M^T with c = 1 at a split, 3 at
    a terminal and 0 at a node fewer than two rows reach.

    Its memory is bounded by the tree, not by a block of rows: the
    descent's triples are the entries of M, one per (row, node the row
    reaches) in this one tree, and the product needs M whole.  On a
    600-row mixed table with 10% missing cells that is about 65 entries a
    row on average, against the n cells a row of D."""
    from scipy import sparse

    rows, nodes, w = descend(flat, ds, range(t, t + 1), True, every_node=True)
    local = nodes - flat.roots[t]
    size = int(flat.roots[t + 1] - flat.roots[t])
    c = np.where(flat.kind[flat.roots[t] : flat.roots[t + 1]] == TERMINAL, 3.0, 1.0)
    c[np.bincount(local, minlength=size) < 2] = 0.0
    keep = c[local] > 0
    rows, local, w = rows[keep], local[keep], w[keep]
    # Columns in node order within each row, so each cell sums its nodes
    # root first.
    m = sparse.csr_matrix((w, (rows, local)), shape=(ds.n_rows, size))
    m.sort_indices()
    mt = m.T.tocsr()
    m.data *= c[m.indices]  # now M diag(c)
    step = _block_rows(ds.n_rows)
    for a in range(0, ds.n_rows, step):
        D[a : a + step] += (m[a : a + step] @ mt).toarray()


def _block_rows(n: int) -> int:
    """Rows of one block of a weighted tree's sparse product."""
    return min(n, max(1, BLOCK_CELLS // n))


def _tree_sums(forest: Forest, ds: Dataset) -> np.ndarray:
    """Condensed pair depth sums of all trees over the rows of `ds`.

    Trees the leaf-order kernel takes add into int32 `counts`, the others
    into float64 `sums`; each is allocated when a tree first needs it."""
    flat = forest.flat
    n = ds.n_rows
    n_trees = len(flat.roots) - 1
    counts = sums = None
    leaf = np.empty((n, n), dtype=np.int32)
    bound = 0  # the largest value a cell of `counts` can hold
    batch = max(1, ROUTE_TRIPLES // n)
    for t0 in range(0, n_trees, batch):
        trees = range(t0, min(t0 + batch, n_trees))
        # Each row ends once per tree: at a terminal, or at a split that
        # cannot place it.  Sorted by end node, tree t's rows are
        # `rows[k * n : (k + 1) * n]` in its leaf order, in which every
        # node's rows form one block.
        rows, ends, _ = descend(flat, ds, trees, False)
        order = np.argsort(ends, kind="stable")
        rows, ends = rows[order], ends[order]
        for k, t in enumerate(trees):
            keys = ends[k * n : (k + 1) * n]
            ids = np.arange(flat.roots[t], flat.roots[t + 1])
            s = np.searchsorted(keys, ids)
            e = np.searchsorted(keys, flat.end[ids])
            shared = e - s >= 2
            # A row some other row reaches a split with, that the split
            # cannot place, needs both-branch weights: the weighted path.
            stops = keys[flat.kind[keys] != TERMINAL]
            if shared[stops - flat.roots[t]].any():
                if sums is None:
                    sums = np.zeros((n, n))
                _add_weighted(flat, t, ds, sums)
                continue
            ids, s, e = ids[shared], s[shared], e[shared]
            d = flat.depth[ids]
            term = flat.kind[ids] == TERMINAL
            top = int(np.where(term, d + 3, d + 1).max(initial=0))
            # `leaf` takes the pair depths in leaf order: a terminal at
            # depth d fills its block with d + 3, a split the two blocks
            # between its children with d + 1; its right child's rows
            # start at m.
            for s_, e_, d_ in zip(s[term].tolist(), e[term].tolist(), d[term].tolist()):
                leaf[s_:e_, s_:e_] = d_ + 3
            split = ~term
            m = np.searchsorted(keys, flat.end[ids[split] + 1])
            for s_, m_, e_, d_ in zip(s[split].tolist(), m.tolist(), e[split].tolist(),
                                      d[split].tolist()):
                leaf[s_:m_, m_:e_] = d_ + 1
                leaf[m_:e_, s_:m_] = d_ + 1
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
            inv[rows[k * n : (k + 1) * n]] = np.arange(n)
            np.take(leaf, inv, axis=0, out=scratch)
            np.take(scratch, inv, axis=1, out=leaf)
            counts += leaf
    # Float sums first: a forest without kernel trees then adds exactly as
    # the weighted path always has.
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


def tree_depth_sums(forest: Forest, t: int, ds: Dataset) -> np.ndarray:
    """Raw pair separation-depth sums for tree t (square array).

    `ds` must already be schema-compatible; rows are traversed as given
    (no deduplication), each with initial weight 1.  Raises ValueError
    when t is not in range(n_trees).
    """
    n_trees = len(forest.flat.roots) - 1
    if not 0 <= t < n_trees:
        raise ValueError(f"tree index {t} is outside range({n_trees})")
    ds = remap_dataset(forest, ds)
    D = np.zeros((ds.n_rows, ds.n_rows))
    _add_weighted(forest.flat, t, ds, D)
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
    r = rep_ds.n_rows
    need = CELL_BYTES * r * r + BLOCK_CELL_BYTES * _block_rows(r) * r + 8 * (n * (n - 1) // 2)
    available = _available_bytes()
    if available is not None and need > available:
        raise FitError(
            f"a distance matrix over {n} rows needs about {need} bytes, "
            f"but {available} bytes are available"
        )
    avg = _tree_sums(forest, rep_ds) / (len(forest.flat.roots) - 1)
    rep = CondensedMatrix(rep_ds.n_rows, depth_math.standardize_separation(avg))
    return rep if rep_ds.n_rows == n else rep.take(gmap)


def pair_distance(forest: Forest, ds: Dataset, i: int, j: int) -> float:
    """Distance between rows i and j of `ds`; rows bitwise identical once
    remapped to the model's labels are 0 without any traversal.  The two
    rows descend all trees together, and every node both reach adds
    c * w_i * w_j, c = 3 at a terminal and 1 at a split.  The result equals
    the full-matrix entry: exactly on complete data, where the sums are
    integers, and to float rounding otherwise.  Two rows take at most two
    triples per node of the forest, so the memory is bounded by the
    forest's size, whatever the size of `ds`."""
    sub = remap_dataset(forest, ds.take([i, j]))
    if sub.row_key(0) == sub.row_key(1):
        return 0.0
    flat = forest.flat
    n_trees = len(flat.roots) - 1
    rows, nodes, w = descend(flat, sub, range(n_trees), True, every_node=True)
    mass = np.zeros((2, len(flat.kind)))
    mass[rows, nodes] = w
    c = np.where(flat.kind == TERMINAL, 3.0, 1.0)
    avg = np.array([np.sum(c * mass[0] * mass[1])]) / n_trees
    return float(depth_math.standardize_separation(avg)[0])


def anomaly_scores(forest: Forest, ds: Dataset) -> np.ndarray:
    """Standardized outlier score per row, in (0, 1]; higher = more anomalous.

    Average isolation depth over trees, with the expected-isolation
    continuation for the points remaining in each terminal at fit time,
    standardized against the expectation for the fitted subsample size.
    """
    ds = remap_dataset(forest, ds)
    flat = forest.flat
    n_trees = len(flat.roots) - 1
    depths = np.zeros(ds.n_rows)
    step = max(1, ROUTE_TRIPLES // n_trees)
    for a in range(0, ds.n_rows, step):
        block = ds.take(np.arange(a, min(a + step, ds.n_rows)))
        rows, nodes, w = descend(flat, block, range(n_trees), True)
        # Each row adds its terminals' w * h in node order, which is tree
        # order, then pre-order within a tree.
        order = np.argsort(nodes, kind="stable")
        np.add.at(depths, a + rows[order], w[order] * flat.value[nodes[order]])
    avg = depths / n_trees
    return depth_math.standardize_isolation(avg, max(2, forest.n_sub))
