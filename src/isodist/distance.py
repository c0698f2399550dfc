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
one depth level at a time and hands them over in node order, tree by tree
and pre-order within a tree; every sum here reads them in that order.
`separation_matrix` sums each tree's pair depths by one of two paths:

* A tree where no split that two rows reach sends one of them neither
  way (all extended trees, and single-variable trees on rows without
  missing cells or categories a node never saw) takes the leaf-order
  kernel.  An unweighted descent gives each row the node where it ends;
  in node order, the rows are in leaf order, in which every node's
  rows form one block [s, e), read off one cumulative count of the rows
  ending at each node.  `_pair_rows` lays a tree's pair depths out as an
  n x n array, rows in table order and columns in leaf order, with one
  `np.repeat` over runs of equal depth: each split's smaller side holds
  runs over its other side, so there are at most n log2 n + n of them.
  `_finish` takes it out of leaf order by a tiled transposed copy
  and a row gather and adds it into an integer accumulator, where each
  tree adds a pair's depth to one of the pair's two cells; the two are
  added while the condensed result is built.  The per-tree arrays have
  byte cells when the forest's deepest node's depth + 3 fits in one,
  int32 cells otherwise.
  The accumulator has int32 cells while the trees times that depth fit
  in one, int64 cells otherwise, so no sum wraps.  Trees are routed in
  batches of about ROUTE_TRIPLES triples per level.
* Any other tree is summed with weights, as the sparse product
  M diag(c) M^T (the proximity product of RF-GAP, Rhodes, Cutler and Moon,
  arXiv:2201.12682): M holds the weight with which each row reaches each
  node, and c is 1 at a split, 3 at a terminal and 0 at a node fewer than
  two rows reach.  It is made a block of rows at a time and added into a
  float64 accumulator (`_add_weighted`, which `tree_depth_sums` also
  uses).  `scipy.sparse` is imported there, on the first weighted tree,
  so that the kernel path and scoring run on numpy alone.

Trees are summed one after another into one set of accumulators: an
integer n x n accumulator and an n x n scratch at the forest's cell
width, allocated on the first kernel tree, beside one kernel tree's n x n
array, plus a float64 n x n accumulator once a tree takes the weighted
path, whose sparse product then holds at most one block of BLOCK_CELLS
cells (or of one row) as sparse and dense values.  Only the n(n-1)/2
upper cells become float64, at the end, where the float sums are added
to the integer sums a row at a time, and are standardized in place.
Before allocating, `separation_matrix` estimates these arrays, the
float64 accumulator and the block only where a tree can take the weighted
path, and the result; if that exceeds the memory available to the
process, `_reserve` raises `FitError` naming both byte counts.  A
weighted tree's sparse M is checked the same way once the tree is routed,
before M is built (24 bytes an entry, for M and its transpose).

`anomaly_scores` descends all trees at once, a block of about
ROUTE_TRIPLES // trees rows at a time, so that its (row, node, weight)
triples do not grow with the table: with weights for a single-variable
forest, unweighted for an extended one, where every weight would be 1.
It sums each terminal's w * h, h its isolation depth, into its row from
0.0 with `np.bincount`, in the descent's node order, as a tree-by-tree
walk would.

Depth sums are averaged over trees and squashed through
2^(-(avg-1)/2), giving distances in (0, 1] with 0.5 the expected value
for two random points.  Duplicated rows are collapsed before traversal
and expanded back with distance 0, since the depth expectation breaks on
true duplicates.
"""

from __future__ import annotations

import numpy as np

from . import depth as depth_math
from .data import Dataset, deduplicate, row_keys
from .forest import TERMINAL, FitError, FlatForest, Forest, descend, remap_dataset
from .matrix import CondensedMatrix

# The kernel trees' integer sums take int64 cells once all trees at their
# deepest could take a pair's sum past this value.
INT32_MAX = int(np.iinfo(np.int32).max)

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
    reaches) in this one tree, and the product needs M whole.  On 600-row
    mixed tables with 10% missing cells that is about 60 entries a row on
    average, against the n cells a row of D; at 50% missing cells it can
    pass 10,000 a row.  So before M is built, its bytes and those of its
    transpose are compared with the memory available to the process,
    and FitError names both counts when they do not fit."""
    from scipy import sparse

    rows, nodes, w = descend(flat, ds, range(t, t + 1), True, every_node=True)
    local = nodes - flat.roots[t]
    size = int(flat.roots[t + 1] - flat.roots[t])
    c = np.where(flat.kind[flat.roots[t] : flat.roots[t + 1]] == TERMINAL, 3.0, 1.0)
    c[np.bincount(local, minlength=size) < 2] = 0.0
    keep = c[local] > 0
    rows, local, w = rows[keep], local[keep], w[keep]
    # Per entry, 8 bytes of value and 4 of column index, in M and in M^T.
    _reserve(2 * (8 + 4) * len(rows), f"tree {t}'s weight matrix of {len(rows)} entries")
    # In node order the triples are M^T row by row; M, its transpose, holds
    # each row's nodes ascending, so each cell sums its nodes root first.
    indptr = np.concatenate([[0], np.cumsum(np.bincount(local, minlength=size))])
    mt = sparse.csr_matrix((w, rows, indptr), shape=(size, ds.n_rows))
    m = mt.T.tocsr()
    m.data *= c[m.indices]  # now M diag(c)
    step = _block_rows(ds.n_rows)
    for a in range(0, ds.n_rows, step):
        D[a : a + step] += (m[a : a + step] @ mt).toarray()


def _block_rows(n: int) -> int:
    """Rows of one block of a weighted tree's sparse product."""
    return min(n, max(1, BLOCK_CELLS // n))


def _cell_type(flat: FlatForest) -> type:
    """The leaf-order scratch's cell type: bytes while the largest pair
    depth a tree can give, its deepest node's depth + 3, fits in one."""
    return np.uint8 if int(flat.depth.max()) + 3 <= np.iinfo(np.uint8).max else np.int32


def _sum_type(flat: FlatForest) -> type:
    """The integer accumulator's cell type: int32 while every tree adding
    its largest pair depth, its deepest node's depth + 3, cannot pass
    INT32_MAX, int64 otherwise."""
    n_trees = len(flat.roots) - 1
    return np.int32 if n_trees * (int(flat.depth.max()) + 3) <= INT32_MAX else np.int64


def _pair_rows(flat: FlatForest, t: int, ends: np.ndarray, order: np.ndarray,
               cell: type) -> np.ndarray | None:
    """Tree t's pair depths as an n x n array of `cell` type, or None
    when the tree needs the weighted path.  Row i is table row i and the
    columns are in the tree's leaf order: each pair's depth is in one of
    its two cells, (i, c) or (j, c'), c and c' the leaf positions of rows
    j and i, and the other cell holds 0, as does the diagonal.

    `ends` holds the node where each row ends, in the tree's leaf order,
    and `order` the table row at each leaf position.  In leaf order two
    rows that share a terminal at depth d have pair depth d + 3, and two
    that a split at depth d parts, the one in its left block [s, m) and
    the other in its right block [m, e), have d + 1.  So the cells are
    runs: leaf row a holds d + 3 over the later rows of its terminal, and
    each row of a split's smaller side holds d + 1 over the other side's
    block.  Placed in flat n x n coordinates and sorted, with a zero run
    over each gap, one `np.repeat` lays them out.

    A row is on the smaller side of at most log2 n of its splits, since
    that side holds at most half of its split's rows, so a tree makes at
    most n log2 n split runs and n terminal runs (Hopcroft's smaller-half
    argument), 3.4 n and n on a 1000-row t4 tree."""
    n = len(ends)
    root = flat.roots[t]
    # before[i] rows end before local node i: node i's rows are the block
    # [before[i], before[end[i]]).
    before = np.zeros(flat.roots[t + 1] - root + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends - root, minlength=len(before) - 1), out=before[1:])
    ids = np.arange(root, flat.roots[t + 1])
    shared = before[flat.end[ids] - root] - before[:-1] >= 2
    # A row some other row reaches a split with, that the split cannot
    # place, needs both-branch weights: the weighted path.
    stops = ends[flat.kind[ends] != TERMINAL]
    if shared[stops - root].any():
        return None
    split = ids[shared & (flat.kind[ids] != TERMINAL)]
    s, e = before[split - root], before[flat.end[split] - root]
    m = before[flat.end[split + 1] - root]
    # Each split's smaller side [lo, lo + size) holds runs over the other
    # side's block [other, other + width).
    small = m - s <= e - m
    lo, other = np.where(small, s, m), np.where(small, m, s)
    size, width = np.where(small, m - s, e - m), np.where(small, e - m, m - s)
    # One run per (split k, row a of its smaller side), after one
    # terminal run per row a.
    k = np.repeat(np.arange(len(split)), size)
    pos = np.arange(n)
    a = np.concatenate([pos, np.arange(len(k)) - np.repeat(np.cumsum(size) - size - lo, size)])
    start = np.concatenate([pos + 1, other[k]]) + n * order[a]
    length = np.concatenate([before[flat.end[ends] - root] - pos - 1, width[k]])
    value = np.concatenate([flat.depth[ends] + 3, flat.depth[split[k]] + 1]).astype(cell)
    # A row last in its terminal has an empty run, which may start where
    # another run starts: it sorts first, so that no gap is negative.
    at = np.argsort(2 * start + (length > 0))
    start, length = start[at], length[at]
    bounds = np.concatenate([[0], np.column_stack([start, start + length]).ravel(), [n * n]])
    values = np.zeros(len(bounds) - 1, dtype=cell)
    values[1::2] = value[at]
    return np.repeat(values, np.diff(bounds)).reshape(n, n)


def _finish(cells: np.ndarray, inv: np.ndarray, leaf: np.ndarray, counts: np.ndarray) -> None:
    """Add a tree's `_pair_rows` into `counts`, out of leaf order and
    transposed, with `leaf` as scratch; `cells` is overwritten.  inv[i] is
    table row i's leaf position."""
    # Transposed a 256 x 256 tile at a time, so that the rows read and
    # the rows written stay in cache: 0.35 ms against 0.53 ms for one
    # transposed copy of 1000 x 1000 byte cells on a 2-vCPU machine.
    n = len(cells)
    for r in range(0, n, 256):
        for c in range(0, n, 256):
            leaf[c : c + 256, r : r + 256] = cells[r : r + 256, c : c + 256].T
    # "clip" gathers straight into `out`; the default "raise" first gathers
    # into a hidden buffer of the same size.  `inv` is a permutation, so no
    # index is ever clipped.
    np.take(leaf, inv, axis=0, out=cells, mode="clip")
    np.add(counts, cells, out=counts)


def _tree_sums(forest: Forest, ds: Dataset) -> np.ndarray:
    """Condensed pair depth sums of all trees over the rows of `ds`.

    Trees the leaf-order kernel takes add into integer `counts`, of
    `_sum_type` so that no sum can wrap, the others into float64 `sums`;
    each is allocated when a tree first needs it.  A kernel tree's
    `_pair_rows` go through `_finish`, which adds each pair's depth to one
    of its two cells of `counts`, so a pair's sum there is the two cells
    added."""
    flat = forest.flat
    n = ds.n_rows
    n_trees = len(flat.roots) - 1
    cell = _cell_type(flat)
    counts = sums = None
    batch = max(1, ROUTE_TRIPLES // n)
    for t0 in range(0, n_trees, batch):
        trees = range(t0, min(t0 + batch, n_trees))
        # Each row ends once per tree: at a terminal, or at a split that
        # cannot place it.  In node order, tree t's rows are
        # `rows[k * n : (k + 1) * n]` in its leaf order, in which every
        # node's rows form one block.
        rows, ends, _ = descend(flat, ds, trees, False)
        for k, t in enumerate(trees):
            order = rows[k * n : (k + 1) * n]
            cells = _pair_rows(flat, t, ends[k * n : (k + 1) * n], order, cell)
            if cells is None:
                if sums is None:
                    sums = np.zeros((n, n))
                _add_weighted(flat, t, ds, sums)
                continue
            if counts is None:
                counts = np.zeros((n, n), dtype=_sum_type(flat))
                leaf = np.empty_like(cells)
            inv = np.empty(n, dtype=np.intp)
            inv[order] = np.arange(n)
            _finish(cells, inv, leaf, counts)
            del cells  # so that it is not alive while the next tree's is built
    # Release the scratch and the last batch's descent before the result.
    rows = ends = order = leaf = None
    # A pair's two integer cells add exactly, and float addition commutes,
    # so adding the float sums after is adding to them: a row slice at a
    # time, straight into the condensed result, so that one row's sums at
    # most are held beside it.
    cells = np.empty(n * (n - 1) // 2)
    at = 0
    for i in range(n - 1):
        part = cells[at : at + n - 1 - i]
        part[:] = 0.0 if counts is None else counts[i, i + 1 :] + counts[i + 1 :, i]
        if sums is not None:
            part += sums[i, i + 1 :]
        at += n - 1 - i
    return cells


def _available_bytes() -> int | None:
    """Memory this process can still allocate: MemAvailable, capped by the
    memory limit less the usage of the process's own cgroup and of each of
    its ancestors.  /proc/self/cgroup names the cgroup: its `0::` line for
    cgroup v2, its line listing `memory` for v1.  None when nothing can be
    read."""
    found, cgroups = [], []
    try:
        with open("/proc/meminfo") as fh:
            found += [int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:")]
    except (OSError, ValueError):
        pass
    try:
        with open("/proc/self/cgroup") as fh:
            cgroups = [line.rstrip("\n").split(":", 2) for line in fh if line.count(":") >= 2]
    except OSError:
        pass
    for _, controllers, path in cgroups:
        if controllers == "":
            root, limit, usage = "/sys/fs/cgroup", "memory.max", "memory.current"
        elif "memory" in controllers.split(","):
            root, limit, usage = "/sys/fs/cgroup/memory", "memory.limit_in_bytes", "memory.usage_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for k in range(len(parts) + 1):
            at = "/".join([root, *parts[:k]])
            try:
                with open(f"{at}/{limit}") as lim, open(f"{at}/{usage}") as use:
                    found.append(int(lim.read()) - int(use.read()))
            except (OSError, ValueError):  # absent, or "max" (no limit)
                pass
    return min(found) if found else None


def _reserve(need: int, what: str) -> None:
    """Raise FitError naming both byte counts unless `need` bytes, which
    `what` needs, fit in the memory available to the process."""
    available = _available_bytes()
    if available is not None and need > available:
        raise FitError(f"{what} needs about {need} bytes, but {available} bytes are available")


def tree_depth_sums(forest: Forest, t: int, ds: Dataset) -> np.ndarray:
    """Raw pair separation-depth sums for tree t (square array).

    `ds` is remapped to the forest's schema first (`remap_dataset`); its
    rows take the weighted path as given (no deduplication), each with
    initial weight 1.  Raises ValueError when t is not in range(n_trees).
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
    the result would not fit in the memory available to the process, and
    when a weighted tree's sparse M would not (see `_add_weighted`).

    `threads` is accepted and ignored, for backward compatibility: trees
    are summed one after another into one set of accumulators, since
    neither a thread pool nor a helper thread for `_finish` measured
    faster end to end.
    """
    if ds.n_rows < 2:
        raise FitError("need at least 2 rows for a distance matrix")
    ds = remap_dataset(forest, ds)
    rep_ds, gmap = deduplicate(ds)
    n = ds.n_rows
    if rep_ds.n_rows < 2:
        return CondensedMatrix(n)  # all rows identical
    r = rep_ds.n_rows
    # The estimate, per r x r cell: the integer accumulator, and the scratch
    # and a tree's `_pair_rows` at the forest's cell width; and 8 bytes per
    # result cell.  Only a single-variable forest over rows with a missing
    # cell or a categorical column can send a tree down the weighted path:
    # then add the float64 accumulator and one block of the sparse product.
    # `_pair_rows`'s runs (at most r log2 r + r, about 60 bytes each) are
    # gone before the result is made.
    flat = forest.flat
    cell = np.dtype(_sum_type(flat)).itemsize + 2 * np.dtype(_cell_type(flat)).itemsize
    need = cell * r * r + 8 * (n * (n - 1) // 2)
    if forest.params.model_kind == "single" and any(
            c.kind == "categorical" or c.missing.any() for c in rep_ds.columns):
        need += 8 * r * r + BLOCK_CELL_BYTES * _block_rows(r) * r
    _reserve(need, f"a distance matrix over {n} rows")
    avg = _tree_sums(forest, rep_ds)
    avg /= len(flat.roots) - 1
    rep = CondensedMatrix(r, depth_math._separation_distance(avg))
    return rep if rep_ds.n_rows == n else rep.take(gmap)


def pair_distance(forest: Forest, ds: Dataset, i: int, j: int) -> float:
    """Distance between rows i and j of `ds`; rows bitwise identical once
    remapped to the model's labels are 0 without any traversal.  The two
    rows descend all trees together, and every node both reach adds
    c * w_i * w_j, c = 3 at a terminal and 1 at a split.  The result equals
    the full-matrix entry: exactly on complete data, where the sums are
    integers, and to float rounding otherwise.  Two rows take at most two
    triples per node of the forest, so the memory is bounded by the
    forest's size, whatever the size of `ds`.  Raises IndexError when i
    or j is not a row of `ds`."""
    if not (0 <= i < ds.n_rows and 0 <= j < ds.n_rows):
        raise IndexError(f"pair ({i}, {j}) out of range for n_rows={ds.n_rows}")
    sub = remap_dataset(forest, ds.take([i, j]))
    keys = row_keys(sub)
    if (keys[0] == keys[1]).all():
        return 0.0
    flat = forest.flat
    n_trees = len(flat.roots) - 1
    rows, nodes, w = descend(flat, sub, range(n_trees), True, every_node=True)
    mass = np.zeros((2, len(flat.kind)))
    mass[rows, nodes] = w
    c = np.where(flat.kind == TERMINAL, 3.0, 1.0)
    return depth_math.standardize_separation(float(np.sum(c * mass[0] * mass[1])) / n_trees)


def anomaly_scores(forest: Forest, ds: Dataset) -> np.ndarray:
    """Standardized outlier score per row, in (0, 1]; higher = more anomalous.

    Average isolation depth over trees, with the expected-isolation
    continuation for the points remaining in each terminal at fit time,
    standardized against the expectation for the fitted subsample size.
    """
    ds = remap_dataset(forest, ds)
    flat = forest.flat
    n_trees = len(flat.roots) - 1
    # A hyperplane places every row, so an extended forest descends
    # unweighted: the same terminals, each with weight 1.
    weighted = forest.params.model_kind == "single"
    depths = np.zeros(ds.n_rows)
    step = max(1, ROUTE_TRIPLES // n_trees)
    for a in range(0, ds.n_rows, step):
        block = ds.take(np.arange(a, min(a + step, ds.n_rows)))
        rows, nodes, w = descend(flat, block, range(n_trees), weighted)
        h = flat.value[nodes]
        depths[a : a + block.n_rows] = np.bincount(
            rows, h if w is None else w * h, minlength=block.n_rows)
    avg = depths / n_trees
    return depth_math.standardize_isolation(avg, max(2, forest.n_sub))
