"""Randomized isolation-tree ensembles over mixed-type data.

Two tree families:

* single-variable trees: one random variable per node; numeric nodes draw
  a uniform threshold inside the node's observed range, categorical nodes
  send a random proper subset of the present categories left.  Rows with
  a missing split value go down BOTH branches carrying weights scaled by
  the left-branch proportion b_l.
* extended (hyperplane) trees: up to `ndim` variables combine linearly;
  numeric coefficients are Normal(0,1) scaled by the node-local standard
  deviation, each present category of a categorical variable gets its own
  Normal(0,1) coefficient, and missing cells contribute the median of the
  observed contributions, so every row routes deterministically.

Each tree grows from its own RNG stream spawned from (seed, tree index),
so a tree does not depend on the trees grown before it; its subsample is
the stream's first draw.  `_grow` grows a tree one depth level at a time.
The tree's rows (and their both-branch copies, with weights) stay sorted
by the node they reach, so eligible columns, ranges, weight sums and
hyperplane medians are segment reductions over all of a level's nodes,
and each level draws its random numbers in blocks: uniform keys choosing
each node's columns, then thresholds, category coins or hyperplane
coefficients, and again only for the draws that failed.  When the tree is
done its levels are linked into the node dataclasses, which are the fit's
output and the model file's content.

Prediction reads no node object.  `flat_forest` compiles a forest's trees
once into flat pre-order arrays (`FlatForest`), kept on the forest until
its list of trees changes, and `descend` moves (row, node, weight) triples
down all trees one depth level at a time, by the fit's rules: numeric
threshold, categorical subset, both branches with weights b and 1 - b for
a row a single-variable split cannot place, the WEIGHT_FLOOR drop, and the
hyperplane projection with stored imputations.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import depth as depth_math
from .data import UNSEEN_CODE, Column, Dataset

FORMAT_VERSION = 1

# Rows whose accumulated weight drops below this are dropped from a node;
# both-branch routing of missing values would otherwise blow up node sizes.
WEIGHT_FLOOR = 1e-8

# Retries for degenerate random draws (empty/full category subset, or a
# threshold that rounds onto the range boundary) before giving up on the node.
MAX_REDRAWS = 16


class FitError(ValueError):
    """Dataset cannot be fitted (too small / no splittable column)."""


class ModelFormatError(ValueError):
    """Model file is malformed or has an unsupported version."""


@dataclass(slots=True)
class Terminal:
    # Remaining point count at fit time (weight mass for single-variable
    # trees); feeds the expected-isolation continuation for anomaly scores.
    size: float


@dataclass(slots=True)
class NumericSplit:
    var: int
    threshold: float
    left_fraction: float
    left: object = None
    right: object = None


@dataclass(slots=True)
class CategoricalSplit:
    var: int
    left_set: np.ndarray  # bool, indexed by category code
    present: np.ndarray  # bool, indexed by category code
    left_fraction: float
    left: object = None
    right: object = None


@dataclass(slots=True)
class HyperplaneSplit:
    num_vars: list[int]
    num_coefs: list[float]
    num_imputes: list[float]
    cat_vars: list[int]
    cat_coefs: list[np.ndarray]  # per-code coefficient, NaN where absent
    cat_imputes: list[float]
    threshold: float
    left: object = None
    right: object = None


@dataclass
class ForestParams:
    n_trees: int = 100
    subsample: int | None = None  # None: the full dataset
    ndim: int = 1
    max_depth: int | None = None  # None: unlimited (full-depth trees)
    seed: int = 0
    model_kind: str = "single"  # "single" | "extended"

    def __post_init__(self):
        if self.model_kind not in ("single", "extended"):
            raise FitError(f"unknown model kind {self.model_kind!r}")
        if self.model_kind == "single" and self.ndim != 1:
            raise FitError("single-variable model requires ndim=1")
        if self.model_kind == "extended" and self.ndim < 1:
            raise FitError("ndim must be >= 1")
        if self.n_trees < 1:
            raise FitError("need at least one tree")


@dataclass
class Forest:
    params: ForestParams
    schema: list[dict]  # per column: {name, kind, labels}
    trees: list = field(default_factory=list)
    n_sub: int = 0
    # The trees compiled into flat arrays by `flat_forest`, on first use.
    _flat: FlatForest | None = field(default=None, init=False, repr=False, compare=False)


def _cells(ds: Dataset):
    """(X, miss): the cells of `ds` as an (n_rows, n_cols) float64 array,
    categorical codes as floats, and its missing mask.  A negative code (a
    label the model never saw) counts as missing: no split can place it."""
    X = np.empty((ds.n_rows, ds.n_cols))
    miss = np.empty((ds.n_rows, ds.n_cols), dtype=bool)
    for j, col in enumerate(ds.columns):
        X[:, j] = col.values
        miss[:, j] = col.missing | (col.values < 0) if col.kind == "categorical" else col.missing
    return X, miss


def _ranges(cells, known, starts):
    """The least and the greatest known cell of each column in each
    segment of rows [starts[s], starts[s + 1]); +inf and -inf where a
    segment knows none.  A column with lo < hi has >= 2 distinct values."""
    lo = np.minimum.reduceat(np.where(known, cells, np.inf), starts, axis=0)
    hi = np.maximum.reduceat(np.where(known, cells, -np.inf), starts, axis=0)
    return lo, hi


def _thresholds(rng, lo, hi):
    """One uniform draw in [lo[i], hi[i]) per entry, strictly below hi so
    both branches are non-empty.  An entry whose draw rounds out of the
    range draws again, up to MAX_REDRAWS rounds in all; NaN if none lands.

    Where `hi - lo` overflows (endpoints near +-1.8e308) the draw is made
    in halved space; halving such large values is exact.
    """
    z = np.full(len(lo), np.nan)
    todo = np.arange(len(lo))
    for _ in range(MAX_REDRAWS):
        if not len(todo):
            break
        u = rng.random(len(todo))
        a, b = lo[todo], hi[todo]
        with np.errstate(over="ignore", invalid="ignore"):
            span = b - a
            halved = 2.0 * (a / 2.0 + u * (b / 2.0 - a / 2.0))
            t = np.where(np.isfinite(span), a + u * span, halved)
        good = (a <= t) & (t < b)
        z[todo[good]] = t[good]
        todo = todo[~good]
    return z


def _subsets(rng, present):
    """Per row of the bool table `present`, a fair coin for each present
    code, drawn again, up to MAX_REDRAWS rounds in all, until the heads
    are a proper non-empty subset.  Returns the heads as a table and the
    mask of rows that got one."""
    left = np.zeros_like(present)
    n_present = np.count_nonzero(present, axis=1)
    todo = np.arange(len(present))
    for _ in range(MAX_REDRAWS):
        if not len(todo):
            break
        p = present[todo]
        coin = np.zeros_like(p)
        coin[p] = rng.random(np.count_nonzero(p)) < 0.5
        heads = np.count_nonzero(coin, axis=1)
        good = (heads > 0) & (heads < n_present[todo])
        left[todo[good]] = coin[good]
        todo = todo[~good]
    ok = np.ones(len(present), dtype=bool)
    ok[todo] = False
    return left, ok


def _segment_medians(seg, vals, n_seg):
    """The median of `vals` within each segment id of `seg` (ids below
    n_seg), as np.median gives it: the mean of the two middle values for
    an even count.  NaN for a segment without values."""
    count = np.bincount(seg, minlength=n_seg)
    v = vals[np.lexsort((vals, seg))]
    first = np.cumsum(count) - count
    has = count > 0
    a = v[(first + (count - 1) // 2)[has]]
    b = v[(first + count // 2)[has]]
    med = np.full(n_seg, np.nan)
    med[has] = np.where(count[has] % 2 == 1, a, (a + b) / 2)
    return med


def _split_single(X, miss, n_labels, rows, seg, starts, rng):
    """Draw a single-variable split for each segment of rows.  Returns
    (ok, splits, left, right): ok marks the segments that got a split,
    `splits` holds their node objects (left_fraction still unset), and
    left/right mark the rows each sends that way; a row in neither goes
    down both branches."""
    n_seg, n_cols = len(starts), X.shape[1]
    lo, hi = _ranges(X[rows], ~miss[rows], starts)
    eligible = lo < hi
    # The first eligible column in a uniform order is uniform over them.
    keys = rng.random(eligible.shape)
    keys[~eligible] = 2.0
    var = np.argmin(keys, axis=1)
    s = np.arange(n_seg)
    ok = eligible[s, var]
    cat = n_labels[var] > 0
    thr = np.full(n_seg, np.nan)
    num = np.flatnonzero(ok & ~cat)
    thr[num] = _thresholds(rng, lo[num, var[num]], hi[num, var[num]])
    ok[num] = ~np.isnan(thr[num])
    at = rows * n_cols + var[seg]
    x, known = X.ravel()[at], ~miss.ravel()[at]
    left = known & (x <= thr[seg])
    cats = np.flatnonzero(ok & cat)
    if len(cats):
        # The categories present at each categorical segment get the coins.
        hit = known & cat[seg]
        codes = x[hit].astype(np.intp)
        present = np.zeros((n_seg, int(n_labels.max())), dtype=bool)
        present[seg[hit], codes] = True
        left_set = np.zeros_like(present)
        left_set[cats], ok[cats] = _subsets(rng, present[cats])
        left[hit] = left_set[seg[hit], codes]
    splits = []
    size = n_labels.tolist()
    for i, v, z in zip(np.flatnonzero(ok).tolist(), var[ok].tolist(), thr[ok].tolist()):
        if size[v]:
            splits.append(CategoricalSplit(
                v, left_set[i, : size[v]].copy(), present[i, : size[v]].copy(), 0.0
            ))
        else:
            splits.append(NumericSplit(v, z, 0.0))
    return ok, splits, left, known & ~left


def _split_hyperplane(X, miss, n_labels, rows, seg, starts, rng, ndim):
    """Draw a hyperplane split for each segment of rows, over up to `ndim`
    of its eligible columns.  Returns (ok, splits, left, right) as
    `_split_single` does; every row goes one way."""
    n_seg, n_cols = len(starts), X.shape[1]
    lo, hi = _ranges(X[rows], ~miss[rows], starts)
    eligible = lo < hi
    # The k smallest of uniform keys: k columns uniform among the eligible.
    keys = rng.random(eligible.shape)
    keys[~eligible] = 2.0
    pick = np.argsort(keys, axis=1)[:, :ndim]
    used = np.arange(pick.shape[1]) < np.minimum(ndim, eligible.sum(axis=1))[:, None]
    # A segment's terms: numeric columns first, then categorical ones,
    # each kind in column order; 2 * n_cols past its last term.
    terms = np.sort(np.where(used, pick + n_cols * (n_labels[pick] > 0), 2 * n_cols), axis=1)
    valid = terms < 2 * n_cols
    var = terms % n_cols
    cat = valid & (n_labels[var] > 0)
    num = valid & ~cat
    coef = np.zeros(terms.shape)
    coef[num] = rng.standard_normal(np.count_nonzero(num))
    # Row j of `cat_coef` holds categorical term j's coefficients by code,
    # NaN for the codes absent at its segment.
    term_id = np.cumsum(cat).reshape(cat.shape) - 1
    present = np.zeros((np.count_nonzero(cat), max(1, int(n_labels.max()))), dtype=bool)
    cells = []
    for t in range(terms.shape[1]):
        at = rows * n_cols + var[seg, t]
        x, known = X.ravel()[at], valid[seg, t] & ~miss.ravel()[at]
        c = known & cat[seg, t]
        present[term_id[seg[c], t], x[c].astype(np.intp)] = True
        cells.append((x, known))
    cat_coef = np.full(present.shape, np.nan)
    cat_coef[present] = rng.standard_normal(np.count_nonzero(present))

    y = np.zeros(len(rows))
    impute = np.zeros(terms.shape)
    s = np.arange(n_seg)
    for t, (x, known) in enumerate(cells):
        # A numeric coefficient is Normal(0, 1) over the sd of the
        # segment's known cells.  The cells are scaled by their largest
        # magnitude first, so their squares neither overflow nor vanish;
        # the largest scales to +-1, so the sd is > 0.
        k = known & num[seg, t]
        sk = seg[k]
        scale = np.maximum(-lo[s, var[:, t]], hi[s, var[:, t]])
        xs = x[k] / scale[sk]
        n_known = np.maximum(1, np.bincount(sk, minlength=n_seg))
        dev = xs - (np.bincount(sk, weights=xs, minlength=n_seg) / n_known)[sk]
        sd2 = np.bincount(sk, weights=dev * dev, minlength=n_seg) / n_known
        m = num[:, t]
        coef[m, t] /= scale[m] * np.sqrt(sd2[m])
        term = coef[seg, t] * x
        c = known & cat[seg, t]
        term[c] = cat_coef[term_id[seg[c], t], x[c].astype(np.intp)]
        impute[:, t] = _segment_medians(seg[known], term[known], n_seg)
        has = valid[seg, t]
        y[has] += np.where(known, term, impute[seg, t])[has]

    lo_y, hi_y = np.minimum.reduceat(y, starts), np.maximum.reduceat(y, starts)
    ok = lo_y < hi_y
    thr = np.full(n_seg, np.nan)
    thr[ok] = _thresholds(rng, lo_y[ok], hi_y[ok])
    ok &= ~np.isnan(thr)
    splits = []
    for i in np.flatnonzero(ok).tolist():
        node = HyperplaneSplit([], [], [], [], [], [], threshold=float(thr[i]))
        for t in np.flatnonzero(valid[i]).tolist():
            v = int(var[i, t])
            if cat[i, t]:
                node.cat_vars.append(v)
                node.cat_coefs.append(cat_coef[term_id[i, t], : n_labels[v]].copy())
                node.cat_imputes.append(float(impute[i, t]))
            else:
                node.num_vars.append(v)
                node.num_coefs.append(float(coef[i, t]))
                node.num_imputes.append(float(impute[i, t]))
        splits.append(node)
    left = y <= thr[seg]
    return ok, splits, left, ~left


def _grow(X, miss, n_labels, idx, rng, params: ForestParams):
    """Grow one tree on rows `idx` of the cells (X, miss), one depth level
    at a time, and return its root.

    The tree's rows are kept sorted by the node they reach at the current
    level: a single-variable model carries each row's weight and sends a
    row its split cannot place down both branches with weights b*w and
    (1 - b)*w, b the weight share of the split's placed rows sent left,
    dropping copies below WEIGHT_FLOOR.  Each level draws the splits of
    all its nodes that hold >= 2 rows at once; a node that gets none is a
    terminal.  The split of a level's j-th split node has children 2j and
    2j + 1 on the next level."""
    weighted = params.model_kind == "single"
    rows = idx
    w = np.ones(len(rows)) if weighted else None
    node = np.zeros(len(rows), dtype=np.intp)
    levels = []  # per depth: (its split nodes, in order; all its nodes, in order)
    n_nodes, depth = 1, 0
    while n_nodes:
        count = np.bincount(node, minlength=n_nodes)
        size = count if w is None else np.bincount(node, weights=w, minlength=n_nodes)
        objs = list(map(Terminal, map(float, size.tolist())))
        splits = []
        levels.append((splits, objs))
        cand = count > 1
        if (params.max_depth is not None and depth >= params.max_depth) or not cand.any():
            break
        keep = cand[node]
        rows, node = rows[keep], node[keep]
        w = None if w is None else w[keep]
        # Segments: the candidate nodes in order.
        seg = (np.cumsum(cand) - 1)[node]
        starts = np.cumsum(count[cand]) - count[cand]
        if weighted:
            ok, found, left, right = _split_single(X, miss, n_labels, rows, seg, starts, rng)
        else:
            ok, found, left, right = _split_hyperplane(
                X, miss, n_labels, rows, seg, starts, rng, params.ndim
            )
        splits += found
        for i, p in zip(np.flatnonzero(cand)[ok].tolist(), splits):
            objs[i] = p
        rank = np.cumsum(ok) - 1
        kid = 2 * rank[seg] + right
        one = ok[seg] & (left | right)
        if w is None:
            rows, kid, w_kid = rows[one], kid[one], None
        else:
            wl = np.bincount(seg[left], weights=w[left], minlength=len(ok))[ok]
            wr = np.bincount(seg[right], weights=w[right], minlength=len(ok))[ok]
            b = wl / (wl + wr)
            for p, frac in zip(splits, b.tolist()):
                p.left_fraction = frac
            both = np.flatnonzero(ok[seg] & ~(left | right))
            bb = b[rank[seg[both]]]
            rows = np.concatenate([rows[one], rows[both], rows[both]])
            kid = np.concatenate([kid[one], kid[both], kid[both] + 1])
            w_kid = np.concatenate([w[one], bb * w[both], (1.0 - bb) * w[both]])
            kept = w_kid >= WEIGHT_FLOOR
            rows, kid, w_kid = rows[kept], kid[kept], w_kid[kept]
        order = np.argsort(kid, kind="stable")
        rows, node = rows[order], kid[order]
        w = None if w_kid is None else w_kid[order]
        n_nodes = 2 * len(splits)
        depth += 1
    for (splits, _), (_, below) in zip(levels, levels[1:]):
        for p, lt, rt in zip(splits, below[0::2], below[1::2]):
            p.left, p.right = lt, rt
    return levels[0][1][0]


def leaf_depths(tree) -> np.ndarray:
    """Depths of the terminals of `tree`, in pre-order, left first; the
    tree has 2 * len(result) - 1 nodes."""
    depths, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Terminal):
            depths.append(depth)
        else:
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
    return np.array(depths)


def _tree_rng(seed: int, tree_index: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def fit_forest(ds: Dataset, params: ForestParams, threads: int = 1) -> Forest:
    """Grow `params.n_trees` trees on (weighted, without-replacement)
    subsamples of `ds`.  Deterministic in (ds, params, seed): tree k draws
    from its own stream `_tree_rng(seed, k)`, its subsample first.

    `threads` is accepted and ignored, for backward compatibility.
    """
    if ds.n_rows < 2:
        raise FitError("need at least 2 rows to fit")
    X, miss = _cells(ds)
    lo, hi = _ranges(X, ~miss, [0])
    if not (lo < hi).any():
        raise FitError("no column has >= 2 distinct non-missing values")
    n_sub = ds.n_rows if params.subsample is None else min(params.subsample, ds.n_rows)
    if n_sub < 2:
        raise FitError("subsample size must be >= 2")
    n_labels = np.array([len(c.labels) if c.kind == "categorical" else 0 for c in ds.columns])
    p = ds.weights / ds.weights.sum()
    trees = []
    for k in range(params.n_trees):
        rng = _tree_rng(params.seed, k)
        if n_sub < ds.n_rows:
            idx = rng.choice(ds.n_rows, size=n_sub, replace=False, p=p)
        else:
            idx = np.arange(ds.n_rows)
        trees.append(_grow(X, miss, n_labels, idx, rng, params))
    schema = [
        {"name": name, "kind": c.kind, "labels": c.labels}
        for name, c in zip(ds.names, ds.columns)
    ]
    return Forest(params=params, schema=schema, trees=trees, n_sub=n_sub)


# ---------------------------------------------------------------------------
# Prediction: the trees as flat pre-order arrays, and one level-wise router.

# Node kinds in `FlatForest.kind`.
TERMINAL, NUMERIC, CATEGORICAL, HYPERPLANE = range(4)


@dataclass
class FlatForest:
    """A forest's trees as flat arrays, numbered in pre-order, left first,
    tree after tree: tree t holds nodes [roots[t], roots[t + 1]).  The
    subtree of node i ends before `end[i]`, so the left child of split i is
    i + 1 and its right child end[i + 1]."""

    trees: tuple  # the tree objects compiled, to tell when they change
    roots: np.ndarray  # int64, n_trees + 1 entries
    kind: np.ndarray  # int8: TERMINAL, NUMERIC, CATEGORICAL or HYPERPLANE
    var: np.ndarray  # int32: the column of a numeric or categorical split
    # int32: a categorical split's row of `sides`, a hyperplane's index
    # into `num_ptr`/`cat_ptr`
    slot: np.ndarray
    # float64: a split's threshold; a terminal's isolation depth, its depth
    # plus the expected isolation among its fit-time size
    value: np.ndarray
    left_fraction: np.ndarray  # float64: b, the weight share sent left
    end: np.ndarray  # int32
    depth: np.ndarray  # int32
    # bool (categorical splits, 2, codes): [k, 0] the codes sent left,
    # [k, 1] those sent right; codes in neither go both ways
    sides: np.ndarray
    # Hyperplane terms: terms num_ptr[h]:num_ptr[h + 1] are hyperplane h's
    # numeric ones, cat_ptr[h]:cat_ptr[h + 1] its categorical ones.
    num_ptr: np.ndarray
    num_var: np.ndarray
    num_coef: np.ndarray
    num_impute: np.ndarray
    cat_ptr: np.ndarray
    cat_var: np.ndarray
    cat_coef: np.ndarray  # float64 (terms, codes), NaN where absent
    cat_impute: np.ndarray


_KIND = {Terminal: TERMINAL, NumericSplit: NUMERIC, CategoricalSplit: CATEGORICAL,
         HyperplaneSplit: HYPERPLANE}


def _shape(kind: np.ndarray, start: int):
    """(end, depth) of one pre-order tree, given its node kinds and the id
    of its root.

    With s the count of splits less terminals before a node, a subtree
    starting at i ends at the first e > i where s = s[i] - 1."""
    n = len(kind)
    s = np.concatenate([[0], np.cumsum(np.where(kind == TERMINAL, -1, 1))])
    # Positions sorted by (s, position): the first position after i with
    # s[i] - 1 is one searchsorted away.
    keys = np.sort(s * (n + 1) + np.arange(n + 1))
    base = (s[:-1] - 1) * (n + 1)
    end = keys[np.searchsorted(keys, base + np.arange(1, n + 1))] - base
    # Depth by pointer jumping up the parent links: split i is the parent
    # of i + 1 and of end[i + 1], and the root is its own parent.
    split = np.flatnonzero(kind != TERMINAL)
    up = np.arange(n)
    up[split + 1] = split
    up[end[split + 1]] = split
    depth = (up != np.arange(n)).astype(np.int32)
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        depth += depth[up]
        up = nxt
    return end + start, depth


def _compile(trees) -> FlatForest:
    """`trees` as a FlatForest: one iterative pre-order pass per tree
    collects the nodes, then each field is gathered per node kind."""
    nodes, roots = [], []
    for tree in trees:
        roots.append(len(nodes))
        stack = [tree]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if type(node) is not Terminal:
                stack += (node.right, node.left)
    n = len(nodes)
    kind = np.fromiter((_KIND[type(x)] for x in nodes), dtype=np.int8, count=n)
    bounds = roots + [n]
    end = np.empty(n, dtype=np.int32)
    depth = np.empty(n, dtype=np.int32)
    # Tree by tree, which keeps the temporaries to the size of one tree.
    for a, b in zip(bounds, bounds[1:]):
        end[a:b], depth[a:b] = _shape(kind[a:b], a)
    var = np.full(n, -1, dtype=np.int32)
    slot = np.full(n, -1, dtype=np.int32)
    value = np.zeros(n)
    frac = np.zeros(n)

    def of(cls):
        """The ids and the nodes of class `cls`, in pre-order."""
        return np.flatnonzero(kind == _KIND[cls]), [x for x in nodes if type(x) is cls]

    idx, sel = of(Terminal)
    # A terminal's isolation depth: its depth plus the expected isolation
    # among its fit-time size, rounded, at least 1.
    n_eff, inv = np.unique(np.maximum(1, np.rint([x.size for x in sel])), return_inverse=True)
    expected = np.array([depth_math.expected_isolation(int(k)) for k in n_eff])
    value[idx] = depth[idx] + expected[inv]
    for cls in (NumericSplit, CategoricalSplit):
        idx, sel = of(cls)
        var[idx] = [x.var for x in sel]
        frac[idx] = [x.left_fraction for x in sel]
    idx, nums = of(NumericSplit)
    value[idx] = [x.threshold for x in nums]
    idx, cats = of(CategoricalSplit)
    slot[idx] = np.arange(len(idx))
    sides = np.zeros((len(cats), 2, max((len(x.present) for x in cats), default=1)), dtype=bool)
    for k, x in enumerate(cats):
        sides[k, 0, : len(x.present)] = x.present & x.left_set
        sides[k, 1, : len(x.present)] = x.present & ~x.left_set
    idx, hyps = of(HyperplaneSplit)
    slot[idx] = np.arange(len(idx))
    value[idx] = [x.threshold for x in hyps]

    def terms(attr, dtype=np.float64):
        """One field of every hyperplane term, hyperplane after hyperplane."""
        return np.array([v for x in hyps for v in getattr(x, attr)], dtype=dtype)

    cat_coefs = [c for x in hyps for c in x.cat_coefs]
    cat_coef = np.full((len(cat_coefs), max(map(len, cat_coefs), default=1)), np.nan)
    for k, c in enumerate(cat_coefs):
        cat_coef[k, : len(c)] = c
    return FlatForest(
        trees=tuple(trees),
        roots=np.array(bounds, dtype=np.int64),
        kind=kind,
        var=var,
        slot=slot,
        value=value,
        left_fraction=frac,
        end=end,
        depth=depth,
        sides=sides,
        num_ptr=np.cumsum([0] + [len(x.num_vars) for x in hyps], dtype=np.int32),
        num_var=terms("num_vars", np.int32),
        num_coef=terms("num_coefs"),
        num_impute=terms("num_imputes"),
        cat_ptr=np.cumsum([0] + [len(x.cat_vars) for x in hyps], dtype=np.int32),
        cat_var=terms("cat_vars", np.int32),
        cat_coef=cat_coef,
        cat_impute=terms("cat_imputes"),
    )


def flat_forest(forest: Forest) -> FlatForest:
    """`forest.trees` compiled into a FlatForest.  The result is kept on
    the forest and compiled again only when `forest.trees` no longer holds
    the same tree objects."""
    flat = forest._flat
    if (
        flat is None
        or len(flat.trees) != len(forest.trees)
        or any(a is not b for a, b in zip(flat.trees, forest.trees))
    ):
        flat = forest._flat = _compile(forest.trees)
    return flat


def _every(mask):
    """Index of the True entries of `mask`: a full slice when all are."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _project(flat: FlatForest, X, miss, rows, h):
    """Hyperplane projections of `rows` at hyperplanes `h`: numeric terms
    first, then categorical ones, each in stored order.  Unknown cells
    (missing, or categories without a coefficient) contribute the stored
    imputation."""
    y = np.zeros(len(rows))
    # Cells are gathered from the flattened arrays, by one index each.
    X_flat, miss_flat, coef_flat = X.ravel(), miss.ravel(), flat.cat_coef.ravel()
    row_at = rows * X.shape[1]
    width = flat.cat_coef.shape[1]
    for ptr, tvar, numeric in ((flat.num_ptr, flat.num_var, True),
                               (flat.cat_ptr, flat.cat_var, False)):
        start = ptr[h]
        count = ptr[h + 1] - start
        for t in range(int(count.max(initial=0))):
            sel = _every(count > t)
            j = start[sel] + t
            at = row_at[sel] + tvar[j]
            known, vals = ~miss_flat[at], X_flat[at]
            if numeric:
                y[sel] += np.where(known, flat.num_coef[j] * vals, flat.num_impute[j])
                continue
            codes = vals.astype(np.intp)
            ok = known & (codes >= 0) & (codes < width)
            picked = coef_flat[j * width + np.where(ok, codes, 0)]
            y[sel] += np.where(ok & ~np.isnan(picked), picked, flat.cat_impute[j])
    return y


def _sides_of(flat: FlatForest, X, miss, rows, nodes, kind):
    """Masks of the (row, node) pairs each split sends left and right; a
    pair in neither goes down both branches.  The rules are the fit's: a
    numeric threshold, a categorical subset of the codes present at fit
    time, and the hyperplane projection with stored imputations."""
    left = np.zeros(len(rows), dtype=bool)
    right = np.zeros(len(rows), dtype=bool)
    for k in (NUMERIC, CATEGORICAL, HYPERPLANE):
        hit = kind == k
        if not hit.any():
            continue
        sel = _every(hit)
        r, n = rows[sel], nodes[sel]
        if k == HYPERPLANE:
            go = _project(flat, X, miss, r, flat.slot[n]) <= flat.value[n]
            left[sel], right[sel] = go, ~go
            continue
        at = r * X.shape[1] + flat.var[n]
        known, vals = ~miss.ravel()[at], X.ravel()[at]
        if k == NUMERIC:
            go = known & (vals <= flat.value[n])
            left[sel], right[sel] = go, known & ~go
            continue
        codes = vals.astype(np.intp)
        ok = known & (codes >= 0) & (codes < flat.sides.shape[2])
        codes = np.where(ok, codes, 0)
        t = flat.slot[n]
        left[sel] = ok & flat.sides[t, 0, codes]
        right[sel] = ok & flat.sides[t, 1, codes]
    return left, right


def descend(flat: FlatForest, ds: Dataset, trees: range, weighted: bool,
            every_node: bool = False):
    """Move every row of `ds` from the root of each tree in `trees` down to
    where it ends, one depth level at a time, as (row, node, weight)
    triples; returns the triples where rows end, as arrays (rows, nodes, w).

    A `weighted` descent starts each row with weight 1 and sends a row
    that a single-variable split cannot place (missing cell, or a category
    the split never saw) down both branches with weights b*w and (1 - b)*w;
    a copy below WEIGHT_FLOOR is dropped.  Rows end at terminals.
    Otherwise w is None, and a row a split cannot place ends at that split.
    With `every_node`, the triples of every node reached are returned.
    """
    n = ds.n_rows
    X, miss = _cells(ds)
    rows = np.tile(np.arange(n), len(trees))
    nodes = np.repeat(flat.roots[trees.start : trees.stop], n)
    w = np.ones(len(rows)) if weighted else None
    out = [(rows[:0], nodes[:0], None if w is None else w[:0])]
    while len(rows):
        kind = flat.kind[nodes]
        term = kind == TERMINAL
        if every_node:
            out.append((rows, nodes, w))
        elif term.any():
            out.append((rows[term], nodes[term], None if w is None else w[term]))
        if term.any():
            live = np.flatnonzero(~term)
            rows, nodes, kind = rows[live], nodes[live], kind[live]
            w = None if w is None else w[live]
        left, right = _sides_of(flat, X, miss, rows, nodes, kind)
        placed = left | right
        child = np.where(left, nodes + 1, flat.end[nodes + 1])
        if not placed.all():
            one, both = np.flatnonzero(placed), np.flatnonzero(~placed)
            if w is None:
                # Unweighted, the row ends at this split.
                if not every_node:
                    out.append((rows[both], nodes[both], None))
                rows, child = rows[one], child[one]
            else:
                b = flat.left_fraction[nodes[both]]
                rows = np.concatenate([rows[one], rows[both], rows[both]])
                child = np.concatenate([child[one], nodes[both] + 1, flat.end[nodes[both] + 1]])
                w = np.concatenate([w[one], b * w[both], (1.0 - b) * w[both]])
                keep = w >= WEIGHT_FLOOR
                if not keep.all():
                    rows, child, w = rows[keep], child[keep], w[keep]
        nodes = child
    rows, nodes, w = zip(*out)
    return np.concatenate(rows), np.concatenate(nodes), np.concatenate(w) if weighted else None


# ---------------------------------------------------------------------------
# Prediction-side column remapping


def remap_dataset(forest: Forest, ds: Dataset) -> Dataset:
    """Align `ds` to the forest's schema snapshot.

    Column kinds must match positionally.  Categorical codes are rewritten
    into the model's label space; labels the model never saw become
    UNSEEN_CODE and take the unseen-category path at every split.
    """
    if ds.n_cols != len(forest.schema):
        raise FitError(
            f"dataset has {ds.n_cols} columns, model expects {len(forest.schema)}"
        )
    cols = []
    for col, spec in zip(ds.columns, forest.schema):
        if col.kind != spec["kind"]:
            raise FitError(
                f"column {spec['name']!r}: kind {col.kind!r} does not match "
                f"model kind {spec['kind']!r}"
            )
        if col.kind == "numeric":
            cols.append(col)
            continue
        model_index = {lab: i for i, lab in enumerate(spec["labels"])}
        # The last entry maps code UNSEEN_CODE (-1) to itself, so remapping
        # a remapped dataset changes nothing.
        lookup = np.array(
            [model_index.get(lab, UNSEEN_CODE) for lab in col.labels] + [UNSEEN_CODE],
            dtype=np.int64,
        )
        remapped = lookup[np.where(col.missing, 0, col.values)]
        cols.append(Column(col.kind, remapped, col.missing, list(spec["labels"])))
    return Dataset(cols, list(ds.names), ds.weights)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON, floats at full round-trip precision.


def _node_to_json(node):
    if isinstance(node, Terminal):
        return {"type": "terminal", "size": node.size}
    if isinstance(node, NumericSplit):
        return {
            "type": "num",
            "var": node.var,
            "threshold": node.threshold,
            "bl": node.left_fraction,
            "left": _node_to_json(node.left),
            "right": _node_to_json(node.right),
        }
    if isinstance(node, CategoricalSplit):
        return {
            "type": "cat",
            "var": node.var,
            "n_labels": len(node.left_set),
            "left_set": np.flatnonzero(node.left_set).tolist(),
            "present": np.flatnonzero(node.present).tolist(),
            "bl": node.left_fraction,
            "left": _node_to_json(node.left),
            "right": _node_to_json(node.right),
        }
    if isinstance(node, HyperplaneSplit):
        return {
            "type": "hyp",
            "num_vars": node.num_vars,
            "num_coefs": node.num_coefs,
            "num_imputes": node.num_imputes,
            "cat_vars": node.cat_vars,
            "cat_coefs": [
                {str(code): c[code] for code in np.flatnonzero(~np.isnan(c))}
                for c in node.cat_coefs
            ],
            "cat_sizes": [len(c) for c in node.cat_coefs],
            "cat_imputes": node.cat_imputes,
            "threshold": node.threshold,
            "left": _node_to_json(node.left),
            "right": _node_to_json(node.right),
        }
    raise TypeError(f"unknown node type {type(node)!r}")


# Node types each model kind may contain.
NODE_TYPES = {"single": ("terminal", "num", "cat"), "extended": ("terminal", "hyp")}


def _schema_var(schema, var, kind, n_labels=None):
    """`var` as an int, checked to index a `kind` column of `schema` that
    has `n_labels` labels (categorical columns)."""
    var = int(var)
    if not 0 <= var < len(schema):
        raise ModelFormatError(f"variable {var} outside a {len(schema)}-column schema")
    spec = schema[var]
    if spec["kind"] != kind:
        raise ModelFormatError(f"{kind} split on {spec['kind']} column {var}")
    if n_labels is not None and int(n_labels) != len(spec["labels"]):
        raise ModelFormatError(
            f"split expects {n_labels} labels, column {var} has {len(spec['labels'])}"
        )
    return var


def _codes(codes):
    """`codes`, checked to hold no negative category code: numpy would wrap
    one onto the last labels.  Codes past the label count fail when used
    as an index."""
    if any(c < 0 for c in codes):
        raise ModelFormatError(f"negative category code in {codes}")
    return codes


def _node_from_json(obj, schema, model_kind):
    try:
        kind = obj["type"]
        if kind not in NODE_TYPES[model_kind]:
            raise ModelFormatError(f"node type {kind!r} in a {model_kind} model")
        if kind == "terminal":
            return Terminal(size=float(obj["size"]))
        left = _node_from_json(obj["left"], schema, model_kind)
        right = _node_from_json(obj["right"], schema, model_kind)
        if kind == "num":
            return NumericSplit(
                var=_schema_var(schema, obj["var"], "numeric"),
                threshold=float(obj["threshold"]),
                left_fraction=float(obj["bl"]),
                left=left,
                right=right,
            )
        if kind == "cat":
            size = int(obj["n_labels"])
            left_set = np.zeros(size, dtype=bool)
            left_set[_codes(obj["left_set"])] = True
            present = np.zeros(size, dtype=bool)
            present[_codes(obj["present"])] = True
            return CategoricalSplit(
                var=_schema_var(schema, obj["var"], "categorical", size),
                left_set=left_set,
                present=present,
                left_fraction=float(obj["bl"]),
                left=left,
                right=right,
            )
        num_keys = ("num_vars", "num_coefs", "num_imputes")
        cat_keys = ("cat_vars", "cat_coefs", "cat_sizes", "cat_imputes")
        for keys in (num_keys, cat_keys):
            if len({len(obj[k]) for k in keys}) != 1:
                raise ModelFormatError(f"hyperplane lists {keys} differ in length")
        coefs = []
        for cmap, size in zip(obj["cat_coefs"], obj["cat_sizes"]):
            arr = np.full(int(size), np.nan)
            for code, val in zip(_codes([int(c) for c in cmap]), cmap.values()):
                arr[code] = float(val)
            coefs.append(arr)
        return HyperplaneSplit(
            num_vars=[_schema_var(schema, v, "numeric") for v in obj["num_vars"]],
            num_coefs=[float(v) for v in obj["num_coefs"]],
            num_imputes=[float(v) for v in obj["num_imputes"]],
            cat_vars=[
                _schema_var(schema, v, "categorical", size)
                for v, size in zip(obj["cat_vars"], obj["cat_sizes"])
            ],
            cat_coefs=coefs,
            cat_imputes=[float(v) for v in obj["cat_imputes"]],
            threshold=float(obj["threshold"]),
            left=left,
            right=right,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed tree node: {exc}") from exc


def save_model(forest: Forest, path) -> None:
    """Write `forest` as JSON.  Each tree level nests one JSON object, so
    a tree deeper than the JSON nesting limit (Python's recursion limit)
    raises ModelFormatError and writes nothing."""
    try:
        text = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "params": {
                    "n_trees": forest.params.n_trees,
                    "subsample": forest.params.subsample,
                    "ndim": forest.params.ndim,
                    "max_depth": forest.params.max_depth,
                    "seed": forest.params.seed,
                    "model_kind": forest.params.model_kind,
                },
                "n_sub": forest.n_sub,
                "schema": forest.schema,
                "trees": [_node_to_json(t) for t in forest.trees],
            }
        )
    except RecursionError as exc:
        raise ModelFormatError(
            f"{path}: a tree is nested deeper than the JSON nesting limit "
            f"({sys.getrecursionlimit()}, Python's recursion limit)"
        ) from exc
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path) -> Forest:
    """Read a model written by `save_model`; every malformed file raises
    ModelFormatError naming `path`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model format version "
            f"{doc.get('format_version') if isinstance(doc, dict) else '?'}"
        )
    try:
        p = doc["params"]
        params = ForestParams(
            n_trees=int(p["n_trees"]),
            subsample=None if p["subsample"] is None else int(p["subsample"]),
            ndim=int(p["ndim"]),
            max_depth=None if p["max_depth"] is None else int(p["max_depth"]),
            seed=int(p["seed"]),
            model_kind=p["model_kind"],
        )
        schema = doc["schema"]
        for spec in schema:
            if spec["kind"] == "categorical":
                labels = spec["labels"]
                ok = isinstance(labels, list) and all(type(x) is str for x in labels)
            else:
                ok = spec["kind"] == "numeric"
            if not ok:
                raise ModelFormatError(f"malformed schema column {spec!r}")
        trees = [_node_from_json(t, schema, params.model_kind) for t in doc["trees"]]
        n_sub = int(doc["n_sub"])
        forest = Forest(params=params, schema=schema, trees=trees, n_sub=n_sub)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    # FitError (invalid params) is a ValueError.
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: malformed model document: {exc}") from exc
    if len(forest.trees) != params.n_trees:
        raise ModelFormatError(f"{path}: tree count does not match params")
    return forest
