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
the stream's first draw.  `_grow` grows a batch of trees (up to GROW_CELLS
subsample cells) one depth level at a time, in one loop for all of them.
A level's nodes are those of every tree, sorted by (tree, node), and its
rows (with the both-branch copies and their weights) stay sorted by the
node they reach, so eligible columns, ranges, weight sums and hyperplane
medians are segment reductions over all of the level's nodes at once.
Each level draws its random numbers in blocks: uniform keys choosing each
node's columns, then hyperplane coefficients, thresholds or category
coins, and again only for the draws that failed.  At each such draw every
tree takes its own entries from its own stream, in the order it would
draw alone, so a tree is the same however many grow beside it.  When the
batch is done its levels are linked into the node dataclasses, which are
the fit's output.

Prediction reads no node object.  `flat_forest` compiles a forest's trees
once into flat pre-order arrays (`FlatForest`), kept on the forest until
its list of trees changes, and `descend` moves (row, node, weight) triples
down all trees one depth level at a time, by the fit's rules: numeric
threshold, categorical subset, both branches with weights b and 1 - b for
a row a single-variable split cannot place, the WEIGHT_FLOOR drop, and the
hyperplane projection with stored imputations.

The model file is the FlatForest's stored arrays (STORED) in an .npz
archive with a JSON header; `load_model` validates them with whole-array
checks, derives the rest with the same `_finish` as `_compile`, and
rebuilds the node objects from them in one pass per node kind.
"""

from __future__ import annotations

import gc
import json
import math
import re
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import depth as depth_math
from .data import UNSEEN_CODE, Column, Dataset

FORMAT_VERSION = 2

# Rows whose accumulated weight drops below this are dropped from a node;
# both-branch routing of missing values would otherwise blow up node sizes.
WEIGHT_FLOOR = 1e-8

# Trees are grown together, as many at once as keep the cells of their
# subsamples (rows x columns, the size of a level's temporaries) within
# this count; a larger subsample grows one tree at a time.
GROW_CELLS = 1 << 17

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
        if self.max_depth is not None and self.max_depth < 1:
            raise FitError("max_depth must be >= 1")
        if self.subsample is not None and self.subsample < 2:
            raise FitError("subsample size must be >= 2")


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


def _draw(rngs, owner, normal=False):
    """One draw per entry of `owner`, which names the tree each entry
    belongs to and lists every tree's entries together, in tree order:
    each tree draws its entries' count from its own stream `rngs[t]`,
    uniform in [0, 1) or Normal(0, 1).  Equal, entry for entry, to the
    trees drawing one after another."""
    counts = np.bincount(owner, minlength=len(rngs)).tolist()
    parts = [
        rng.standard_normal(c) if normal else rng.random(c)
        for rng, c in zip(rngs, counts)
        if c
    ]
    return np.concatenate(parts) if parts else np.empty(0)


def _thresholds(rngs, owner, lo, hi):
    """One uniform draw in [lo[i], hi[i]) per entry, strictly below hi so
    both branches are non-empty, from the stream of tree owner[i] (see
    `_draw`).  An entry whose draw rounds out of the range draws again, up
    to MAX_REDRAWS rounds in all; NaN if none lands.

    Where `hi - lo` overflows (endpoints near +-1.8e308) the draw is made
    in halved space; halving such large values is exact.
    """
    z = np.full(len(lo), np.nan)
    todo = np.arange(len(lo))
    for _ in range(MAX_REDRAWS):
        if not len(todo):
            break
        u = _draw(rngs, owner[todo])
        a, b = lo[todo], hi[todo]
        with np.errstate(over="ignore", invalid="ignore"):
            span = b - a
            halved = 2.0 * (a / 2.0 + u * (b / 2.0 - a / 2.0))
            t = np.where(np.isfinite(span), a + u * span, halved)
        good = (a <= t) & (t < b)
        z[todo[good]] = t[good]
        todo = todo[~good]
    return z


def _subsets(rngs, owner, present):
    """Per row of the bool table `present`, a fair coin for each present
    code from the stream of tree owner[row] (see `_draw`), drawn again, up
    to MAX_REDRAWS rounds in all, until the heads are a proper non-empty
    subset.  Returns the heads as a table and the mask of rows that got
    one."""
    left = np.zeros_like(present)
    n_present = np.count_nonzero(present, axis=1)
    todo = np.arange(len(present))
    for _ in range(MAX_REDRAWS):
        if not len(todo):
            break
        p = present[todo]
        coin = np.zeros_like(p)
        coin[p] = _draw(rngs, np.broadcast_to(owner[todo, None], p.shape)[p]) < 0.5
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


def _split_single(X, miss, n_labels, rows, seg, starts, owner, rngs):
    """Draw a single-variable split for each segment of rows, segment s
    from the stream of tree owner[s].  Returns (ok, splits, left, right):
    ok marks the segments that got a split, `splits` holds their node
    objects (left_fraction still unset), and left/right mark the rows each
    sends that way; a row in neither goes down both branches."""
    n_seg, n_cols = len(starts), X.shape[1]
    lo, hi = _ranges(X[rows], ~miss[rows], starts)
    eligible = lo < hi
    # The first eligible column in a uniform order is uniform over them.
    keys = _draw(rngs, np.repeat(owner, n_cols)).reshape(eligible.shape)
    keys[~eligible] = 2.0
    var = np.argmin(keys, axis=1)
    s = np.arange(n_seg)
    ok = eligible[s, var]
    cat = n_labels[var] > 0
    thr = np.full(n_seg, np.nan)
    num = np.flatnonzero(ok & ~cat)
    thr[num] = _thresholds(rngs, owner[num], lo[num, var[num]], hi[num, var[num]])
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
        left_set[cats], ok[cats] = _subsets(rngs, owner[cats], present[cats])
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


def _split_hyperplane(X, miss, n_labels, rows, seg, starts, owner, rngs, ndim):
    """Draw a hyperplane split for each segment of rows, over up to `ndim`
    of its eligible columns, segment s from the stream of tree owner[s].
    Returns (ok, splits, left, right) as
    `_split_single` does; every row goes one way."""
    n_seg, n_cols = len(starts), X.shape[1]
    lo, hi = _ranges(X[rows], ~miss[rows], starts)
    eligible = lo < hi
    # The k smallest of uniform keys: k columns uniform among the eligible.
    keys = _draw(rngs, np.repeat(owner, n_cols)).reshape(eligible.shape)
    keys[~eligible] = 2.0
    pick = np.argsort(keys, axis=1)[:, :ndim]
    n_terms = np.minimum(ndim, eligible.sum(axis=1))
    used = np.arange(pick.shape[1]) < n_terms[:, None]
    # A segment's terms: numeric columns first, then categorical ones,
    # each kind in column order; 2 * n_cols past its last term.
    terms = np.sort(np.where(used, pick + n_cols * (n_labels[pick] > 0), 2 * n_cols), axis=1)
    valid = terms < 2 * n_cols
    var = terms % n_cols
    cat = valid & (n_labels[var] > 0)
    num = valid & ~cat
    term_owner = np.broadcast_to(owner[:, None], terms.shape)
    coef = np.zeros(terms.shape)
    coef[num] = _draw(rngs, term_owner[num], normal=True)
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
    cat_owner = np.broadcast_to(term_owner[cat][:, None], present.shape)
    cat_coef[present] = _draw(rngs, cat_owner[present], normal=True)

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
    thr[ok] = _thresholds(rngs, owner[ok], lo_y[ok], hi_y[ok])
    ok &= ~np.isnan(thr)
    # The node objects, from Python lists: a segment's terms are its first
    # k slots, the first j of them numeric.
    size = n_labels.tolist()
    cat_rows = iter(cat_coef[term_id[ok][cat[ok]]])
    splits = [
        HyperplaneSplit(vs[:j], cs[:j], ims[:j], vs[j:k],
                        [next(cat_rows)[: size[v]].copy() for v in vs[j:k]], ims[j:k], z)
        for z, j, k, vs, cs, ims in zip(
            thr[ok].tolist(), num[ok].sum(axis=1).tolist(), n_terms[ok].tolist(),
            var[ok].tolist(), coef[ok].tolist(), impute[ok].tolist(),
        )
    ]
    left = y <= thr[seg]
    return ok, splits, left, ~left


def _grow(X, miss, n_labels, idxs, rngs, params: ForestParams):
    """Grow one tree per subsample in `idxs` on the cells (X, miss), tree
    t from the stream rngs[t], all one depth level at a time; returns
    their roots.

    A level's nodes are those of every tree, sorted by (tree, node), and
    its rows are kept sorted by the node they reach: a single-variable
    model carries each row's weight and sends a row its split cannot place
    down both branches with weights b*w and (1 - b)*w, b the weight share
    of the split's placed rows sent left, dropping copies below
    WEIGHT_FLOOR.  Each level draws the splits of all its nodes that hold
    >= 2 rows at once, each tree from its own stream in the order it would
    draw alone; a node that gets none is a terminal.  The level's j-th
    split has children 2j and 2j + 1 on the next level, so every tree's
    nodes stay together."""
    weighted = params.model_kind == "single"
    rows = np.concatenate(idxs)
    node = np.repeat(np.arange(len(idxs)), [len(i) for i in idxs])
    w = np.ones(len(rows)) if weighted else None
    tree = np.arange(len(idxs))  # the tree of each node of the level
    levels = []  # per depth: (its split nodes, in order; all its nodes, in order)
    depth = 0
    while len(tree):
        count = np.bincount(node, minlength=len(tree))
        size = count if w is None else np.bincount(node, weights=w, minlength=len(tree))
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
        owner = tree[cand]
        if weighted:
            ok, found, left, right = _split_single(
                X, miss, n_labels, rows, seg, starts, owner, rngs
            )
        else:
            ok, found, left, right = _split_hyperplane(
                X, miss, n_labels, rows, seg, starts, owner, rngs, params.ndim
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
        tree = np.repeat(owner[ok], 2)
        depth += 1
    for (splits, _), (_, below) in zip(levels, levels[1:]):
        for p, lt, rt in zip(splits, below[0::2], below[1::2]):
            p.left, p.right = lt, rt
    return levels[0][1]


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


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while node objects are made.

    The collector would pass over every live object while the nodes are
    made, 3-4x their build time at 25k nodes.  Nodes form no reference
    cycles, so pausing it leaves nothing behind.  They live long: one young
    collection moves them to the oldest generation, where later young
    collections, during the caller's next work, would pass over them
    twice.  A collector that was off stays off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.collect(1)
            gc.enable()


def _tree_rng(seed: int, tree_index: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def fit_forest(ds: Dataset, params: ForestParams, threads: int = 1) -> Forest:
    """Grow `params.n_trees` trees on (weighted, without-replacement)
    subsamples of `ds`.  Deterministic in (ds, params, seed): tree k draws
    from its own stream `_tree_rng(seed, k)`, its subsample first, so the
    trees do not depend on how many of them `_grow` grows together.

    `threads` is accepted and ignored, for backward compatibility.
    """
    if ds.n_rows < 2:
        raise FitError("need at least 2 rows to fit")
    X, miss = _cells(ds)
    lo, hi = _ranges(X, ~miss, [0])
    if not (lo < hi).any():
        raise FitError("no column has >= 2 distinct non-missing values")
    n_sub = ds.n_rows if params.subsample is None else min(params.subsample, ds.n_rows)
    n_labels = np.array([len(c.labels) if c.kind == "categorical" else 0 for c in ds.columns])
    p = ds.weights / ds.weights.sum()
    trees = []
    batch = max(1, GROW_CELLS // (n_sub * ds.n_cols))
    with _gc_paused():
        for k0 in range(0, params.n_trees, batch):
            rngs = [_tree_rng(params.seed, k) for k in range(k0, min(k0 + batch, params.n_trees))]
            idxs = [
                rng.choice(ds.n_rows, size=n_sub, replace=False, p=p)
                if n_sub < ds.n_rows
                else np.arange(ds.n_rows)
                for rng in rngs
            ]
            trees += _grow(X, miss, n_labels, idxs, rngs, params)
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
    size: np.ndarray  # float64: a terminal's fit-time size, 0 at a split
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


def _finish(trees, threshold, **stored) -> FlatForest:
    """The FlatForest of `trees` from its stored fields (see STORED): each
    node's subtree end and depth, the slot of a categorical or hyperplane
    split, and the value of a node, a split's threshold or a terminal's
    isolation depth, are derived here.  `threshold` becomes the value
    array, in place: a copy would raise the peak memory of a compile."""
    kind, roots = stored["kind"], stored["roots"].tolist()
    n = len(kind)
    end = np.empty(n, dtype=np.int32)
    depth = np.empty(n, dtype=np.int32)
    # Tree by tree, which keeps the temporaries to the size of one tree.
    for a, b in zip(roots, roots[1:]):
        end[a:b], depth[a:b] = _shape(kind[a:b], a)
    slot = np.full(n, -1, dtype=np.int32)
    for k in (CATEGORICAL, HYPERPLANE):
        idx = np.flatnonzero(kind == k)
        slot[idx] = np.arange(len(idx))
    # A terminal's isolation depth: its depth plus the expected isolation
    # among its fit-time size, rounded, at least 1.
    term = np.flatnonzero(kind == TERMINAL)
    n_eff, inv = np.unique(np.maximum(1, np.rint(stored["size"][term])), return_inverse=True)
    expected = np.array([depth_math.expected_isolation(int(k)) for k in n_eff])
    value = threshold
    value[term] = depth[term] + expected[inv]
    return FlatForest(trees=tuple(trees), slot=slot, value=value, end=end, depth=depth, **stored)


def _compile(trees) -> FlatForest:
    """`trees` as a FlatForest: one iterative pre-order pass per tree
    collects the nodes, then each stored field is gathered per node kind."""
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
    var = np.full(n, -1, dtype=np.int32)
    threshold = np.zeros(n)
    frac = np.zeros(n)
    size = np.zeros(n)

    def of(cls):
        """The ids and the nodes of class `cls`, in pre-order."""
        return np.flatnonzero(kind == _KIND[cls]), [x for x in nodes if type(x) is cls]

    idx, sel = of(Terminal)
    size[idx] = [x.size for x in sel]
    for cls in (NumericSplit, CategoricalSplit):
        idx, sel = of(cls)
        var[idx] = [x.var for x in sel]
        frac[idx] = [x.left_fraction for x in sel]
    idx, nums = of(NumericSplit)
    threshold[idx] = [x.threshold for x in nums]
    _, cats = of(CategoricalSplit)
    sides = np.zeros((len(cats), 2, max((len(x.present) for x in cats), default=1)), dtype=bool)
    for k, x in enumerate(cats):
        sides[k, 0, : len(x.present)] = x.present & x.left_set
        sides[k, 1, : len(x.present)] = x.present & ~x.left_set
    idx, hyps = of(HyperplaneSplit)
    threshold[idx] = [x.threshold for x in hyps]

    def terms(attr, dtype=np.float64):
        """One field of every hyperplane term, hyperplane after hyperplane."""
        return np.array([v for x in hyps for v in getattr(x, attr)], dtype=dtype)

    cat_coefs = [c for x in hyps for c in x.cat_coefs]
    cat_coef = np.full((len(cat_coefs), max(map(len, cat_coefs), default=1)), np.nan)
    for k, c in enumerate(cat_coefs):
        cat_coef[k, : len(c)] = c
    return _finish(
        trees,
        roots=np.array(roots + [n], dtype=np.int64),
        kind=kind,
        var=var,
        threshold=threshold,
        left_fraction=frac,
        size=size,
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
# Serialization: the FlatForest arrays in an uncompressed .npz archive, with
# a JSON header (format_version, params, n_sub, schema) as a uint8 entry.

# The file's array entries and their (dtype, ndim): the FlatForest fields
# that `_finish` does not derive, and each node's threshold (0 at a
# terminal), in the order written.
STORED = {
    "roots": (np.int64, 1), "kind": (np.int8, 1), "var": (np.int32, 1),
    "threshold": (np.float64, 1), "left_fraction": (np.float64, 1), "size": (np.float64, 1),
    "sides": (np.bool_, 3),
    "num_ptr": (np.int32, 1), "num_var": (np.int32, 1), "num_coef": (np.float64, 1),
    "num_impute": (np.float64, 1),
    "cat_ptr": (np.int32, 1), "cat_var": (np.int32, 1), "cat_coef": (np.float64, 2),
    "cat_impute": (np.float64, 1),
}

# Node kinds each model kind may contain.
ALLOWED_KINDS = {"single": (TERMINAL, NUMERIC, CATEGORICAL), "extended": (TERMINAL, HYPERPLANE)}

_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def save_model(forest: Forest, path) -> None:
    """Write `forest` to `path` as its compiled arrays; the compile stays
    cached on the forest for later prediction."""
    flat = flat_forest(forest)
    header = {"format_version": FORMAT_VERSION, "params": asdict(forest.params),
              "n_sub": forest.n_sub, "schema": forest.schema}
    threshold = np.where(flat.kind == TERMINAL, 0.0, flat.value)
    arrays = {name: threshold if name == "threshold" else getattr(flat, name) for name in STORED}
    # To an open handle: given a path, numpy would append ".npz" to it.
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


def _check(ok, problem: str) -> None:
    if not ok:
        raise ModelFormatError(problem)


def _read_entries(fh) -> dict:
    """The arrays of the .npz archive open in `fh`, by entry name.  Each
    member's declared shape is checked against its stored size before it
    is read, so a corrupted shape cannot request a huge allocation, and
    each is read to its end, which checks its CRC."""
    entries = {}
    with zipfile.ZipFile(fh) as zf:
        for info in zf.infolist():
            _check(info.compress_type == zipfile.ZIP_STORED, f"entry {info.filename!r} is compressed")
            with zf.open(info) as member:
                shape, _, dtype = _NPY_HEADERS[np.lib.format.read_magic(member)](member)
                _check(not dtype.hasobject, f"entry {info.filename!r} holds pickled objects")
                _check(math.prod(shape) * dtype.itemsize <= info.file_size,
                       f"entry {info.filename!r} declares more data than it holds")
                member.seek(0)
                entries[info.filename.removesuffix(".npy")] = np.lib.format.read_array(
                    member, allow_pickle=False)
                _check(not member.read(), f"entry {info.filename!r} holds more data than it declares")
    return entries


def _columns(var, n_labels, categorical: bool, what: str):
    """The label counts of the columns `var`, checked to be in the schema
    and categorical (or numeric)."""
    _check(((var >= 0) & (var < len(n_labels))).all(),
           f"{what} on a column outside a {len(n_labels)}-column schema")
    counts = n_labels[var]
    _check(((counts >= 0) == categorical).all(), f"{what} on a column of the other kind")
    return counts


def _validate(a: dict, model_kind: str, n_labels, n_trees: int, n_sub: int) -> None:
    """Raise ModelFormatError unless the arrays `a` hold `n_trees` trees of
    a `model_kind` model over columns with `n_labels` labels each (-1 for a
    numeric column), fitted on subsamples of `n_sub` rows."""
    for name, (dtype, ndim) in STORED.items():
        _check(name in a and a[name].dtype == dtype and a[name].ndim == ndim,
               f"entry {name!r} is missing or not a {ndim}-d {np.dtype(dtype)} array")
    kind, roots = a["kind"], a["roots"]
    n = len(kind)
    _check(all(len(a[k]) == n for k in ("var", "threshold", "left_fraction", "size")),
           "per-node entries differ in length")
    _check(len(roots) == n_trees + 1 and roots[0] == 0 and roots[-1] == n
           and (np.diff(roots) > 0).all(), "roots do not divide the nodes into the trees")
    _check(np.isin(kind, ALLOWED_KINDS[model_kind]).all(), f"node kind not allowed in the {model_kind} model")
    # In pre-order, a tree's running count of splits less terminals stays
    # >= 0 before its last node and reaches -1 there.
    run = np.cumsum(np.where(kind == TERMINAL, -1, 1))
    run -= np.repeat(np.concatenate([[0], run])[roots[:-1]], np.diff(roots))
    last = np.zeros(n, dtype=bool)
    last[roots[1:] - 1] = True
    _check((run[last] == -1).all() and (run[~last] >= 0).all(), "the nodes do not form trees")
    _columns(a["var"][kind == NUMERIC], n_labels, False, "numeric split")
    labels = _columns(a["var"][kind == CATEGORICAL], n_labels, True, "categorical split")
    sides = a["sides"]
    _check(sides.shape[:2] == (len(labels), 2) and sides.shape[2] >= 1,
           "sides do not hold two code sets per categorical split")
    _check(not (sides[:, 0] & sides[:, 1]).any(), "a category code goes both left and right")
    past = np.arange(sides.shape[2]) >= labels[:, None]
    _check(not (sides.any(axis=1) & past).any(), "category code at or past the column's label count")
    n_hyp = np.count_nonzero(kind == HYPERPLANE)
    for p in ("num", "cat"):
        ptr = a[f"{p}_ptr"]
        _check(len(ptr) == n_hyp + 1 and ptr[0] == 0 and (np.diff(ptr) >= 0).all()
               and all(len(a[f"{p}_{t}"]) == ptr[-1] for t in ("var", "coef", "impute")),
               f"{p}_ptr does not divide the {p}_* terms among the hyperplanes")
    _columns(a["num_var"], n_labels, False, "hyperplane numeric term")
    labels = _columns(a["cat_var"], n_labels, True, "hyperplane categorical term")
    _check(a["cat_coef"].shape[1] >= 1, "cat_coef has no code column")
    past = np.arange(a["cat_coef"].shape[1]) >= labels[:, None]
    _check(not (~np.isnan(a["cat_coef"]) & past).any(),
           "hyperplane coefficient at or past the column's label count")
    size, frac = a["size"], a["left_fraction"]
    _check((np.isfinite(size) & (size >= 0) & (np.rint(size) <= n_sub)).all(),
           "a terminal size is not finite, or below 0, or above the subsample size")
    _check(((frac >= 0) & (frac <= 1)).all(), "a left fraction is outside [0, 1]")


def _trees(flat: FlatForest, n_labels) -> list:
    """The node objects of `flat`'s trees, their roots in order: each kind's
    nodes are built from `.tolist()` columns, then one pass links every
    split to its children."""
    kind = flat.kind
    obj = np.empty(len(kind), dtype=object)
    idx = np.flatnonzero(kind == TERMINAL)
    obj[idx] = list(map(Terminal, flat.size[idx].tolist()))
    idx = np.flatnonzero(kind == NUMERIC)
    obj[idx] = list(map(NumericSplit, flat.var[idx].tolist(), flat.value[idx].tolist(),
                        flat.left_fraction[idx].tolist()))
    idx = np.flatnonzero(kind == CATEGORICAL)
    left, present = flat.sides[:, 0], flat.sides.any(axis=1)
    obj[idx] = [
        CategoricalSplit(v, left[k, :s].copy(), present[k, :s].copy(), b)
        for k, (v, s, b) in enumerate(zip(flat.var[idx].tolist(), n_labels[flat.var[idx]].tolist(),
                                          flat.left_fraction[idx].tolist()))
    ]
    idx = np.flatnonzero(kind == HYPERPLANE)
    nv, nc, ni = flat.num_var.tolist(), flat.num_coef.tolist(), flat.num_impute.tolist()
    cv, ci = flat.cat_var.tolist(), flat.cat_impute.tolist()
    cc = [row[:s].copy() for row, s in zip(flat.cat_coef, n_labels[flat.cat_var].tolist())]
    num, cat = flat.num_ptr.tolist(), flat.cat_ptr.tolist()
    obj[idx] = [
        HyperplaneSplit(nv[i:j], nc[i:j], ni[i:j], cv[k:m], cc[k:m], ci[k:m], z)
        for i, j, k, m, z in zip(num, num[1:], cat, cat[1:], flat.value[idx].tolist())
    ]
    split = np.flatnonzero(kind != TERMINAL)
    for p, lt, rt in zip(obj[split].tolist(), obj[split + 1].tolist(),
                         obj[flat.end[split + 1]].tolist()):
        p.left, p.right = lt, rt
    return obj[flat.roots[:-1]].tolist()


def load_model(path) -> Forest:
    """Read a model written by `save_model`; every malformed file raises
    ModelFormatError naming `path`.  The forest comes with its FlatForest,
    so prediction does not compile it again."""
    with open(path, "rb") as fh:
        try:
            old = re.match(rb'\s*\{\s*"format_version"\s*:\s*(-?\d+)', fh.read(64))
            if old:
                raise ModelFormatError(
                    f"model format version {int(old[1])} is not supported (this version "
                    f"reads version {FORMAT_VERSION}); refit the model")
            fh.seek(0)
            a = _read_entries(fh)
            header = a.get("header")
            _check(header is not None and header.dtype == np.uint8 and header.ndim == 1,
                   "entry 'header' is missing or not a byte string")
            doc = json.loads(header.tobytes())
            version = doc.get("format_version") if isinstance(doc, dict) else None
            _check(version == FORMAT_VERSION, f"unsupported model format version {version}")
            p = doc["params"]
            params = ForestParams(
                n_trees=int(p["n_trees"]),
                subsample=None if p["subsample"] is None else int(p["subsample"]),
                ndim=int(p["ndim"]),
                max_depth=None if p["max_depth"] is None else int(p["max_depth"]),
                seed=int(p["seed"]),
                model_kind=p["model_kind"],
            )
            n_sub = int(doc["n_sub"])
            _check(n_sub >= 2 and (params.subsample is None or n_sub <= params.subsample),
                   f"subsample size {n_sub} is below 2 or above the subsample parameter")
            schema = doc["schema"]
            for spec in schema:
                if spec["kind"] == "categorical":
                    labels = spec["labels"]
                    ok = isinstance(labels, list) and all(type(x) is str for x in labels)
                else:
                    ok = spec["kind"] == "numeric"
                if not (ok and type(spec["name"]) is str):
                    raise ModelFormatError(f"malformed schema column {spec!r}")
            n_labels = np.array([len(s["labels"]) if s["kind"] == "categorical" else -1
                                 for s in schema], dtype=np.int64)
            _validate(a, params.model_kind, n_labels, params.n_trees, n_sub)
        except ModelFormatError as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc
        # zipfile raises BadZipFile, EOFError and OSError, and RuntimeError
        # (NotImplementedError) for archive features np.savez never uses;
        # the .npy reader raises ValueError; a header nested too deep
        # raises RecursionError (a RuntimeError); invalid params raise
        # FitError (a ValueError).
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, KeyError, TypeError,
                ValueError, OverflowError) as exc:
            raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
    flat = _finish((), **{name: a[name] for name in STORED})
    with _gc_paused():
        flat.trees = tuple(_trees(flat, n_labels))
    forest = Forest(params=params, schema=schema, trees=list(flat.trees), n_sub=n_sub)
    forest._flat = flat
    return forest
