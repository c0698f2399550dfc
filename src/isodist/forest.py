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
  observed contributions, so every row routes deterministically.  Where a
  numeric coefficient would overflow (cells near the bottom of the float
  range), all of the hyperplane's terms are shifted by one power of two.

Each tree grows from its own RNG stream spawned from (seed, tree index),
so a tree does not depend on the trees grown before it; its subsample is
the stream's first draw.  `_grow` grows a batch of trees (up to GROW_CELLS
subsample cells) one depth level at a time, in one loop for all of them.
A level's nodes are those of every tree, sorted by (tree, node), and its
rows (with the both-branch copies and their weights) stay sorted by the
node they reach, so eligible columns, ranges, weight sums and hyperplane
medians are segment reductions over all of the level's nodes at once.  A
single-variable level ranges only the columns it reaches in key order
(`_least_key_column`), a hyperplane level every column.
Each level draws its random numbers in blocks: uniform keys choosing each
node's columns, drawn once in `_grow` for either split kind, then
hyperplane coefficients, thresholds or category coins, and again only for
the draws that failed.  At each such draw every tree takes its own
entries from its own stream, in the order it would draw alone, so a tree
is the same however many grow beside it.  Each
level's splits are kept as arrays; when the batch is done, `_preorder`
numbers its nodes in pre-order.

The fit's output is the forest's flat pre-order arrays (`FlatForest`,
`Forest.flat`), which everything else reads: `descend` moves (row, node,
weight) triples down all trees one depth level at a time, by the fit's
rules: numeric threshold, categorical subset, the hyperplane projection
with stored imputations, and the one both-branch step the fit takes too
(`_branch`: weights b and 1 - b for a row a single-variable split cannot
place, and the drop of copies below the weight floor).  It hands the
triples over in node order, tree by tree and pre-order within a tree.

The model file is the FlatForest's stored arrays (STORED) in an .npz
archive with a JSON header; `load_model` validates them with whole-array
checks and derives the rest with the same `_finish` as fitting, among it
the padded hyperplane term table that scoring reads in place of the
stored CSR terms.

The node dataclasses (`Terminal`, `NumericSplit`, `CategoricalSplit`,
`HyperplaneSplit`) are only a read-only view, `Forest.trees`, that builds
a tree from the arrays each time it is read; the library never reads it.
"""

from __future__ import annotations

import json
import math
import re
import zipfile
from collections.abc import Sequence
from dataclasses import asdict, dataclass

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

# Node kinds in `FlatForest.kind`.
TERMINAL, NUMERIC, CATEGORICAL, HYPERPLANE = range(4)


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
    flat: FlatForest  # the trees
    n_sub: int = 0

    @property
    def trees(self) -> _Trees:
        """The trees as node objects, their roots in order: a read-only
        sequence over `flat` that builds tree t's nodes each time item t is
        read, for code that walks nodes.  The library never reads it."""
        return _Trees(self.flat, _label_counts(self.schema).tolist())


class _Trees(Sequence):
    """`Forest.trees`; it caches nothing."""

    def __init__(self, flat: FlatForest, n_labels: list):
        self.flat, self.n_labels = flat, n_labels

    def __len__(self) -> int:
        return len(self.flat.roots) - 1

    def __getitem__(self, t: int):
        return _tree(self.flat, self.n_labels, range(len(self))[t])


def _label_counts(schema) -> np.ndarray:
    """Per column of `schema`, its label count; -1 for a numeric column."""
    return np.array([len(s["labels"]) if s["kind"] == "categorical" else -1 for s in schema],
                    dtype=np.int64)


def _cells(ds: Dataset):
    """The cells of `ds` as an (n_rows, n_cols) float64 array, categorical
    codes as floats, NaN at every unknown cell: a missing one, or a
    negative code (a label the model never saw).  Known cells are finite.
    NaN is never <= or > a threshold, so no split places an unknown cell."""
    X = np.empty((ds.n_rows, ds.n_cols))
    for j, col in enumerate(ds.columns):
        unknown = col.missing | (col.values < 0) if col.kind == "categorical" else col.missing
        X[:, j] = np.where(unknown, np.nan, col.values)
    return X


def _ranges(cells, starts):
    """The least and the greatest known cell of each column of `cells` (see
    `_cells`) in each segment of rows [starts[s], starts[s + 1]); NaN where
    a segment knows none.  A column with lo < hi has >= 2 distinct values;
    test ~(lo < hi), not lo >= hi, for one that has not."""
    return np.fmin.reduceat(cells, starts, axis=0), np.fmax.reduceat(cells, starts, axis=0)


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


def _every(mask):
    """Index of the True entries of `mask`: a full slice when all are."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _branch(rows, w, left, right, to_left, to_right, b):
    """Rows one level down, by the rule fitting and `descend` share:
    returns (rows, child, w).  A row in `left` goes to its `to_left`
    child, one in `right` to its `to_right` child.  A row in neither goes
    down both with weights b*w and (1 - b)*w, and a copy below
    WEIGHT_FLOOR is dropped; unweighted (w None), it is left out.  The
    placed rows come first, then the left copies, then the right ones."""
    placed = left | right
    child = np.where(left, to_left, to_right)
    if placed.all():
        return rows, child, w
    one = np.flatnonzero(placed)
    if w is None:
        return rows[one], child[one], None
    both = np.flatnonzero(~placed)
    rows = np.concatenate([rows[one], rows[both], rows[both]])
    child = np.concatenate([child[one], to_left[both], to_right[both]])
    w = np.concatenate([w[one], b[both] * w[both], (1.0 - b[both]) * w[both]])
    keep = w >= WEIGHT_FLOOR
    if not keep.all():
        rows, child, w = rows[keep], child[keep], w[keep]
    return rows, child, w


def _least_key_column(X, rows, seg, starts, keys):
    """Per segment of rows (segment s holds the rows from starts[s]), the
    eligible column with the least key, ranging only the columns it must:
    each segment's column with the least key first, then, for the
    segments where that column holds < 2 distinct known values, the next
    by key, and so on.  X holds NaN at the unknown cells (see `_cells`).
    Returns (var, lo, hi, cells): each segment's column and the least and
    greatest known value in it (not lo < hi where no column is eligible),
    and each row's cell of X in its segment's column.  Ties in keys go to
    the lower column, as np.argmin breaks them."""
    n_seg, n_cols = keys.shape
    by_key = np.argsort(keys, axis=1, kind="stable")
    count = np.diff(starts, append=len(rows))
    var = np.empty(n_seg, dtype=by_key.dtype)
    lo, hi = np.empty(n_seg), np.empty(n_seg)
    cells = np.empty(len(rows))
    todo, at = np.arange(n_seg), slice(None)  # at: the rows of the segments todo
    for rank in range(n_cols):
        var[todo] = by_key[todo, rank]
        cells[at] = got = X.ravel()[rows[at] * n_cols + var[seg[at]]]
        lo[todo], hi[todo] = _ranges(got, np.cumsum(count[todo]) - count[todo])
        again = ~(lo[todo] < hi[todo])
        if not again.any():
            break
        at = np.arange(len(rows))[at][np.repeat(again, count[todo])]
        todo = todo[again]
    return var, lo, hi, cells


def _split_single(n_labels, seg, var, lo, hi, x, owner, rngs):
    """Draw a single-variable split for each segment of rows, segment s
    from the stream of tree owner[s], on its column var[s], whose known
    values range over [lo[s], hi[s]]; x holds each row's cell in its
    segment's column, NaN where unknown (see `_cells`).
    Returns (ok, split, left, right): ok marks the segments that got a
    split, `split` holds the stored fields of those splits by name (see
    STORED), and left/right mark the rows each sends that way; a row in
    neither goes down both branches."""
    n_seg = len(lo)
    ok = lo < hi
    cat = n_labels[var] > 0
    thr = np.full(n_seg, np.nan)
    num = np.flatnonzero(ok & ~cat)
    thr[num] = _thresholds(rngs, owner[num], lo[num], hi[num])
    ok[num] = ~np.isnan(thr[num])
    known = ~np.isnan(x)
    left = x <= thr[seg]
    cats = np.flatnonzero(ok & cat)
    sides = np.zeros((0, 2, max(1, int(n_labels.max()))), dtype=bool)
    if len(cats):
        # The categories present at each categorical segment get the coins.
        hit = known & cat[seg]
        codes = x[hit].astype(np.intp)
        present = np.zeros((n_seg, sides.shape[2]), dtype=bool)
        present[seg[hit], codes] = True
        left_set = np.zeros_like(present)
        left_set[cats], ok[cats] = _subsets(rngs, owner[cats], present[cats])
        left[hit] = left_set[seg[hit], codes]
        c = np.flatnonzero(ok & cat)
        sides = np.stack([left_set[c], present[c] & ~left_set[c]], axis=1)
    split = {
        "kind": np.where(cat[ok], CATEGORICAL, NUMERIC).astype(np.int8),
        "var": var[ok].astype(np.int32),
        # A categorical split stores threshold 0.
        "threshold": np.where(cat[ok], 0.0, thr[ok]),
        "sides": sides,
    }
    return ok, split, left, known & ~left


def _split_hyperplane(X, n_labels, rows, seg, starts, lo, hi, keys, owner, rngs, ndim):
    """Draw a hyperplane split for each segment of rows, over its first
    `ndim` eligible columns by `keys`, segment s from the stream of tree
    owner[s]; segment s holds the rows from starts[s].  Returns (ok,
    split, left, right) as `_split_single` does; every row goes one way."""
    n_seg, n_cols = len(starts), X.shape[1]
    pick = np.argsort(keys, axis=1)[:, :ndim]
    n_terms = np.minimum(ndim, np.count_nonzero(lo < hi, axis=1))
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
        x = X.ravel()[at]
        known = valid[seg, t] & ~np.isnan(x)
        c = known & cat[seg, t]
        present[term_id[seg[c], t], x[c].astype(np.intp)] = True
        cells.append((x, known))
    cat_coef = np.full(present.shape, np.nan)
    cat_owner = np.broadcast_to(term_owner[cat][:, None], present.shape)
    cat_coef[present] = _draw(rngs, cat_owner[present], normal=True)

    # A numeric coefficient is Normal(0, 1) over scale * sd, the sd of the
    # segment's known cells scaled by their largest magnitude, so that
    # their squares neither overflow nor vanish; the largest scales to
    # +-1, so the sd is > 0.
    s = np.arange(n_seg)[:, None]
    scale = np.where(num, np.maximum(-lo[s, var], hi[s, var]), 1.0)
    sd = np.ones(terms.shape)
    for t, (x, known) in enumerate(cells):
        k = known & num[seg, t]
        sk = seg[k]
        xs = x[k] / scale[sk, t]
        n_known = np.maximum(1, np.bincount(sk, minlength=n_seg))
        dev = xs - (np.bincount(sk, weights=xs, minlength=n_seg) / n_known)[sk]
        sd2 = np.bincount(sk, weights=dev * dev, minlength=n_seg) / n_known
        sd[:, t] = np.where(num[:, t], np.sqrt(sd2), 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        ratio = coef / (scale * sd)
    if not np.isfinite(ratio).all():
        huge = np.flatnonzero(~np.isfinite(ratio).all(axis=1))
        # Near the bottom of the float range that overflows.  Scaling all
        # of a hyperplane's terms by one power of two leaves its routing
        # as it is, so there every term is shifted by 2^-E, E the largest
        # numeric coefficient's binary exponent; the categorical ones,
        # Normal(0, 1), lie far below it.
        (ms, es), (md, ed) = np.frexp(scale[huge]), np.frexp(sd[huge])
        q = coef[huge] / (ms * md)
        exp = np.where(num[huge], np.frexp(q)[1] - es - ed, np.iinfo(np.int32).min)
        top = exp.max(axis=1, keepdims=True)
        ratio[huge] = np.ldexp(q, -es - ed - top)
        at = cat[huge]
        rows_of = term_id[huge][at]
        cat_coef[rows_of] = np.ldexp(cat_coef[rows_of], -np.broadcast_to(top, at.shape)[at][:, None])
    coef = ratio
    y = np.zeros(len(rows))
    impute = np.zeros(terms.shape)
    for t, (x, known) in enumerate(cells):
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
    # A split's terms, split after split, each in slot order; num_ptr and
    # cat_ptr hold each split's term counts.
    num, cat, var, n_ok = num[ok], cat[ok], var[ok].astype(np.int32), np.count_nonzero(ok)
    split = {
        "kind": np.full(n_ok, HYPERPLANE, dtype=np.int8),
        "var": np.full(n_ok, -1, dtype=np.int32),
        "threshold": thr[ok],
        "left_fraction": np.zeros(n_ok),
        "num_ptr": num.sum(axis=1), "num_var": var[num], "num_coef": coef[ok][num],
        "num_impute": impute[ok][num],
        "cat_ptr": cat.sum(axis=1), "cat_var": var[cat], "cat_coef": cat_coef[term_id[ok][cat]],
        "cat_impute": impute[ok][cat],
    }
    left = y <= thr[seg]
    return ok, split, left, ~left


def _grow(X, n_labels, idxs, rngs, params: ForestParams):
    """Grow one tree per subsample in `idxs` on the cells X (see `_cells`),
    tree t from the stream rngs[t], all one depth level at a time; returns
    their stored fields as `_preorder` does.

    A level's nodes are those of every tree, sorted by (tree, node), and
    its rows are kept sorted by the node they reach: a single-variable
    model carries each row's weight and sends a row its split cannot place
    down both branches with weights b*w and (1 - b)*w, b the weight share
    of the split's placed rows sent left (`_branch`, the step `descend`
    takes too).  Each level draws the splits of all its nodes that hold
    >= 2 rows at once, each tree from its own stream in the order it would
    draw alone; a node that gets none is a terminal.  The level's j-th
    split has children 2j and 2j + 1 on the next level, so every tree's
    nodes stay together."""
    weighted = params.model_kind == "single"
    rows = np.concatenate(idxs)
    node = np.repeat(np.arange(len(idxs)), [len(i) for i in idxs])
    w = np.ones(len(rows)) if weighted else None
    tree = np.arange(len(idxs))  # the tree of each node of the level
    # Per stored field, the entries of the splits, level after level,
    # after an empty one that sets the field's dtype and shape.
    width = max(1, int(n_labels.max()))
    found = {name: [np.zeros({1: (0,), 2: (0, width), 3: (0, 2, width)}[ndim], dtype)]
             for name, (dtype, ndim) in STORED.items()}
    sizes, splits = [], []  # per level: each node's size; its splits' positions
    depth = 0
    while len(tree):
        count = np.bincount(node, minlength=len(tree))
        sizes.append(count.astype(float) if w is None
                     else np.bincount(node, weights=w, minlength=len(tree)))
        cand = count > 1
        if (params.max_depth is not None and depth >= params.max_depth) or not cand.any():
            splits.append(np.flatnonzero(cand)[:0])
            break
        keep = cand[node]
        rows, node = rows[keep], node[keep]
        w = None if w is None else w[keep]
        # Segments: the candidate nodes in order.
        seg = (np.cumsum(cand) - 1)[node]
        starts = np.cumsum(count[cand]) - count[cand]
        owner = tree[cand]
        # Uniform keys: the first eligible columns in a uniform order are
        # uniform among them.
        keys = _draw(rngs, np.repeat(owner, X.shape[1])).reshape(len(owner), X.shape[1])
        if weighted:
            var, lo, hi, x = _least_key_column(X, rows, seg, starts, keys)
            ok, split, left, right = _split_single(n_labels, seg, var, lo, hi, x, owner, rngs)
        else:
            lo, hi = _ranges(X[rows], starts)
            keys[~(lo < hi)] = 2.0  # the columns that cannot split come last
            ok, split, left, right = _split_hyperplane(
                X, n_labels, rows, seg, starts, lo, hi, keys, owner, rngs, params.ndim
            )
        splits.append(np.flatnonzero(cand)[ok])
        on = _every(ok[seg])
        rank = (np.cumsum(ok) - 1)[seg[on]]
        b = None
        if weighted:
            # Adding +0.0 for the rows sent the other way leaves each sum
            # as it is.
            wl = np.bincount(seg, weights=np.where(left, w, 0.0), minlength=len(ok))[ok]
            wr = np.bincount(seg, weights=np.where(right, w, 0.0), minlength=len(ok))[ok]
            split["left_fraction"] = wl / (wl + wr)
            w, b = w[on], split["left_fraction"][rank]
        for name, value in split.items():
            found[name].append(value)
        rows, kid, w = _branch(rows[on], w, left[on], right[on], 2 * rank, 2 * rank + 1, b)
        order = np.argsort(kid, kind="stable")
        rows, node = rows[order], kid[order]
        w = None if w is None else w[order]
        tree = np.repeat(owner[ok], 2)
        depth += 1
    return _preorder(sizes, splits, {name: np.concatenate(v) for name, v in found.items()})


def _preorder(sizes, splits, found) -> dict:
    """The stored fields (see STORED) of trees grown level by level, each
    tree numbered in pre-order, left first, tree after tree; but roots,
    num_ptr and cat_ptr hold counts: each tree's nodes, each hyperplane's
    terms.

    Level 0 holds the roots.  sizes[d] is each node's size on level d and
    splits[d] the positions of its splits, in order; split j has children
    2j and 2j + 1 on level d + 1.  `found` holds the splits' entries in
    that order, level after level, and those of their code rows and terms
    (see `_split_single` and `_split_hyperplane`)."""
    # Subtree sizes bottom-up (the last level has no splits), then each
    # node's position top-down: a split's left child follows it, and its
    # right child follows the left child's subtree.
    sub = [np.ones(len(s), dtype=np.int64) for s in sizes]
    for d in range(len(sub) - 2, -1, -1):
        sub[d][splits[d]] += sub[d + 1][0::2] + sub[d + 1][1::2]
    pos = [np.cumsum(sub[0]) - sub[0]]
    for d in range(len(sub) - 1):
        left = pos[d][splits[d]] + 1
        pos.append(np.stack([left, left + sub[d + 1][0::2]], axis=1).ravel())
    at = np.concatenate([p[s] for p, s in zip(pos, splits)])  # the splits, in level order
    n = int(sub[0].sum())
    out = dict(found, roots=sub[0], size=np.zeros(n))
    out["size"][np.concatenate(pos)] = np.concatenate(sizes)
    out["size"][at] = 0.0
    for name, fill in (("kind", TERMINAL), ("var", -1), ("threshold", 0.0), ("left_fraction", 0.0)):
        out[name] = np.full(n, fill, dtype=STORED[name][0])
        out[name][at] = found[name]
    # The categorical splits' code rows, and the hyperplanes' term counts
    # and terms, in the pre-order of their splits.
    kind = found["kind"]
    out["sides"] = found["sides"][np.argsort(at[kind == CATEGORICAL])]
    hyp = at[kind == HYPERPLANE]
    for p in ("num", "cat"):
        count = found[f"{p}_ptr"]
        out[f"{p}_ptr"] = count[np.argsort(hyp)]
        terms = np.argsort(np.repeat(hyp, count), kind="stable")
        for t in ("var", "coef", "impute"):
            out[f"{p}_{t}"] = found[f"{p}_{t}"][terms]
    return out


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
    X = _cells(ds)
    lo, hi = _ranges(X, [0])
    if not (lo < hi).any():
        raise FitError("no column has >= 2 distinct non-missing values")
    n_sub = ds.n_rows if params.subsample is None else min(params.subsample, ds.n_rows)
    schema = [
        {"name": name, "kind": c.kind, "labels": c.labels}
        for name, c in zip(ds.names, ds.columns)
    ]
    n_labels = _label_counts(schema)
    p = ds.weights / ds.weights.sum()
    parts = []
    batch = max(1, GROW_CELLS // (n_sub * ds.n_cols))
    for k0 in range(0, params.n_trees, batch):
        rngs = [_tree_rng(params.seed, k) for k in range(k0, min(k0 + batch, params.n_trees))]
        idxs = [
            rng.choice(ds.n_rows, size=n_sub, replace=False, p=p)
            if n_sub < ds.n_rows
            else np.arange(ds.n_rows)
            for rng in rngs
        ]
        parts.append(_grow(X, n_labels, idxs, rngs, params))
    stored = {name: np.concatenate([part[name] for part in parts]) for name in STORED}
    for name in ("roots", "num_ptr", "cat_ptr"):
        stored[name] = np.concatenate([[0], np.cumsum(stored[name])]).astype(STORED[name][0])
    # The code tables are as wide as the most labels of a column they
    # hold codes of, and at least 1.
    cat_splits = stored["var"][stored["kind"] == CATEGORICAL]
    stored["sides"] = stored["sides"][:, :, : max(1, n_labels[cat_splits].max(initial=0))]
    stored["cat_coef"] = stored["cat_coef"][:, : max(1, n_labels[stored["cat_var"]].max(initial=0))]
    return Forest(params=params, schema=schema, flat=_finish(**stored), n_sub=n_sub)


# ---------------------------------------------------------------------------
# Prediction: the trees as flat pre-order arrays, and one level-wise router.


@dataclass
class FlatForest:
    """A forest's trees as flat arrays, as fitting emits them, numbered in
    pre-order, left first, tree after tree: tree t holds nodes
    [roots[t], roots[t + 1]).  The subtree of node i ends before `end[i]`,
    so the left child of split i is i + 1 and its right child end[i + 1].

    `_finish` derives every field that STORED does not list: the
    structure (end, depth, slot, value) and the hyperplane terms as a
    padded table, about 0.86 MB on a 12,592-hyperplane forest of ndim 2
    over 2 numeric and 2 categorical columns."""

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
    # Derived by `_finish` for scoring, which reads them in place of the
    # CSR terms above: the hyperplane terms padded to a table, a row per
    # hyperplane and a slot per term, numeric slots then categorical ones,
    # each kind in stored order.  An absent numeric slot reads column 0
    # with coefficient and imputation 0.0, so it adds +-0.0 (numeric cells
    # are finite).  A categorical slot reads its column's code c and adds
    # cat_table[at + c]: per categorical term a row of width + 1 entries
    # (the coefficient by code, the imputation where it is NaN, and last
    # the imputation for unknown codes), then one all-zero row, which the
    # absent slots use.  int32 (H, Pn) and (H, Pc), float64 (H, Pn) and
    # ((terms + 1) * (width + 1),).
    pad_num_var: np.ndarray
    pad_num_coef: np.ndarray
    pad_num_impute: np.ndarray
    pad_cat_var: np.ndarray
    pad_cat_at: np.ndarray
    cat_table: np.ndarray


def _shape(kind: np.ndarray, start: int):
    """(end, depth) of one pre-order tree, given its node kinds and the id
    of its root.

    With s the count of splits less terminals before a node, a subtree
    starting at i ends at the first e > i where s = s[i] - 1.  Split i
    holds the nodes [i + 1, end[i]), so depth is a prefix sum: +1 at each
    split's i + 1, -1 at its end."""
    n = len(kind)
    s = np.concatenate([[0], np.cumsum(np.where(kind == TERMINAL, -1, 1))])
    # Positions sorted by (s, position): the first position after i with
    # s[i] - 1 is one searchsorted away.
    keys = np.sort(s * (n + 1) + np.arange(n + 1))
    base = (s[:-1] - 1) * (n + 1)
    end = keys[np.searchsorted(keys, base + np.arange(1, n + 1))] - base
    split = np.flatnonzero(kind != TERMINAL)
    depth = np.cumsum(np.bincount(split + 1, minlength=n + 1)
                      - np.bincount(end[split], minlength=n + 1))[:n]
    return end + start, depth


def _finish(threshold, **stored) -> FlatForest:
    """The FlatForest of the stored fields (see STORED): each node's
    subtree end and depth, the slot of a categorical or hyperplane split,
    the value of a node, a split's threshold or a terminal's isolation
    depth, and the padded hyperplane term table are derived here.
    `threshold` becomes the value array, in place: a copy would raise the
    peak memory."""
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
    return FlatForest(slot=slot, value=value, end=end, depth=depth, **_pad_terms(**stored),
                      **stored)


def _pad_terms(num_ptr, num_var, num_coef, num_impute, cat_ptr, cat_var, cat_coef, cat_impute,
               **_) -> dict:
    """The padded hyperplane term table of the CSR terms (see FlatForest)."""
    n_cat, width = cat_coef.shape
    table = np.zeros((n_cat + 1, width + 1))
    table[:-1, :-1] = np.where(np.isnan(cat_coef), cat_impute[:, None], cat_coef)
    table[:-1, -1] = cat_impute
    at = np.arange(n_cat, dtype=np.int32) * (width + 1)
    out = {"cat_table": table.ravel()}
    # Each field's terms by hyperplane and slot, and what an absent slot holds.
    for name, ptr, terms, absent in (
        ("num_var", num_ptr, num_var, 0), ("num_coef", num_ptr, num_coef, 0.0),
        ("num_impute", num_ptr, num_impute, 0.0),
        ("cat_var", cat_ptr, cat_var, 0), ("cat_at", cat_ptr, at, n_cat * (width + 1)),
    ):
        count = np.diff(ptr)
        filled = np.arange(count.max(initial=0)) < count[:, None]
        out[f"pad_{name}"] = np.full(filled.shape, absent, dtype=terms.dtype)
        out[f"pad_{name}"][filled] = terms
    return out


def _codes(X, width):
    """The cells X (see `_cells`) as category codes, an intp array of X's
    shape: each cell's code, or `width` where it is unknown, negative or
    >= width.  Only categorical cells are read as codes; the rest land in
    [0, width] too, so every code indexes a row of `FlatForest.cat_table`."""
    return np.where((X >= 0) & (X < width), X, width).astype(np.intp)


def _project(flat: FlatForest, X, codes, rows, h):
    """Hyperplane projections of `rows` at hyperplanes `h`, each term added
    left to right in the slot order of the padded table, numeric terms
    first, then categorical ones.  Unknown cells (missing, or categories
    without a coefficient) contribute the stored imputation; absent slots
    add +-0.0, which leaves every comparison with a threshold unchanged."""
    y = np.zeros(len(rows))
    # Cells are gathered from the flattened arrays, by one index each.
    X_flat, codes_flat = X.ravel(), codes.ravel()
    row_at = rows * X.shape[1]
    var = np.take(flat.pad_num_var, h, axis=0)
    coef = np.take(flat.pad_num_coef, h, axis=0)
    impute = np.take(flat.pad_num_impute, h, axis=0)
    for t in range(var.shape[1]):
        x = X_flat[row_at + var[:, t]]
        y += np.where(np.isnan(x), impute[:, t], coef[:, t] * x)
    var = np.take(flat.pad_cat_var, h, axis=0)
    base = np.take(flat.pad_cat_at, h, axis=0)
    for t in range(var.shape[1]):
        y += np.take(flat.cat_table, base[:, t] + codes_flat[row_at + var[:, t]])
    return y


def _sides_of(flat: FlatForest, X, codes, rows, nodes):
    """Masks of the (row, node) pairs each split sends left and right; a
    pair in neither goes down both branches.  The rules are the fit's: a
    numeric threshold, a categorical subset of the codes present at fit
    time, and the hyperplane projection with stored imputations.  A
    forest with hyperplanes has no other splits; `codes` are the cells'
    codes (see `_codes`), which only hyperplanes read."""
    if len(flat.num_ptr) > 1:  # one entry per hyperplane, and one more
        go = _project(flat, X, codes, rows, flat.slot[nodes]) <= flat.value[nodes]
        return go, ~go
    vals = X.ravel()[rows * X.shape[1] + flat.var[nodes]]
    left = vals <= flat.value[nodes]
    right = vals > flat.value[nodes]
    cat = np.flatnonzero(flat.kind[nodes] == CATEGORICAL)
    if len(cat):
        code = vals[cat]
        ok = (code >= 0) & (code < flat.sides.shape[2])
        sides = flat.sides[flat.slot[nodes[cat]], :, np.where(ok, code, 0).astype(np.intp)]
        left[cat], right[cat] = (ok[:, None] & sides).T
    return left, right


def descend(flat: FlatForest, ds: Dataset, trees: range, weighted: bool,
            every_node: bool = False):
    """Move every row of `ds` from the root of each tree in `trees` down to
    where it ends, one depth level at a time, as (row, node, weight)
    triples; returns the triples where rows end, as arrays (rows, nodes, w),
    in node order: tree by tree, pre-order within a tree, stable within a
    node.  Every sum over the nodes a row reaches is taken in this order.

    A `weighted` descent starts each row with weight 1 and sends a row
    that a single-variable split cannot place (missing cell, or a category
    the split never saw) down both branches by the fit's step, `_branch`,
    with weights b*w and (1 - b)*w.  Rows end at terminals.
    Otherwise w is None, and a row a split cannot place ends at that split.
    A hyperplane places every row, so an unweighted descent of an extended
    forest ends at the terminals a weighted one does, with weight 1.
    With `every_node`, the triples of every node reached are returned.
    """
    n = ds.n_rows
    X = _cells(ds)
    codes = _codes(X, flat.cat_coef.shape[1])
    rows = np.tile(np.arange(n), len(trees))
    nodes = np.repeat(flat.roots[trees.start : trees.stop], n)
    w = np.ones(len(rows)) if weighted else None
    out = [(rows[:0], nodes[:0], None if w is None else w[:0])]
    while len(rows):
        term = flat.kind[nodes] == TERMINAL
        if every_node:
            out.append((rows, nodes, w))
        elif term.any():
            out.append((rows[term], nodes[term], None if w is None else w[term]))
        if term.any():
            live = np.flatnonzero(~term)
            rows, nodes = rows[live], nodes[live]
            w = None if w is None else w[live]
        left, right = _sides_of(flat, X, codes, rows, nodes)
        if w is None and not every_node:
            # Unweighted, a row the split cannot place ends at it.
            placed = left | right
            if not placed.all():
                out.append((rows[~placed], nodes[~placed], None))
        b = None if w is None else flat.left_fraction[nodes]
        rows, nodes, w = _branch(rows, w, left, right, nodes + 1, flat.end[nodes + 1], b)
    rows, nodes, w = zip(*out)
    nodes = np.concatenate(nodes)
    order = np.argsort(nodes, kind="stable")
    w = np.concatenate(w)[order] if weighted else None
    return np.concatenate(rows)[order], nodes[order], w


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
    """Write `forest` to `path` as its stored arrays (see STORED)."""
    flat = forest.flat
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


def _tree(flat: FlatForest, n_labels: list, t: int):
    """The root of tree t of `flat` as node objects, as `Forest.trees`
    shows it; n_labels holds each column's label count.  One pass over the
    tree's nodes in reverse pre-order builds every split after its
    children, i + 1 and end[i + 1], without recursion."""
    a, b = flat.roots[t : t + 2].tolist()
    kind, var, slot, value, frac, size, end = (x[a:b].tolist() for x in (
        flat.kind, flat.var, flat.slot, flat.value, flat.left_fraction, flat.size, flat.end))
    node = [None] * (b - a)
    for i in range(b - a - 1, -1, -1):
        if kind[i] == TERMINAL:
            node[i] = Terminal(size[i])
            continue
        kids = node[i + 1], node[end[i + 1] - a]
        if kind[i] == NUMERIC:
            node[i] = NumericSplit(var[i], value[i], frac[i], *kids)
        elif kind[i] == CATEGORICAL:
            sides = flat.sides[slot[i], :, : n_labels[var[i]]]
            node[i] = CategoricalSplit(var[i], sides[0].copy(), sides.any(axis=0), frac[i], *kids)
        else:
            n0, n1 = flat.num_ptr[slot[i] : slot[i] + 2]
            c0, c1 = flat.cat_ptr[slot[i] : slot[i] + 2]
            cat_var = flat.cat_var[c0:c1].tolist()
            node[i] = HyperplaneSplit(
                flat.num_var[n0:n1].tolist(), flat.num_coef[n0:n1].tolist(),
                flat.num_impute[n0:n1].tolist(), cat_var,
                [row[: n_labels[v]].copy() for row, v in zip(flat.cat_coef[c0:c1], cat_var)],
                flat.cat_impute[c0:c1].tolist(), value[i], *kids)
    return node[0]


def load_model(path) -> Forest:
    """Read a model written by `save_model`; every malformed file raises
    ModelFormatError naming `path`."""
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
            _validate(a, params.model_kind, _label_counts(schema), params.n_trees, n_sub)
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
    flat = _finish(**{name: a[name] for name in STORED})
    return Forest(params=params, schema=schema, flat=flat, n_sub=n_sub)
