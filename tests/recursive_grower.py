"""The recursive node-by-node grower that level-wise fitting replaced,
kept as the reference the tests compare against.

It grows a tree depth-first from one random stream, a node at a time,
with the same rules as `isodist.forest._grow`: a uniform eligible
variable, a uniform threshold in the node's range or a coin per present
category, redrawn up to MAX_REDRAWS times; rows a single-variable split
cannot place go down both branches with weights b and 1 - b, dropped
below WEIGHT_FLOOR; hyperplanes over up to `ndim` variables with
coefficients Normal(0, 1) / sd and median imputations.  Only the order of
the random draws differs, so the two growers agree in distribution.
"""

import math

import numpy as np
from node_trees import compile_trees

from isodist.forest import (
    MAX_REDRAWS,
    WEIGHT_FLOOR,
    CategoricalSplit,
    Forest,
    HyperplaneSplit,
    NumericSplit,
    Terminal,
    _tree_rng,
)


def _var_is_eligible(col, idx):
    """(values, known-mask) if the column has >= 2 distinct non-missing
    values among rows `idx`, else None."""
    known = ~col.missing[idx]
    if np.count_nonzero(known) < 2:
        return None
    vals = col.values[idx]
    kv = vals[known]
    if kv.min() == kv.max():
        return None
    return vals, known


def _eligible_vars(ds, idx):
    """Columns with >= 2 distinct non-missing values among rows `idx`."""
    return [ci for ci, col in enumerate(ds.columns) if _var_is_eligible(col, idx) is not None]


def _pick_var(ds, idx, rng):
    """Uniform draw among eligible variables, checking lazily: the first
    eligible entry of a uniform permutation is uniform over the eligible
    set."""
    for var in rng.permutation(len(ds.columns)):
        hit = _var_is_eligible(ds.columns[var], idx)
        if hit is not None:
            return int(var), hit[0], hit[1]
    return None, None, None


def _draw_threshold(rng, lo, hi):
    """Uniform draw strictly below `hi`, in halved space when `hi - lo`
    overflows."""
    finite = math.isfinite(hi - lo)
    for _ in range(MAX_REDRAWS):
        u = rng.random()
        if finite:
            z = lo + u * (hi - lo)
        else:
            z = 2.0 * (lo / 2.0 + u * (hi / 2.0 - lo / 2.0))
        if lo <= z < hi:
            return z
    return None


def _sides(node, vals, known):
    """Masks of the rows a single-variable node sends left and right, given
    the rows' values and known-mask in its column.  Rows in neither mask
    (missing, or a category the node never saw) go down both branches."""
    if isinstance(node, NumericSplit):
        left = known & (vals <= node.threshold)
        return left, known & ~left
    in_domain = known & (vals >= 0) & (vals < len(node.present))
    codes = vals[in_domain]
    left = np.zeros(len(vals), dtype=bool)
    right = np.zeros(len(vals), dtype=bool)
    left[in_domain] = node.present[codes] & node.left_set[codes]
    right[in_domain] = node.present[codes] & ~node.left_set[codes]
    return left, right


def _split(idx, w, left, right, b):
    """Rows (idx, w) into (idx_l, w_l, idx_r, w_r) by the `left`/`right`
    masks.  Rows in neither mask appear on BOTH sides with weights scaled
    by b and 1 - b; copies below the weight floor are dropped.  Unweighted
    rows (w None, hyperplane splits) always lie in exactly one mask."""
    if w is None:
        return idx[left], None, idx[right], None
    both = ~(left | right)
    idx_l = np.concatenate([idx[left], idx[both]])
    w_l = np.concatenate([w[left], b * w[both]])
    idx_r = np.concatenate([idx[right], idx[both]])
    w_r = np.concatenate([w[right], (1.0 - b) * w[both]])
    keep_l = w_l >= WEIGHT_FLOOR
    keep_r = w_r >= WEIGHT_FLOOR
    return idx_l[keep_l], w_l[keep_l], idx_r[keep_r], w_r[keep_r]


def _draw_single(ds, idx, w, rng):
    """Random single-variable split of rows (idx, w) and the rows it sends
    each way, or None when no split can be drawn."""
    var, vals, known = _pick_var(ds, idx, rng)
    if var is None:
        return None
    col = ds.columns[var]
    if col.kind == "numeric":
        kv = vals[known]
        z = _draw_threshold(rng, float(kv.min()), float(kv.max()))
        if z is None:
            return None
        node = NumericSplit(var=var, threshold=z, left_fraction=0.0)
    else:
        present_codes = np.unique(vals[known])
        subset = None
        for _ in range(MAX_REDRAWS):
            coin = rng.random(len(present_codes)) < 0.5
            if 0 < coin.sum() < len(present_codes):
                subset = present_codes[coin]
                break
        if subset is None:
            return None
        present = np.zeros(len(col.labels), dtype=bool)
        present[present_codes] = True
        left_set = np.zeros(len(col.labels), dtype=bool)
        left_set[subset] = True
        node = CategoricalSplit(var=var, left_set=left_set, present=present, left_fraction=0.0)
    left, right = _sides(node, vals, known)
    wl = float(w[left].sum())
    wr = float(w[right].sum())
    node.left_fraction = wl / (wl + wr)
    return node, _split(idx, w, left, right, node.left_fraction)


def _draw_extended(ds, idx, rng, ndim):
    """Random hyperplane split of rows `idx` and the rows it sends each
    way, or None when no split can be drawn."""
    eligible = _eligible_vars(ds, idx)
    if not eligible:
        return None
    k = min(ndim, len(eligible))
    chosen = sorted(rng.choice(np.array(eligible), size=k, replace=False).tolist())

    y = np.zeros(len(idx))
    node = HyperplaneSplit([], [], [], [], [], [], threshold=0.0)
    for var in chosen:
        col = ds.columns[var]
        vals = col.values[idx]
        known = ~col.missing[idx]
        if col.kind == "numeric":
            kv = vals[known]
            with np.errstate(over="ignore", invalid="ignore"):
                sigma = float(kv.std())
            if not math.isfinite(sigma):
                # Squares of cells beyond ~1.3e154 overflow; scale them
                # into [-1, 1] first.
                s = float(np.abs(kv).max())
                sigma = s * float((kv / s).std())
            z = float(rng.standard_normal()) / sigma
            r = float(np.median(z * kv))
            y[known] += z * vals[known]
            y[~known] += r
            node.num_vars.append(var)
            node.num_coefs.append(z)
            node.num_imputes.append(r)
        else:
            present_codes = np.unique(vals[known])
            coefs = np.full(len(col.labels), np.nan)
            coefs[present_codes] = rng.standard_normal(len(present_codes))
            applied = coefs[vals[known]]
            r = float(np.median(applied))
            y[known] += applied
            y[~known] += r
            node.cat_vars.append(var)
            node.cat_coefs.append(coefs)
            node.cat_imputes.append(r)

    lo, hi = float(y.min()), float(y.max())
    if lo == hi:
        return None
    q = _draw_threshold(rng, lo, hi)
    if q is None:
        return None
    node.threshold = q
    left = y <= q
    return node, _split(idx, None, left, ~left, None)


def recursive_grow(ds, idx, w, depth, rng, params):
    """A tree on rows (idx, w), w None for the extended model, drawn
    depth-first, left subtree first."""
    if len(idx) > 1 and (params.max_depth is None or depth < params.max_depth):
        if w is None:
            drawn = _draw_extended(ds, idx, rng, params.ndim)
        else:
            drawn = _draw_single(ds, idx, w, rng)
        if drawn is not None:
            node, (idx_l, w_l, idx_r, w_r) = drawn
            node.left = recursive_grow(ds, idx_l, w_l, depth + 1, rng, params)
            node.right = recursive_grow(ds, idx_r, w_r, depth + 1, rng, params)
            return node
    return Terminal(size=float(len(idx) if w is None else w.sum()))


def recursive_fit(ds, params):
    """A forest grown by `recursive_grow`: tree k from `_tree_rng(seed, k)`,
    its subsample drawn first, as `fit_forest` does."""
    n = ds.n_rows
    n_sub = n if params.subsample is None else min(params.subsample, n)
    trees = []
    for k in range(params.n_trees):
        rng = _tree_rng(params.seed, k)
        if n_sub < n:
            idx = rng.choice(n, size=n_sub, replace=False, p=ds.weights / ds.weights.sum())
        else:
            idx = np.arange(n)
        w = np.ones(len(idx)) if params.model_kind == "single" else None
        trees.append(recursive_grow(ds, idx, w, 0, rng, params))
    schema = [{"name": name, "kind": c.kind, "labels": c.labels}
              for name, c in zip(ds.names, ds.columns)]
    return Forest(params=params, schema=schema, flat=compile_trees(trees), n_sub=n_sub)
