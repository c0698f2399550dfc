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
so a tree does not depend on the trees grown before it.  How rows go down
a node is written once, in `_sides` and `_split`: fitting uses them, and so
does `route`, which prediction walks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class Terminal:
    # Remaining point count at fit time (weight mass for single-variable
    # trees); feeds the expected-isolation continuation for anomaly scores.
    size: float


@dataclass
class NumericSplit:
    var: int
    threshold: float
    left_fraction: float
    left: object = None
    right: object = None


@dataclass
class CategoricalSplit:
    var: int
    left_set: np.ndarray  # bool, indexed by category code
    present: np.ndarray  # bool, indexed by category code
    left_fraction: float
    left: object = None
    right: object = None


@dataclass
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


def _var_is_eligible(col: Column, idx: np.ndarray):
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


def _eligible_vars(ds: Dataset, idx: np.ndarray) -> list[int]:
    """Columns with >= 2 distinct non-missing values among rows `idx`."""
    return [
        ci
        for ci, col in enumerate(ds.columns)
        if _var_is_eligible(col, idx) is not None
    ]


def _pick_var(ds: Dataset, idx: np.ndarray, rng):
    """Uniform draw among eligible variables, checking lazily: the first
    eligible entry of a uniform permutation is uniform over the eligible
    set, so most nodes test a single column."""
    for var in rng.permutation(len(ds.columns)):
        hit = _var_is_eligible(ds.columns[var], idx)
        if hit is not None:
            return int(var), hit[0], hit[1]
    return None, None, None


def _draw_threshold(rng, lo: float, hi: float) -> float | None:
    """Uniform draw strictly below `hi` (so both branches are non-empty).

    When `hi - lo` overflows (endpoints near +-1.8e308) the draw is made
    in halved space; halving such large values is exact.
    """
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
    """Rows (idx, w) into (idx_l, w_l, idx_r, w_r) by the `left`/`right` masks.

    Rows in neither mask appear on BOTH sides with weights scaled by b and
    1 - b; copies below the weight floor are dropped.  Unweighted rows
    (w None, hyperplane splits) always lie in exactly one mask.
    """
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


def _project_extended(node: HyperplaneSplit, ds, idx):
    """Recompute the hyperplane projection for rows `idx`; unknown cells
    (missing, or categories without a stored coefficient) contribute the
    stored imputation value."""
    y = np.zeros(len(idx))
    for var, coef, r in zip(node.num_vars, node.num_coefs, node.num_imputes):
        col = ds.columns[var]
        vals = col.values[idx]
        known = ~col.missing[idx]
        y += np.where(known, coef * vals, r)
    for var, coefs, r in zip(node.cat_vars, node.cat_coefs, node.cat_imputes):
        col = ds.columns[var]
        vals = col.values[idx]
        in_domain = ~col.missing[idx] & (vals >= 0) & (vals < len(coefs))
        contrib = np.full(len(idx), r)
        picked = coefs[vals[in_domain]]
        contrib[in_domain] = np.where(np.isnan(picked), r, picked)
        y += contrib
    return y


def route(node, ds: Dataset, idx: np.ndarray, w):
    """Rows (idx, w) that split `node` sends left and right, as
    (idx_l, w_l, idx_r, w_r).  Weights are None for hyperplane nodes."""
    if isinstance(node, HyperplaneSplit):
        left = _project_extended(node, ds, idx) <= node.threshold
        return _split(idx, None, left, ~left, None)
    col = ds.columns[node.var]
    left, right = _sides(node, col.values[idx], ~col.missing[idx])
    return _split(idx, w, left, right, node.left_fraction)


def _draw_single(ds, idx, w, rng):
    """Random single-variable split of rows (idx, w) and the rows it sends
    each way (see `_split`), or None when no split can be drawn."""
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
        node = CategoricalSplit(
            var=var, left_set=left_set, present=present, left_fraction=0.0
        )
    left, right = _sides(node, vals, known)
    wl = float(w[left].sum())
    wr = float(w[right].sum())
    node.left_fraction = wl / (wl + wr)
    return node, _split(idx, w, left, right, node.left_fraction)


def _draw_extended(ds, idx, rng, ndim):
    """Random hyperplane split of rows `idx` and the rows it sends each way
    (see `_split`), or None when no split can be drawn."""
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
            sigma = float(kv.std())
            z = float(rng.standard_normal()) / sigma
            contrib = z * kv
            r = float(np.median(contrib))
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
    # Route by the projection drawn here, not a recomputed one, so the
    # terminal sizes match the rows the fit actually saw.
    left = y <= q
    return node, _split(idx, None, left, ~left, None)


def _grow(ds, idx, w, depth, rng, params: ForestParams):
    """Grow a subtree on rows (idx, w); w is None for the extended model."""
    if len(idx) > 1 and (params.max_depth is None or depth < params.max_depth):
        if w is None:
            drawn = _draw_extended(ds, idx, rng, params.ndim)
        else:
            drawn = _draw_single(ds, idx, w, rng)
        if drawn is not None:
            node, (idx_l, w_l, idx_r, w_r) = drawn
            node.left = _grow(ds, idx_l, w_l, depth + 1, rng, params)
            node.right = _grow(ds, idx_r, w_r, depth + 1, rng, params)
            return node
    return Terminal(size=float(len(idx) if w is None else w.sum()))


def _tree_rng(seed: int, tree_index: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def _grow_one(ds: Dataset, params: ForestParams, n_sub: int, tree_index: int):
    rng = _tree_rng(params.seed, tree_index)
    n = ds.n_rows
    if n_sub < n:
        p = ds.weights / ds.weights.sum()
        idx = rng.choice(n, size=n_sub, replace=False, p=p)
    else:
        idx = np.arange(n)
    w = np.ones(len(idx)) if params.model_kind == "single" else None
    return _grow(ds, idx, w, 0, rng, params)


def fit_forest(ds: Dataset, params: ForestParams, threads: int = 1) -> Forest:
    """Grow `params.n_trees` trees on (weighted, without-replacement)
    subsamples of `ds`.  Deterministic in (ds, params, seed).

    `threads` has no effect and is accepted for backward compatibility:
    trees grow one after another, since per-node Python work holds the
    interpreter lock and a thread pool measured no faster.
    """
    if ds.n_rows < 2:
        raise FitError("need at least 2 rows to fit")
    if not _eligible_vars(ds, np.arange(ds.n_rows)):
        raise FitError("no column has >= 2 distinct non-missing values")
    n_sub = ds.n_rows if params.subsample is None else min(params.subsample, ds.n_rows)
    if n_sub < 2:
        raise FitError("subsample size must be >= 2")

    trees = [_grow_one(ds, params, n_sub, k) for k in range(params.n_trees)]
    schema = [
        {"name": name, "kind": c.kind, "labels": c.labels}
        for name, c in zip(ds.names, ds.columns)
    ]
    return Forest(params=params, schema=schema, trees=trees, n_sub=n_sub)


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
        lookup = np.array(
            [model_index.get(lab, UNSEEN_CODE) for lab in col.labels], dtype=np.int64
        )
        codes = np.where(col.missing, 0, col.values)
        remapped = lookup[codes] if len(lookup) else np.full(len(codes), UNSEEN_CODE)
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
            left_set[obj["left_set"]] = True
            present = np.zeros(size, dtype=bool)
            present[obj["present"]] = True
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
            for code, val in cmap.items():
                arr[int(code)] = float(val)
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
    doc = {
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
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> Forest:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        trees = [_node_from_json(t, schema, params.model_kind) for t in doc["trees"]]
        n_sub = int(doc["n_sub"])
        forest = Forest(params=params, schema=schema, trees=trees, n_sub=n_sub)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"{path}: malformed model document: {exc}") from exc
    if len(forest.trees) != params.n_trees:
        raise ModelFormatError(f"{path}: tree count does not match params")
    return forest
