"""The separation matrix, `tree_depth_sums` and anomaly scores against a
recursive node-by-node oracle over the node objects, the paper's distance
axioms, and batch-independent anomaly scores, on small random mixed
tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_grower import _sides, _split

from isodist import distance
from isodist.data import Column, Dataset, deduplicate
from isodist.depth import expected_isolation, standardize_isolation, standardize_separation
from isodist.distance import anomaly_scores, separation_matrix, tree_depth_sums
from isodist.forest import (
    HyperplaneSplit,
    ForestParams,
    Terminal,
    fit_forest,
    remap_dataset,
)
from isodist.matrix import CondensedMatrix

POOL = [-1.5, 0.0, 0.25, 3.0, 1e6]
LABELS = ["a", "b", "c"]


def project(node, ds, idx):
    """The hyperplane projection of rows `idx` at `node`; unknown cells
    contribute the stored imputation."""
    y = np.zeros(len(idx))
    for var, coef, r in zip(node.num_vars, node.num_coefs, node.num_imputes):
        col = ds.columns[var]
        y += np.where(~col.missing[idx], coef * col.values[idx], r)
    for var, coefs, r in zip(node.cat_vars, node.cat_coefs, node.cat_imputes):
        col = ds.columns[var]
        vals = col.values[idx]
        ok = ~col.missing[idx] & (vals >= 0) & (vals < len(coefs))
        picked = coefs[np.where(ok, vals, 0)]
        y += np.where(ok & ~np.isnan(picked), picked, r)
    return y


def node_by_node(tree, ds, D, iso):
    """Add one tree's pair depth sums into the square D and its rows'
    weighted isolation depths into `iso`, visiting the node objects in
    pre-order: every node two rows reach adds w_i*w_j (3*w_i*w_j at a
    terminal), every terminal w*(depth + expected isolation among its
    size).  Rows go down a node by the recursive grower's `_sides` and
    `_split`."""
    stack = [(tree, np.arange(ds.n_rows), np.ones(ds.n_rows), 0)]
    while stack:
        node, idx, w, depth = stack.pop()
        if not len(idx):
            continue
        terminal = isinstance(node, Terminal)
        if len(idx) >= 2:
            D[np.ix_(idx, idx)] += (3.0 if terminal else 1.0) * np.outer(w, w)
        if terminal:
            iso[idx] += w * (depth + expected_isolation(max(1, int(round(node.size)))))
            continue
        if isinstance(node, HyperplaneSplit):
            left = project(node, ds, idx) <= node.threshold
            il, wl, ir, wr = idx[left], w[left], idx[~left], w[~left]
        else:
            col = ds.columns[node.var]
            sides = _sides(node, col.values[idx], ~col.missing[idx])
            il, wl, ir, wr = _split(idx, w, *sides, node.left_fraction)
        stack += [(node.right, ir, wr, depth + 1), (node.left, il, wl, depth + 1)]


def reference(forest, ds):
    """Per-tree square depth sums and the anomaly scores of `ds`, node by
    node."""
    ds = remap_dataset(forest, ds)
    iso = np.zeros(ds.n_rows)
    sums = []
    for tree in forest.trees:
        sums.append(np.zeros((ds.n_rows, ds.n_rows)))
        node_by_node(tree, ds, sums[-1], iso)
    return sums, standardize_isolation(iso / len(forest.trees), max(2, forest.n_sub))


def oracle(forest, ds):
    """separation_matrix's cells rebuilt from the per-tree node-by-node
    sums (summed in tree order, averaged, standardized, expanded over
    duplicate groups), and whether every per-tree sum is an integer."""
    rep, gmap = deduplicate(ds)
    n = ds.n_rows
    if rep.n_rows < 2:
        return np.zeros(n * (n - 1) // 2), True
    per_tree, _ = reference(forest, rep)
    integral = all(np.array_equal(D, np.round(D)) for D in per_tree)
    avg = sum(per_tree) / len(forest.trees)
    iu = np.triu_indices(rep.n_rows, k=1)
    rep_sq = CondensedMatrix(rep.n_rows, standardize_separation(avg[iu])).to_square()
    # Pairs inside a duplicate group read the zero diagonal.
    return rep_sq[np.ix_(gmap, gmap)][np.triu_indices(n, k=1)], integral


def assert_same(got, want, integral):
    """Exact when every per-tree sum is an integer (integer sums add
    exactly in any order); else to float rounding, since the library sums
    a weighted tree as a sparse product and the oracle node by node."""
    if integral:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@st.composite
def cases(draw):
    """(fit table, prediction table, params).  Cells come from small pools,
    so duplicate rows are common; cells may be missing; the prediction
    table's categorical columns carry a label "z" the fit table lacks."""
    n = draw(st.integers(2, 12))
    kinds = ["numeric"] + draw(
        st.lists(st.sampled_from(["numeric", "categorical"]), max_size=2)
    )
    fit_cols, cols = [], []
    for j, kind in enumerate(kinds):
        missing = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if kind == "numeric":
            values = np.array(draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n)))
            if j == 0:  # one splittable column, so that fitting succeeds
                values[:2] = POOL[:2]
                missing[:2] = False
            col = Column("numeric", values, missing)
            cols.append(col)
            fit_cols.append(col)
        else:
            codes = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
            cols.append(Column("categorical", codes, missing, LABELS + ["z"]))
            unseen = codes == 3
            fit_cols.append(
                Column("categorical", np.where(unseen, 0, codes), missing | unseen, LABELS)
            )
    kind = draw(st.sampled_from(["single", "extended"]))
    params = ForestParams(
        n_trees=draw(st.integers(1, 4)),
        subsample=draw(st.none() | st.integers(2, n)),
        ndim=1 if kind == "single" else draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        model_kind=kind,
    )
    return Dataset(fit_cols), Dataset(cols), params


@settings(max_examples=150)
@given(cases())
def test_kernel_matches_oracle_and_axioms(case):
    fit_ds, ds, params = case
    forest = fit_forest(fit_ds, params)
    got = separation_matrix(forest, ds).values
    want, integral = oracle(forest, ds)
    assert_same(got, want, integral)
    # Cells lie in (0, 1], and 0 only between rows of one duplicate group.
    _, gmap = deduplicate(ds)
    iu = np.triu_indices(ds.n_rows, k=1)
    same = gmap[iu[0]] == gmap[iu[1]]
    assert np.all(got[same] == 0.0)
    assert np.all((got[~same] > 0.0) & (got[~same] <= 1.0))
    assert_same(separation_matrix(forest, ds, threads=2).values, got, integral)


@settings(max_examples=100)
@given(cases())
def test_depth_sums_and_scores_match_node_by_node(case):
    fit_ds, ds, params = case
    forest = fit_forest(fit_ds, params)
    per_tree, scores = reference(forest, ds)
    for t, want in enumerate(per_tree):
        assert_same(tree_depth_sums(forest, t, ds), want, np.array_equal(want, np.round(want)))
    # Each row adds its terminals tree by tree, in pre-order: the same sum.
    assert np.array_equal(anomaly_scores(forest, ds), scores)


@settings(max_examples=100)
@given(cases(), st.data())
def test_scores_do_not_depend_on_the_batch(case, data):
    fit_ds, ds, params = case
    forest = fit_forest(fit_ds, params)
    whole = anomaly_scores(forest, ds)
    batch_of = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=ds.n_rows, max_size=ds.n_rows))
    )
    batched = np.empty(ds.n_rows)
    for b in np.unique(batch_of):
        rows = np.flatnonzero(batch_of == b)
        batched[rows] = anomaly_scores(forest, ds.take(rows))
    assert np.array_equal(batched, whole)


def test_deep_tree_matches_oracle():
    # On a geometric column a uniform threshold mostly splits off the top
    # cell or two, so the tree grows deeper than an 8-bit cell can count.
    x = 8.0 ** np.arange(300)
    ds = Dataset([Column("numeric", x, np.zeros(len(x), dtype=bool))])
    forest = fit_forest(ds, ForestParams(n_trees=2, seed=0))
    assert max(tree_depth_sums(forest, t, ds).max() for t in range(2)) > 255 + 3
    want, integral = oracle(forest, ds)
    assert integral
    assert np.array_equal(separation_matrix(forest, ds).values, want)


def test_int32_sums_move_to_float_before_they_could_wrap(monkeypatch):
    rng = np.random.default_rng(5)
    ds = Dataset([Column("numeric", rng.standard_normal(60), np.zeros(60, dtype=bool))])
    forest = fit_forest(ds, ForestParams(n_trees=12, seed=1))
    want = separation_matrix(forest, ds).values
    # A cap below two trees' depths moves the int32 sums into the float64
    # sums every tree or two.
    monkeypatch.setattr(distance, "INT32_MAX", 20)
    assert np.array_equal(separation_matrix(forest, ds).values, want)
    assert np.array_equal(separation_matrix(forest, ds, threads=2).values, want)
