"""The separation matrix, `tree_depth_sums` and anomaly scores against a
recursive node-by-node oracle over the node objects, the paper's distance
axioms, and batch-independent anomaly scores, on small random mixed
tables."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_grower import _sides, _split

from isodist import distance
from isodist.bench import generate_scenario
from isodist.data import Column, Dataset, deduplicate
from isodist.depth import expected_isolation, standardize_isolation, standardize_separation
from isodist.distance import anomaly_scores, separation_matrix, tree_depth_sums
from isodist.forest import (
    HyperplaneSplit,
    ForestParams,
    Terminal,
    descend,
    fit_forest,
    load_model,
    remap_dataset,
    save_model,
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


def geometric_column():
    """300 rows of 8^k: a uniform threshold mostly splits off the top cell
    or two, so trees grow deeper than an 8-bit cell can count."""
    x = 8.0 ** np.arange(300)
    return Dataset([Column("numeric", x, np.zeros(len(x), dtype=bool))])


def test_deep_tree_matches_oracle():
    ds = geometric_column()
    forest = fit_forest(ds, ForestParams(n_trees=2, seed=0))
    assert max(tree_depth_sums(forest, t, ds).max() for t in range(2)) > 255 + 3
    want, integral = oracle(forest, ds)
    assert integral
    assert np.array_equal(separation_matrix(forest, ds).values, want)


@pytest.mark.parametrize("max_depth, cell", [(252, np.uint8), (253, np.int32)])
def test_cell_width_boundary_matches_oracle(max_depth, cell):
    # The deepest pair depth a tree can give is its deepest node's depth
    # + 3: 255 still fits a byte cell, 256 takes int32 cells.
    ds = geometric_column()
    forest = fit_forest(ds, ForestParams(n_trees=2, seed=0, max_depth=max_depth))
    assert distance._cell_type(forest.flat) is cell
    assert max(tree_depth_sums(forest, t, ds).max() for t in range(2)) == max_depth + 3
    want, integral = oracle(forest, ds)
    assert integral
    assert np.array_equal(separation_matrix(forest, ds).values, want)


def t4_table(missing=0):
    """150 rows of scenario t4, the first `missing` of them without their
    first cell."""
    ds = generate_scenario("t4", 150, np.random.default_rng(11))["dataset"]
    first = ds.columns[0]
    cells = Column("numeric", first.values, np.arange(ds.n_rows) < missing)
    return Dataset([cells] + ds.columns[1:], list(ds.names))


def mixed_table():
    """150 rows of scenario mixed, 10% of its cells missing."""
    return generate_scenario("mixed", 150, np.random.default_rng(11))["dataset"]


def pair_rows_laid_out(forest, ds):
    """How many of the forest's trees `_pair_rows` lays out over the
    rows of `ds`, each checked against `tree_depth_sums`: with its
    columns taken back to table order, each pair's depth is in one of the
    pair's two cells and 0 in the other, and the diagonal is 0."""
    ds = remap_dataset(forest, ds)
    flat, n = forest.flat, ds.n_rows
    n_trees = len(flat.roots) - 1
    rows, ends, _ = descend(flat, ds, range(n_trees), False)
    laid = 0
    for t in range(n_trees):
        order = rows[t * n : (t + 1) * n]
        cells = distance._pair_rows(flat, t, ends[t * n : (t + 1) * n], order,
                                    distance._cell_type(flat))
        if cells is None:
            continue
        laid += 1
        square = cells[:, np.argsort(order)].astype(np.int64)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal((square + square.T)[off], tree_depth_sums(forest, t, ds)[off])
        assert not np.diagonal(square).any()
        assert not np.minimum(square, square.T).any()
    return laid


@pytest.mark.parametrize("table", [t4_table, geometric_column], ids=["t4", "geometric"])
def test_pair_rows_hold_each_trees_pair_depths(table):
    # The geometric trees' splits mostly peel off a row or two, so their
    # left blocks hold some n^2 / 2 rows in all, and their smaller sides
    # n log2 n rows at most.
    ds = table()
    assert pair_rows_laid_out(fit_forest(ds, ForestParams(n_trees=2, seed=0)), ds) == 2


@st.composite
def complete_tables(draw):
    """(table, params): 2-40 complete rows of two numeric columns and one
    categorical one, from a few values each, so that rows tie and
    terminals may hold several rows.  The first two rows differ, so that
    fitting succeeds."""
    n = draw(st.integers(2, 40))
    cols = []
    for _ in range(2):
        values = np.array(draw(st.lists(st.sampled_from(POOL[:3]), min_size=n, max_size=n)))
        cols.append(Column("numeric", values, np.zeros(n, dtype=bool)))
    cols[0].values[:2] = POOL[:2]
    codes = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    cols.append(Column("categorical", codes, np.zeros(n, dtype=bool), LABELS))
    kind = draw(st.sampled_from(["single", "extended"]))
    params = ForestParams(
        n_trees=draw(st.integers(1, 3)),
        subsample=draw(st.none() | st.integers(2, n)),
        ndim=1 if kind == "single" else draw(st.integers(1, 3)),
        max_depth=draw(st.none() | st.integers(1, 6)),
        seed=draw(st.integers(0, 2**16)),
        model_kind=kind,
    )
    return Dataset(cols), params


@settings(max_examples=300, deadline=None)
@given(complete_tables())
def test_pair_rows_hold_the_depths_of_every_tree_they_lay_out(case):
    ds, params = case
    pair_rows_laid_out(fit_forest(ds, params), ds)


# Fixed-seed cases: (table, forest parameters, trees on the weighted path).
# A subsample forest scored on all rows has terminals of several rows; the
# geometric forest's depths need int32 cells.
DIGEST_CASES = {
    "t4 complete": (t4_table, ForestParams(n_trees=6, seed=2), 0),
    "t4 missing cells": (lambda: t4_table(3), ForestParams(n_trees=8, seed=2, max_depth=4), 5),
    "t4 subsample": (t4_table, ForestParams(n_trees=6, seed=2, subsample=16), 0),
    "mixed single": (mixed_table, ForestParams(n_trees=6, seed=2), 6),
    "mixed extended": (mixed_table, ForestParams(n_trees=6, seed=2, model_kind="extended",
                                                 ndim=2), 0),
    "geometric": (geometric_column, ForestParams(n_trees=2, seed=0), 0),
}

# The sha256 of `separation_matrix(...).values.tobytes()` for each case,
# pinned when the kernel filled both triangles of int32 cells: distances
# must not drift while the forests are unchanged.
MATRIX_DIGESTS = {
    "t4 complete":
        "480ac119fd6f1c45e0c79eaa97e274f972f8c68e0cc1a7ef7aa8fd06b555c5b3",
    "t4 missing cells":
        "073734fc7be3b8e5fcbd6278dd300e9b3370bb719026c5f6a366f520c0176ded",
    "t4 subsample":
        "19877e55c9db17ab18f6cd71378114b4480f8d0424d573245d63cc0da0d113c0",
    "mixed single":
        "3cea42a25b2bd119ff8a93983b8c99f9c27c9eea12333162fd0718b53c0cd568",
    "mixed extended":
        "943c0c43b114b462fc754997ea0eab1301bf5c4765411b76ed9e87c547796c5a",
    "geometric":
        "34348068db57e966190b5e5b4f2447465079786a9b231d416acc56ae8bd262e6",
}


def matrix_digest(forest, ds):
    return hashlib.sha256(separation_matrix(forest, ds).values.tobytes()).hexdigest()


@pytest.mark.parametrize("case", list(DIGEST_CASES))
def test_fixed_seed_matrices_keep_their_digest(monkeypatch, case):
    table, params, n_weighted = DIGEST_CASES[case]
    ds = table()
    forest = fit_forest(ds, params)
    weighted = []
    real = distance._add_weighted
    monkeypatch.setattr(distance, "_add_weighted", lambda *a: weighted.append(a[1]) or real(*a))
    assert matrix_digest(forest, ds) == MATRIX_DIGESTS[case]
    assert len(weighted) == n_weighted


def test_int32_sums_move_to_float_between_kernel_and_weighted_trees(monkeypatch):
    table, params, _ = DIGEST_CASES["t4 missing cells"]
    ds = table()
    forest = fit_forest(ds, params)
    want = separation_matrix(forest, ds).values
    # Kernel trees 1, 5 and 6 add at most 4 + 3 to a pair, so a cap of 10
    # gives the integer sums int64 cells.  They are still added to the
    # weighted trees' float sums once, at the end, so the result is the
    # same to the bit.
    assert distance._sum_type(forest.flat) is np.int32
    monkeypatch.setattr(distance, "INT32_MAX", 10)
    assert distance._sum_type(forest.flat) is np.int64
    assert np.array_equal(separation_matrix(forest, ds).values, want)


def test_int32_sums_move_to_float_before_they_could_wrap(monkeypatch):
    rng = np.random.default_rng(5)
    ds = Dataset([Column("numeric", rng.standard_normal(60), np.zeros(60, dtype=bool))])
    forest = fit_forest(ds, ForestParams(n_trees=12, seed=1))
    want = separation_matrix(forest, ds).values
    # A cap below two trees' depths gives the integer sums int64 cells.
    monkeypatch.setattr(distance, "INT32_MAX", 20)
    assert distance._sum_type(forest.flat) is np.int64
    assert np.array_equal(separation_matrix(forest, ds).values, want)
    assert np.array_equal(separation_matrix(forest, ds, threads=2).values, want)


def with_unseen_labels(ds, every=7):
    """`ds` with every `every`-th present cell of each categorical column
    relabelled to a label no model has seen."""
    cols = []
    for c in ds.columns:
        if c.kind == "categorical":
            hit = ~c.missing & (np.arange(ds.n_rows) % every == 0)
            c = Column("categorical", np.where(hit, len(c.labels), c.values), c.missing,
                       c.labels + ["unseen"])
        cols.append(c)
    return Dataset(cols, list(ds.names))


def mixed_batch(seed, rows):
    """A fresh batch of scenario mixed with unseen labels."""
    return with_unseen_labels(generate_scenario("mixed", rows, np.random.default_rng(seed))["dataset"])


def serving_table():
    """The score-serving shape's table: 20,000 rows of scenario mixed."""
    return generate_scenario("mixed", 20_000, np.random.default_rng(5))["dataset"]


# Fixed-seed scoring cases: (fit table, forest parameters, table scored,
# whether the forest is saved and reloaded first).
SCORE_CASES = {
    "t4 complete": (t4_table, ForestParams(n_trees=6, seed=2, subsample=16), t4_table, False),
    "t4 missing cells": (lambda: t4_table(3), ForestParams(n_trees=8, seed=2, max_depth=4),
                         lambda: t4_table(3), False),
    "mixed extended ndim 2": (mixed_table, ForestParams(n_trees=6, seed=2, model_kind="extended",
                                                        ndim=2), mixed_table, False),
    "mixed extended ndim 3": (mixed_table, ForestParams(n_trees=6, seed=2, model_kind="extended",
                                                        ndim=3, subsample=64), mixed_table, False),
    "reloaded extended, unseen labels": (
        mixed_table, ForestParams(n_trees=6, seed=3, model_kind="extended", ndim=2),
        lambda: mixed_batch(12, 60), True),
    "score-serving shape": (
        serving_table, ForestParams(n_trees=50, subsample=256, ndim=2, seed=5,
                                    model_kind="extended"),
        lambda: mixed_batch(6, 256), True),
}

# The sha256 of `anomaly_scores(...).tobytes()` for each case, pinned when
# scoring read the hyperplanes' terms from their CSR arrays and descended
# extended forests with weights: scores must not drift while the forests
# are unchanged.
SCORE_DIGESTS = {
    "t4 complete":
        "63ca7afeb86ddf7b0362d9e8bc8422c67afc9648a749685c32f1369221234a79",
    "t4 missing cells":
        "a6865bf13e1682229b1eda4e7b4d59dfd9948d8d450c60cf3da5f7b0d96d2284",
    "mixed extended ndim 2":
        "9b5c83b600c3028ed24e6bbef2caae4fd80a0fcdf0d78c77705f65950cccbea4",
    "mixed extended ndim 3":
        "f4f97d5fcb176b395e2277e3285170d75b3547c434612d1d8b13d5b9967b163c",
    "reloaded extended, unseen labels":
        "fb5ba335f08360911a80b60fba8e1553f04b2f6aba1218ad01c0a44f44820bbc",
    "score-serving shape":
        "3eb1dafc2652564ccf2127b7e982fe571d38723138c6321670dcdfcd57ffd2c3",
}


def score_digest(case, tmp_path):
    fit_table, params, table, reload = SCORE_CASES[case]
    forest = fit_forest(fit_table(), params)
    if reload:
        save_model(forest, tmp_path / "model.npz")
        forest = load_model(tmp_path / "model.npz")
    return hashlib.sha256(anomaly_scores(forest, table()).tobytes()).hexdigest()


@pytest.mark.parametrize("case", list(SCORE_CASES))
def test_fixed_seed_scores_keep_their_digest(tmp_path, case):
    assert score_digest(case, tmp_path) == SCORE_DIGESTS[case]
