import copy
import gc
import hashlib
import io
import re
import sys
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_file import first, read_model, with_code_past_labels, write_model
from node_trees import compile_trees
from recursive_grower import recursive_fit
from scipy import stats

from isodist.bench import generate_scenario
from isodist import cli, distance
from isodist.data import Column, Dataset, write_csv
from isodist import forest as forest_mod
from isodist.distance import anomaly_scores, pair_distance, separation_matrix
from isodist.forest import (
    CATEGORICAL,
    NUMERIC,
    TERMINAL,
    CategoricalSplit,
    FitError,
    Forest,
    ForestParams,
    HyperplaneSplit,
    ModelFormatError,
    NumericSplit,
    Terminal,
    _segment_medians,
    _thresholds,
    descend,
    fit_forest,
    load_model,
    remap_dataset,
    save_model,
)


def numeric_dataset(arrays, missing=None):
    cols = []
    for i, a in enumerate(arrays):
        a = np.asarray(a, dtype=float)
        m = np.zeros(len(a), dtype=bool) if missing is None else np.asarray(missing[i])
        cols.append(Column("numeric", a, m))
    return Dataset(cols)


@pytest.fixture(scope="module")
def normal_ds():
    rng = np.random.default_rng(42)
    return numeric_dataset([rng.standard_normal(200), rng.standard_normal(200)])


def nodes(node):
    yield node
    if getattr(node, "left", None) is not None:
        yield from nodes(node.left)
        yield from nodes(node.right)


def test_fit_requires_two_rows():
    ds = numeric_dataset([[1.0]])
    with pytest.raises(FitError):
        fit_forest(ds, ForestParams(n_trees=3))


def test_fit_requires_a_splittable_column():
    ds = numeric_dataset([[2.0, 2.0, 2.0]])
    with pytest.raises(FitError):
        fit_forest(ds, ForestParams(n_trees=3))


def test_single_model_rejects_ndim():
    with pytest.raises(FitError):
        ForestParams(model_kind="single", ndim=2)


@pytest.mark.parametrize("max_depth", [0, -5])
def test_params_reject_max_depth_below_one(max_depth):
    # A depth limit below 1 would leave every tree a lone terminal, and
    # every distance and score 0.5.
    with pytest.raises(FitError, match="max_depth"):
        ForestParams(max_depth=max_depth)


def test_determinism(normal_ds):
    params = ForestParams(n_trees=10, seed=123)
    a = separation_matrix(fit_forest(normal_ds, params), normal_ds)
    b = separation_matrix(fit_forest(normal_ds, params), normal_ds)
    assert np.array_equal(a.values, b.values)


def test_threaded_fit_matches_serial(normal_ds):
    params = ForestParams(n_trees=8, seed=11)
    a = separation_matrix(fit_forest(normal_ds, params, threads=1), normal_ds)
    b = separation_matrix(fit_forest(normal_ds, params, threads=4), normal_ds)
    assert np.array_equal(a.values, b.values)


def test_max_depth_respected(normal_ds):
    forest = fit_forest(normal_ds, ForestParams(n_trees=5, seed=0, max_depth=4))
    for tree in forest.trees:
        def depth_ok(node, d=0):
            if isinstance(node, Terminal):
                return d <= 4
            return depth_ok(node.left, d + 1) and depth_ok(node.right, d + 1)
        assert depth_ok(tree)


def test_full_depth_terminals_isolate_rows(normal_ds):
    # Continuous data, unlimited depth: every terminal holds one point.
    forest = fit_forest(normal_ds, ForestParams(n_trees=3, seed=7))
    for tree in forest.trees:
        for node in nodes(tree):
            if isinstance(node, Terminal):
                assert node.size == pytest.approx(1.0)


def test_numeric_threshold_strictly_inside_range(normal_ds):
    forest = fit_forest(normal_ds, ForestParams(n_trees=5, seed=3))
    lo = min(c.values.min() for c in normal_ds.columns)
    hi = max(c.values.max() for c in normal_ds.columns)
    for tree in forest.trees:
        for node in nodes(tree):
            if isinstance(node, NumericSplit):
                assert lo <= node.threshold < hi


def test_categorical_split_is_proper_subset():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 4, size=120)
    ds = Dataset(
        [
            Column("categorical", codes, np.zeros(120, dtype=bool), list("abcd")),
            Column("numeric", rng.standard_normal(120), np.zeros(120, dtype=bool)),
        ]
    )
    forest = fit_forest(ds, ForestParams(n_trees=5, seed=1))
    seen_cat = 0
    for tree in forest.trees:
        for node in nodes(tree):
            if isinstance(node, CategoricalSplit):
                seen_cat += 1
                n_left = node.left_set.sum()
                n_present = node.present.sum()
                assert 0 < n_left < n_present
                assert not (node.left_set & ~node.present).any()
    assert seen_cat > 0


def test_unseen_codes_fit_as_missing():
    # A remapped table holds UNSEEN_CODE (-1) for labels the model never
    # saw; fitting on it treats those cells as missing, so no split counts
    # -1 (numpy's last label) as a present category.
    rng = np.random.default_rng(3)
    codes = rng.choice([0, 1, -1], size=90)
    ds = Dataset([Column("categorical", codes, np.zeros(90, dtype=bool), list("abc")),
                  Column("numeric", rng.standard_normal(90), np.zeros(90, dtype=bool))])
    cats = [node for tree in fit_forest(ds, ForestParams(n_trees=8, seed=2)).trees
            for node in nodes(tree) if isinstance(node, CategoricalSplit)]
    assert cats
    assert not any(node.present[2] for node in cats)


def test_stored_codes_under_missing_cells_are_never_read(tmp_path):
    # Two copies of a mixed table that differ only in the codes stored
    # under missing categorical cells give the same models, distances and
    # scores; and a label the model never saw routes as a missing cell.
    mixed = generate_scenario("mixed", 120, np.random.default_rng(5))["dataset"]
    rng = np.random.default_rng(6)
    copies = []
    for fill in (lambda c: np.zeros_like(c.values),
                 lambda c: rng.integers(-1, len(c.labels), len(c.values))):
        copies.append(Dataset([
            Column(c.kind, np.where(c.missing, fill(c), c.values), c.missing, c.labels)
            if c.kind == "categorical" else c
            for c in mixed.columns
        ], list(mixed.names)))
    assert any((a.values != b.values).any() for a, b in zip(*(d.columns for d in copies)))
    for kind, ndim in (("single", 1), ("extended", 2)):
        params = ForestParams(n_trees=4, seed=3, model_kind=kind, ndim=ndim)
        forests = [fit_forest(ds, params) for ds in copies]
        digests = [model_digest(forest, tmp_path / "model.npz") for forest in forests]
        assert digests[0] == digests[1]
        for forest in forests:
            mats = [separation_matrix(forest, ds).values for ds in copies]
            assert np.array_equal(mats[0], mats[1])
            scores = [anomaly_scores(forest, ds) for ds in copies]
            assert np.array_equal(scores[0], scores[1])

        # Every fourth row's first categorical cell holds a new label, or
        # is missing.
        j = next(i for i, c in enumerate(mixed.columns) if c.kind == "categorical")
        col = mixed.columns[j]
        hit = np.arange(mixed.n_rows) % 4 == 0
        unseen = Column("categorical", np.where(hit, len(col.labels), col.values),
                        col.missing & ~hit, col.labels + ["new"])
        missing = Column("categorical", col.values, col.missing | hit, col.labels + ["new"])
        pair = [Dataset(mixed.columns[:j] + [c] + mixed.columns[j + 1:], list(mixed.names))
                for c in (unseen, missing)]
        forest = forests[0]
        routed = [descend(forest.flat, remap_dataset(forest, ds), range(params.n_trees),
                          kind == "single") for ds in pair]
        for a, b in zip(*routed):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert np.array_equal(anomaly_scores(forest, pair[0]), anomaly_scores(forest, pair[1]))


def test_missing_rows_split_to_both_branches():
    # Column 0 splits; row 4 is missing there and must appear on both
    # sides with weights b_l and 1-b_l.
    vals = np.array([0.0, 1.0, 2.0, 3.0, 0.0])
    miss = np.array([False, False, False, False, True])
    ds = numeric_dataset([vals], missing=[miss])
    forest = fit_forest(ds, ForestParams(n_trees=20, seed=2))
    found = False
    for tree in forest.trees:
        if isinstance(tree, NumericSplit):
            b = tree.left_fraction
            assert 0.0 < b < 1.0
            found = True
    assert found


def test_routed_weight_conserved_per_node():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(100)
    miss = rng.random(100) < 0.2
    ds = numeric_dataset([vals, rng.standard_normal(100)], missing=[miss, miss[::-1]])
    forest = fit_forest(ds, ForestParams(n_trees=5, seed=4))
    flat = forest.flat
    _, nodes, w = descend(flat, ds, range(5), True, every_node=True)
    mass = np.bincount(nodes, weights=w, minlength=len(flat.kind))
    split = np.flatnonzero((flat.kind != TERMINAL) & (mass > 0))
    assert len(split) > 0
    # conservation up to the 1e-8 weight floor drops
    np.testing.assert_allclose(mass[split + 1] + mass[flat.end[split + 1]], mass[split],
                               rtol=0, atol=1e-6)


def test_terminal_rowsets_partition_subsample(normal_ds):
    # Fully observed data: each row lands in exactly one terminal.
    forest = fit_forest(normal_ds, ForestParams(n_trees=3, seed=8))
    flat = forest.flat
    for t in range(3):
        rows, nodes, w = descend(flat, normal_ds, range(t, t + 1), True)
        assert np.all(flat.kind[nodes] == TERMINAL)
        assert np.all((flat.roots[t] <= nodes) & (nodes < flat.roots[t + 1]))
        assert sorted(rows.tolist()) == list(range(200))
        assert np.all(w == 1.0)


def preorder_sizes(tree):
    """Fit-time sizes of the terminals of `tree`, in pre-order."""
    sizes, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Terminal):
            sizes.append(node.size)
        else:
            stack += [node.right, node.left]
    return np.array(sizes)


@pytest.mark.parametrize(
    "kind, ndim, table",
    [("single", 1, "t4"), ("extended", 2, "t4"), ("extended", 3, "mixed"), ("single", 1, "mixed")],
)
def test_routing_the_fitted_rows_gives_every_terminal_size(kind, ndim, table):
    # The router and the fit apply one set of rules: the rows a tree was
    # fitted on reach each terminal with the weight it holds.
    ds = generate_scenario(table, 200, np.random.default_rng(3))["dataset"]
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=5, model_kind=kind, ndim=ndim))
    flat = forest.flat
    _, nodes, w = descend(flat, ds, range(4), True)
    mass = np.bincount(nodes, weights=w, minlength=len(flat.kind))
    got = mass[flat.kind == TERMINAL]
    want = np.concatenate([preorder_sizes(t) for t in forest.trees])
    if kind == "single" and any(c.missing.any() for c in ds.columns):
        # Both-branch weights sum in another order than at fit time.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(got, want)


def test_fit_and_descent_drop_the_same_copies(monkeypatch):
    # With the floor raised, both-branch copies are really dropped.  The
    # fitted rows then reach each terminal with its fit-time size only if
    # fitting and routing drop the same copies.
    monkeypatch.setattr(forest_mod, "WEIGHT_FLOOR", 0.05)
    ds = generate_scenario("t4", 200, np.random.default_rng(3))["na"]
    flat = fit_forest(ds, ForestParams(n_trees=4, seed=5)).flat
    _, nodes, w = descend(flat, ds, range(4), True)
    mass = np.bincount(nodes, weights=w, minlength=len(flat.kind))
    term = flat.kind == TERMINAL
    np.testing.assert_allclose(mass[term], flat.size[term], rtol=1e-12, atol=0)
    # Both branches keep a row's weight; only dropped copies lose some.
    held = np.add.reduceat(flat.size, flat.roots[:-1])
    assert (held < ds.n_rows - 1e-6).all()


def stack_walk(kind):
    """(end, depth) of one pre-order tree from its node kinds, by a walk
    that keeps the open splits on a stack, each with the count of its
    children still to come."""
    end, depth = np.zeros(len(kind), dtype=np.int64), np.zeros(len(kind), dtype=np.int64)
    open_splits = []
    for i, k in enumerate(kind.tolist()):
        depth[i] = len(open_splits)
        if k != TERMINAL:
            open_splits.append([i, 2])
            continue
        end[i] = i + 1
        # The terminal completes one child of each split it closes.
        while open_splits:
            open_splits[-1][1] -= 1
            if open_splits[-1][1]:
                break
            end[open_splits.pop()[0]] = i + 1
    return end, depth


def test_shape_matches_a_stack_walk(tmp_path):
    ds = generate_scenario("mixed", 150, np.random.default_rng(6))["dataset"]
    single = fit_forest(ds, ForestParams(n_trees=4, seed=2))
    extended = fit_forest(ds, ForestParams(n_trees=4, seed=2, model_kind="extended", ndim=2))
    save_model(single, tmp_path / "model.npz")
    loaded = load_model(tmp_path / "model.npz")
    for flat in (single.flat, extended.flat, loaded.flat):
        # One call over the whole forest gives each tree's own walk.
        end, depth = forest_mod._shape(flat.kind)
        assert np.array_equal(flat.end, end) and np.array_equal(flat.depth, depth)
        for a, b in zip(flat.roots[:-1].tolist(), flat.roots[1:].tolist()):
            walk_end, walk_depth = stack_walk(flat.kind[a:b])
            assert np.array_equal(end[a:b], walk_end + a)
            assert np.array_equal(depth[a:b], walk_depth)
    # Two one-node trees.
    end, depth = forest_mod._shape(np.array([TERMINAL, TERMINAL], dtype=np.int8))
    assert end.tolist() == [1, 2] and depth.tolist() == [0, 0]


def assert_same_flat(got, want):
    """Every field of the FlatForest `got` equals that of `want`, in dtype,
    shape and value."""
    for name, value in vars(want).items():
        have = getattr(got, name)
        assert have.dtype == value.dtype and np.array_equal(have, value, equal_nan=True), name


def test_node_view_builds_one_tree_per_item(monkeypatch, tmp_path, normal_ds):
    # `Forest.trees` is a read-only sequence over the arrays: its length
    # builds nothing, and each item read builds that one tree, uncached.
    forest = fit_forest(normal_ds, ForestParams(n_trees=3, seed=1))
    built = []
    real = forest_mod._tree
    monkeypatch.setattr(forest_mod, "_tree", lambda *a: built.append(a[-1]) or real(*a))
    trees = forest.trees
    assert len(trees) == 3 and not built
    assert trees[0] is not trees[0] and built == [0, 0]
    assert trees[-1] == trees[2] and built[2:] == [2, 2]
    with pytest.raises(IndexError):
        trees[3]
    with pytest.raises(TypeError):
        trees[1] = trees[0]
    save_model(forest, tmp_path / "model.npz")
    loaded = load_model(tmp_path / "model.npz")
    del built[:]
    assert_same_flat(compile_trees(loaded.trees), loaded.flat)
    assert built == [0, 1, 2]


def test_overflowing_range_still_splits():
    # hi - lo overflows to inf; the threshold is drawn in halved space.
    ds = numeric_dataset([[-1e308, -1.0, 0.0, 1.0, 1e308]])
    forest = fit_forest(ds, ForestParams(n_trees=10, seed=0))
    assert all(isinstance(tree, NumericSplit) for tree in forest.trees)
    assert not np.all(separation_matrix(forest, ds).values == 0.5)
    # A finite range keeps the plain formula lo + u * (hi - lo), an
    # overflowing one takes it on the halved endpoints, doubled.
    # Both entries draw from the one tree's stream.
    z = _thresholds([np.random.default_rng(3)], np.zeros(2, dtype=np.intp),
                    np.array([-2.0, -1e308]), np.array([5.0, 1e308]))
    u = np.random.default_rng(3).random(2)
    assert z[0] == -2.0 + u[0] * 7.0
    assert z[1] == 2.0 * (-0.5e308 + u[1] * 1e308)


def test_extended_std_overflow_still_splits():
    # Squaring cells near +-1e308 overflows kv.std(); without rescaling the
    # coefficient is 0, no split is drawn and every distance is 0.5.
    x = np.random.default_rng(4).uniform(-1.0, 1.0, 40) * 1e308
    ds = numeric_dataset([x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forest = fit_forest(ds, ForestParams(n_trees=5, seed=0, model_kind="extended"))
        values = separation_matrix(forest, ds).values
    assert not np.all(values == 0.5)


def near_the_float_floor(name):
    """A table whose extended nodes reach scale * sd below about 1e-308,
    where Normal(0, 1) / (scale * sd) overflows: the geometric column
    across the whole float range, or a subnormal column beside a
    categorical one, so that the overflowing hyperplanes hold categorical
    terms too."""
    if name == "geometric":
        return numeric_dataset([2.0 ** np.linspace(-1070, 1020, 3000)])
    codes = np.random.default_rng(0).integers(0, 3, 200)
    return Dataset([Column("numeric", 2.0 ** np.linspace(-1072, -1030, 200), np.zeros(200, bool)),
                    Column("categorical", codes, np.zeros(200, bool), ["a", "b", "c"])])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("table", ["geometric", "subnormal and categorical"])
def test_extended_coefficients_near_the_float_floor_stay_finite(tmp_path, table, seed):
    # A hyperplane whose coefficient would overflow has all its terms
    # shifted by one power of two, so it still splits its rows: every
    # terminal holds one row here, or two (the 200-row table), where
    # their projections round together at subnormal scale.  Unshifted, a
    # terminal held 63-66 rows of the geometric column.
    ds = near_the_float_floor(table)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        forest = fit_forest(ds, ForestParams(n_trees=1, seed=seed, model_kind="extended", ndim=2))
        flat = forest.flat
        assert flat.size[flat.kind == TERMINAL].max() <= 2
        assert np.isfinite(flat.num_coef).all() and np.isfinite(flat.value).all()
        if table != "geometric":
            # The categorical terms of the shifted hyperplanes went subnormal.
            shifted = np.nanmax(np.abs(flat.cat_coef), axis=1) < 1e-300
            assert shifted.any() and (np.nanmax(np.abs(flat.cat_coef), axis=1) > 0).all()
        save_model(forest, tmp_path / "model.npz")
        loaded = load_model(tmp_path / "model.npz")
        for got, want in zip(descend(loaded.flat, ds, range(1), False),
                             descend(flat, ds, range(1), False)):
            assert np.array_equal(got, want)


def test_affine_equivariant_structure(normal_ds):
    transformed = numeric_dataset(
        [100.0 * c.values + 7.0 for c in normal_ds.columns]
    )
    params = ForestParams(n_trees=10, seed=21)
    f1 = fit_forest(normal_ds, params)
    f2 = fit_forest(transformed, params)
    for t1, t2 in zip(f1.trees, f2.trees):
        for n1, n2 in zip(nodes(t1), nodes(t2)):
            assert type(n1) is type(n2)
            if isinstance(n1, NumericSplit):
                assert n1.var == n2.var
                assert n1.left_fraction == n2.left_fraction


def test_extended_handles_mixed_columns():
    rng = np.random.default_rng(6)
    n = 150
    ds = Dataset(
        [
            Column("numeric", rng.standard_normal(n), rng.random(n) < 0.1),
            Column(
                "categorical",
                rng.integers(0, 3, size=n),
                rng.random(n) < 0.1,
                ["x", "y", "z"],
            ),
        ]
    )
    forest = fit_forest(
        ds, ForestParams(n_trees=10, seed=3, model_kind="extended", ndim=2)
    )
    mixed = 0
    for tree in forest.trees:
        for node in nodes(tree):
            if isinstance(node, HyperplaneSplit) and node.num_vars and node.cat_vars:
                mixed += 1
    assert mixed > 0


def test_extended_constant_rows_terminate():
    ds = numeric_dataset([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    with pytest.raises(FitError):
        fit_forest(ds, ForestParams(n_trees=2, model_kind="extended", ndim=2))


def csr_project(flat, X, miss, rows, h):
    """Hyperplane projections read from the CSR terms, as scoring computed
    them before the padded table: at each term position, the hyperplanes
    that still have a term are selected and their terms added, numeric
    terms first, then categorical ones."""
    y = np.zeros(len(rows))
    X_flat, miss_flat, coef_flat = X.ravel(), miss.ravel(), flat.cat_coef.ravel()
    row_at = rows * X.shape[1]
    width = flat.cat_coef.shape[1]
    for ptr, tvar, numeric in ((flat.num_ptr, flat.num_var, True),
                               (flat.cat_ptr, flat.cat_var, False)):
        start = ptr[h]
        count = ptr[h + 1] - start
        for t in range(int(count.max(initial=0))):
            sel = np.flatnonzero(count > t)
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


def test_padded_projection_matches_the_csr_terms():
    # Column 0 is numeric, and absent categorical slots read it as codes:
    # its cells cast to codes below 0 and at or past the table width.
    # Column 1 holds an unseen code (-1) and a missing cell; each
    # categorical term has a NaN coefficient.
    ds = Dataset([
        Column("numeric", [-3.7, 5.5, 1e300, 0.0, 2.0, -0.5], [False, False, False, False, True, False]),
        Column("categorical", [0, 1, 2, -1, 1, 0], [False, False, False, False, False, True],
               ["a", "b", "c"]),
        Column("categorical", [1, 0, 0, 1, 1, 0], [False] * 6, ["u", "v"]),
        Column("numeric", [0.5, -2.0, 7.25, 1.0, -1e-3, 3.0], [False, True] + [False] * 4),
    ])
    nan = np.nan

    def split(*terms):
        return HyperplaneSplit(*terms, 0.0, Terminal(1.0), Terminal(1.0))

    trees = [
        # numeric terms only
        split([0, 3], [0.75, -1.5], [0.1, 0.2], [], [], []),
        # categorical terms only
        split([], [], [], [1, 2], [np.array([0.5, nan, -1.0]), np.array([nan, 2.0])],
              [0.25, -0.125]),
        # both kinds
        split([3], [2.0], [-0.3], [1], [np.array([1.5, -0.5, nan])], [0.0625]),
        split([0], [1e-3], [4.0], [2], [np.array([-2.0, 3.0])], [0.5]),
    ]
    flat = compile_trees(trees)
    assert flat.pad_num_var.shape == (4, 2) and flat.pad_cat_var.shape == (4, 2)
    X = forest_mod._cells(ds)
    codes = forest_mod._codes(X, flat.cat_coef.shape[1])
    rows = np.repeat(np.arange(ds.n_rows), len(trees))
    h = np.tile(np.arange(len(trees)), ds.n_rows)
    got = forest_mod._project(flat, X, codes, rows, h)
    # The oracle reads the columns' own values and missing masks.
    values = np.stack([c.values for c in ds.columns], axis=1).astype(float)
    missing = np.stack([c.missing for c in ds.columns], axis=1)
    want = csr_project(flat, values, missing, rows, h)
    assert np.isfinite(want).all()
    assert (got == want).all()


def test_extended_forest_descends_unweighted_to_the_weighted_terminals():
    # A hyperplane places every row, missing cells and unseen labels too.
    ds = generate_scenario("mixed", 150, np.random.default_rng(8))["dataset"]
    forest = fit_forest(ds, ForestParams(n_trees=5, seed=6, model_kind="extended", ndim=3))
    fresh = generate_scenario("mixed", 80, np.random.default_rng(9))["dataset"]
    unseen = fresh.columns[2]
    fresh.columns[2] = Column("categorical", np.where(np.arange(80) % 4 == 0, 3, unseen.values),
                              unseen.missing, unseen.labels + ["new"])
    ds = remap_dataset(forest, fresh)
    assert (ds.columns[2].values == -1).any() and any(c.missing.any() for c in ds.columns)
    rows, nodes, w = descend(forest.flat, ds, range(5), True)
    assert (w == 1.0).all()
    got_rows, got_nodes, none = descend(forest.flat, ds, range(5), False)
    assert none is None
    assert sorted(zip(got_rows.tolist(), got_nodes.tolist())) == sorted(
        zip(rows.tolist(), nodes.tolist()))
    assert (forest.flat.kind[got_nodes] == TERMINAL).all()


def test_save_load_round_trip(tmp_path, normal_ds):
    forest = fit_forest(normal_ds, ForestParams(n_trees=6, seed=13))
    path = tmp_path / "model.json"
    save_model(forest, path)
    loaded = load_model(path)
    a = separation_matrix(forest, normal_ds)
    b = separation_matrix(loaded, normal_ds)
    assert np.array_equal(a.values, b.values)


def test_save_load_round_trip_extended(tmp_path):
    rng = np.random.default_rng(17)
    n = 80
    ds = Dataset(
        [
            Column("numeric", rng.standard_normal(n), rng.random(n) < 0.15),
            Column(
                "categorical",
                rng.integers(0, 4, size=n),
                rng.random(n) < 0.15,
                list("abcd"),
            ),
        ]
    )
    forest = fit_forest(
        ds, ForestParams(n_trees=6, seed=5, model_kind="extended", ndim=2)
    )
    path = tmp_path / "model.json"
    save_model(forest, path)
    loaded = load_model(path)
    assert np.array_equal(
        separation_matrix(forest, ds).values, separation_matrix(loaded, ds).values
    )


def test_load_truncated_model_rejected(tmp_path, normal_ds):
    forest = fit_forest(normal_ds, ForestParams(n_trees=2, seed=0))
    path = tmp_path / "model.npz"
    save_model(forest, path)
    path.write_bytes(path.read_bytes()[:-30])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_wrong_version_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_refuses_version_1_json(tmp_path):
    # A version-1 model is a JSON document; it is refused, not converted.
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 1, "params": {}, "n_sub": 2, "schema": [], "trees": []}')
    with pytest.raises(ModelFormatError, match="version 1 .*refit"):
        load_model(path)


@pytest.mark.parametrize("subsample", [1, 0, -3])
def test_params_reject_subsample_below_two(subsample):
    with pytest.raises(FitError, match="subsample"):
        ForestParams(subsample=subsample)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """Saved single and extended models over a numeric and a 4-label
    categorical column, as (arrays, header) pairs."""
    rng = np.random.default_rng(23)
    n = 80
    ds = Dataset(
        [
            Column("numeric", rng.standard_normal(n), rng.random(n) < 0.1),
            Column("categorical", rng.integers(0, 4, size=n), np.zeros(n, bool),
                   list("abcd")),
        ]
    )
    files = {}
    for kind, ndim in (("single", 1), ("extended", 2)):
        path = tmp_path_factory.mktemp(kind) / "model.npz"
        params = ForestParams(n_trees=4, seed=3, model_kind=kind, ndim=ndim)
        save_model(fit_forest(ds, params), path)
        files[kind] = read_model(path)
        # Unedited, the file loads as written.
        write_model(path, *files[kind])
        load_model(path)
    return files


def set_entry(name, index, value):
    """A mutation setting entry `name` at `index` to `value`."""
    return lambda a, h: a[name].__setitem__(index(a), value)


# name: (model kind, edit of (arrays, header), a fragment of the error)
MUTATIONS = {
    "var outside schema": (
        "single", set_entry("var", lambda a: first(a, NUMERIC), 7), "outside a 2-column schema"),
    "numeric split on categorical column": (
        "single", set_entry("var", lambda a: first(a, NUMERIC), 1),
        "numeric split on a column of the other kind"),
    "categorical split on numeric column": (
        "single", set_entry("var", lambda a: first(a, CATEGORICAL), 0),
        "categorical split on a column of the other kind"),
    # The splits set code 3 (label "d"), which a 3-label column lacks.
    "label count differs from schema": (
        "single", lambda a, h: h["schema"][1]["labels"].pop(), "category code at or past"),
    "node type not in model kind": (
        "single", lambda a, h: h["params"].update(model_kind="extended"),
        "node kind not allowed in the extended model"),
    "hyperplane lists differ in length": (
        "extended", lambda a, h: a.update(num_impute=np.append(a["num_impute"], 0.5)),
        "num_ptr does not divide"),
    "hyperplane label count differs from schema": (
        "extended", lambda a, h: h["schema"][1]["labels"].pop(),
        "hyperplane coefficient at or past"),
    # A bool table holds no negative code; a code past the column's labels
    # is the one that could be set.
    "left side code past label count": (
        "single", lambda a, h: a.update(sides=with_code_past_labels(a["sides"], (0, 0))),
        "category code at or past"),
    "right side code past label count": (
        "single", lambda a, h: a.update(sides=with_code_past_labels(a["sides"], (0, 1))),
        "category code at or past"),
    "cat_coef code past label count": (
        "extended", lambda a, h: a.update(cat_coef=with_code_past_labels(a["cat_coef"], (0,))),
        "hyperplane coefficient at or past"),
    "code on both sides": (
        "single", lambda a, h: a["sides"][0, 1].__ior__(a["sides"][0, 0]), "both left and right"),
    "categorical split without its sides": (
        "single", lambda a, h: a.update(sides=a["sides"][1:]), "sides do not hold"),
    "sides without a code column": (
        "single", lambda a, h: a.update(sides=a["sides"][:, :, :0]), "sides do not hold"),
    "cat_coef without a code column": (
        "extended", lambda a, h: a.update(cat_coef=a["cat_coef"][:, :0]),
        "cat_coef has no code column"),
    "hyperplane term on the wrong kind of column": (
        "extended", lambda a, h: a["num_var"].__setitem__(0, 1),
        "hyperplane numeric term on a column of the other kind"),
    # The arrays themselves.
    "not a tree": ("single", set_entry("kind", lambda a: 0, 0), "do not form trees"),
    "roots do not end at the node count": (
        "single", lambda a, h: a["roots"].__setitem__(-1, a["roots"][-1] - 1),
        "roots do not divide"),
    "roots differ from tree count": (
        "single", lambda a, h: h["params"].update(n_trees=3), "roots do not divide"),
    "cat_ptr differs from term count": (
        "extended", lambda a, h: a["cat_ptr"].__setitem__(-1, a["cat_ptr"][-1] + 1),
        "cat_ptr does not divide"),
    "wrong dtype": (
        "single", lambda a, h: a.update(var=a["var"].astype(np.int64)),
        "entry 'var' is missing or not a 1-d int32 array"),
    "missing entry": ("single", lambda a, h: a.pop("size"), "entry 'size' is missing"),
    "pickled entry": (
        "single", lambda a, h: a.update(var=a["var"].astype(object)), "holds pickled objects"),
    "per-node entries differ in length": (
        "single", lambda a, h: a.update(size=a["size"][:-1]), "per-node entries differ"),
    "terminal size negative": (
        "single", set_entry("size", lambda a: first(a, TERMINAL), -1.0), "terminal size"),
    "terminal size above n_sub": (
        "extended", set_entry("size", lambda a: first(a, TERMINAL), 1e300), "terminal size"),
    "left fraction above 1": (
        "single", set_entry("left_fraction", lambda a: first(a, NUMERIC), 1.5), "left fraction"),
    # The header.
    "format version 3": (
        "single", lambda a, h: h.update(format_version=3), "unsupported model format version 3"),
    "tree count not a number": (
        "single", lambda a, h: h["params"].update(n_trees="x"), "malformed model file"),
    "tree count infinite": (
        "single", lambda a, h: h["params"].update(n_trees=float("inf")), "malformed model file"),
    "subsample size not a number": (
        "single", lambda a, h: h.update(n_sub="x"), "malformed model file"),
    "n_sub 0": ("single", lambda a, h: h.update(n_sub=0), "subsample size 0 is below 2"),
    "n_sub negative": ("single", lambda a, h: h.update(n_sub=-3), "subsample size -3 is below 2"),
    "n_sub above subsample": (
        "single", lambda a, h: h["params"].update(subsample=40),
        "above the subsample parameter"),
    "subsample below 2": (
        "single", lambda a, h: h["params"].update(subsample=1), "subsample size must be >= 2"),
    "ndim 0": ("extended", lambda a, h: h["params"].update(ndim=0), "ndim must be >= 1"),
    "max_depth negative": (
        "single", lambda a, h: h["params"].update(max_depth=-5), "max_depth must be >= 1"),
    "no trees": ("single", lambda a, h: h["params"].update(n_trees=0), "at least one tree"),
    "unknown model kind": (
        "single", lambda a, h: h["params"].update(model_kind="foo"), "unknown model kind"),
    # Header fields of another JSON type, or missing, or unknown: none is
    # converted, and none takes a default.
    "tree count a string": (
        "single", lambda a, h: h["params"].update(n_trees="3"), "params 'n_trees' is a str"),
    "seed a float": ("single", lambda a, h: h["params"].update(seed=1.9), "params 'seed' is a float"),
    "ndim a bool": ("single", lambda a, h: h["params"].update(ndim=True), "params 'ndim' is a bool"),
    "max_depth a float": (
        "single", lambda a, h: h["params"].update(max_depth=2.5), "params 'max_depth' is a float"),
    "unknown params field": (
        "single", lambda a, h: h["params"].update(trees=3),
        "params does not hold exactly the fields n_trees, subsample, ndim, max_depth, seed"),
    "seed missing": (
        "single", lambda a, h: h["params"].pop("seed"), "params does not hold exactly the fields"),
    "n_sub a string": ("single", lambda a, h: h.update(n_sub="50"), "header 'n_sub' is a str"),
    "unknown header field": (
        "single", lambda a, h: h.update(trees=[]), "header does not hold exactly the fields"),
    "unknown entry": ("single", lambda a, h: a.update(extra=np.zeros(1)), "entry 'extra.npy' is unknown"),
    # Columns no split uses: remap_dataset reads them all.
    "unknown column kind": (
        "single", lambda a, h: h["schema"].append({"name": "z", "kind": "text", "labels": None}),
        "malformed schema column"),
    "column without a name": (
        "single", lambda a, h: h["schema"][0].pop("name"), "malformed model file"),
    "categorical labels not a list": (
        "single", lambda a, h: h["schema"].append({"name": "z", "kind": "categorical", "labels": 5}),
        "schema column 2 'labels' is a int"),
    "labels on a numeric column": (
        "single", lambda a, h: h["schema"][0].update(labels=[1, 2]), "malformed schema column"),
    "categorical label not a string": (
        "single", lambda a, h: h["schema"][1]["labels"].__setitem__(0, 1), "malformed schema column"),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_load_rejects_model_inconsistent_with_schema(tmp_path, model_files, mutation):
    kind, mutate, problem = MUTATIONS[mutation]
    arrays, header = copy.deepcopy(model_files[kind])
    mutate(arrays, header)
    path = tmp_path / "model.npz"
    write_model(path, arrays, header)
    with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}: .*{re.escape(problem)}"):
        load_model(path)


def test_load_rejects_npy_shape_larger_than_its_entry(tmp_path, model_files):
    # numpy trusts the shape in a .npy header and would allocate it before
    # finding the data short; the loader compares it to the entry's size.
    arrays, header = model_files["single"]
    path = tmp_path / "model.npz"
    write_model(path, arrays, header)
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    huge = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        huge, {"descr": "<f8", "fortran_order": False, "shape": (10**15,)})
    members["threshold.npy"] = huge.getvalue() + arrays["threshold"].tobytes()
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    with pytest.raises(ModelFormatError, match="'threshold.npy' declares more data"):
        load_model(path)


def test_unseen_category_remap():
    rng = np.random.default_rng(2)
    n = 100
    ds = Dataset(
        [
            Column(
                "categorical",
                rng.integers(0, 3, size=n),
                np.zeros(n, dtype=bool),
                ["a", "b", "c"],
            ),
            Column("numeric", rng.standard_normal(n), np.zeros(n, dtype=bool)),
        ]
    )
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=1))
    # New data uses a label the model never saw.
    new = Dataset(
        [
            Column(
                "categorical",
                np.array([0, 1]),
                np.zeros(2, dtype=bool),
                ["a", "zebra"],
            ),
            Column("numeric", np.array([0.1, 0.2]), np.zeros(2, dtype=bool)),
        ]
    )
    remapped = remap_dataset(forest, new)
    assert remapped.columns[0].values[0] == 0
    assert remapped.columns[0].values[1] == -1  # unseen at every split
    # traversal must still produce a valid distance
    d = separation_matrix(forest, new)[0, 1]
    assert 0.0 < d <= 1.0


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
def test_remap_is_idempotent(kind, ndim):
    ds = generate_scenario("mixed", 120, np.random.default_rng(6))["dataset"]
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=2, ndim=ndim, model_kind=kind))
    # A 30-row probe whose every fifth categorical cell holds a label the
    # model never saw.
    cols = []
    for c in ds.take(np.arange(30)).columns:
        if c.kind == "categorical":
            codes = c.values.copy()
            codes[::5] = len(c.labels)
            c = Column(c.kind, codes, c.missing, c.labels + ["unseen"])
        cols.append(c)
    raw = Dataset(cols, list(ds.names))
    once = remap_dataset(forest, raw)
    twice = remap_dataset(forest, once)
    for a, b in zip(once.columns, twice.columns):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.missing, b.missing)
        assert a.labels == b.labels
    assert np.array_equal(anomaly_scores(forest, once), anomaly_scores(forest, raw))
    assert np.array_equal(
        separation_matrix(forest, once).values, separation_matrix(forest, raw).values
    )


def test_schema_mismatch_rejected(normal_ds):
    forest = fit_forest(normal_ds, ForestParams(n_trees=2, seed=1))
    bad = Dataset(
        [
            Column(
                "categorical",
                np.array([0, 1]),
                np.zeros(2, dtype=bool),
                ["a", "b"],
            ),
            Column("numeric", np.array([0.1, 0.2]), np.zeros(2, dtype=bool)),
        ]
    )
    with pytest.raises(FitError):
        remap_dataset(forest, bad)


def named(ds, names):
    return Dataset(ds.columns, names, ds.weights)


def test_columns_are_matched_by_name(normal_ds):
    forest = fit_forest(named(normal_ds, ["a", "b"]), ForestParams(n_trees=2, seed=1))
    remap_dataset(forest, named(normal_ds, ["a", "b"]))
    # Both columns are numeric, so only their names tell them apart.
    with pytest.raises(FitError, match="column 0 is named 'b', but the model's is 'a'"):
        remap_dataset(forest, named(normal_ds, ["b", "a"]))
    with pytest.raises(FitError, match="column 1 is named 'c'"):
        remap_dataset(forest, named(normal_ds, ["a", "c"]))


@pytest.mark.parametrize("fit_names, names", [
    (["a", "b"], ["col0", "col1"]),
    (["col0", "col1"], ["b", "a"]),
], ids=["input positional", "model positional"])
def test_positional_default_names_match_by_position(normal_ds, fit_names, names):
    # A CSV read without a header names its columns col0, col1, ...; on
    # either side those names match whatever the other side calls the
    # columns at the same positions.
    forest = fit_forest(named(normal_ds, fit_names), ForestParams(n_trees=2, seed=1))
    assert remap_dataset(forest, named(normal_ds, names)).names == names


def two_split_tree(right_var=0, right_threshold=2.0):
    """x0 <= 0.5 goes left to a terminal; the right child splits again on
    column `right_var`."""
    right = NumericSplit(var=right_var, threshold=right_threshold, left_fraction=0.5,
                         left=Terminal(1.0), right=Terminal(1.0))
    return NumericSplit(var=0, threshold=0.5, left_fraction=0.5,
                        left=Terminal(2.0), right=right)


def one_tree(tree, n_cols=1):
    """A forest wrapping one hand-built tree over numeric columns."""
    schema = [{"name": f"x{j}", "kind": "numeric", "labels": None} for j in range(n_cols)]
    return Forest(params=ForestParams(n_trees=1), schema=schema, flat=compile_trees([tree]),
                  n_sub=2)


def descended(tree, ds, weighted, every_node=True):
    """(node, rows, weights) of each node the router reaches in a one-tree
    forest over `ds`, in node order, with each node's rows ascending."""
    flat = one_tree(tree, ds.n_cols).flat
    rows, nodes, w = descend(flat, ds, range(1), weighted, every_node)
    out = []
    for v in np.unique(nodes):
        at = np.flatnonzero(nodes == v)
        at = at[np.argsort(rows[at], kind="stable")]
        out.append((int(v), rows[at].tolist(), None if w is None else w[at].tolist()))
    return out


def leaf_order(forest, t, ds):
    """Rows of `ds` in the node order of where an unweighted descent of
    tree t ends them, as `descend` returns them."""
    return descend(forest.flat, ds, range(t, t + 1), False)[0]


def test_descend_reaches_nodes_in_pre_order():
    ds = numeric_dataset([[3.0, 0.0, 1.0, 0.2, 5.0]])
    tree = two_split_tree()
    flat = one_tree(tree).flat
    assert flat.kind.tolist() == [NUMERIC, TERMINAL, NUMERIC, TERMINAL, TERMINAL]
    assert flat.end.tolist() == [5, 2, 5, 4, 5]
    assert flat.depth.tolist() == [0, 1, 1, 2, 2]
    assert descended(tree, ds, False) == [
        (0, [0, 1, 2, 3, 4], None),
        (1, [1, 3], None),
        (2, [0, 2, 4], None),
        (3, [2], None),
        (4, [0, 4], None),
    ]
    assert leaf_order(one_tree(tree), 0, ds).tolist() == [1, 3, 2, 0, 4]


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
def test_leaf_order_is_a_permutation(normal_ds, kind, ndim):
    forest = fit_forest(normal_ds, ForestParams(n_trees=3, seed=4, model_kind=kind,
                                                ndim=ndim, subsample=64))
    for t in range(3):
        order = leaf_order(forest, t, normal_ds)
        assert np.array_equal(np.sort(order), np.arange(normal_ds.n_rows))


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
def test_descend_returns_triples_in_node_order(kind, ndim):
    ds = generate_scenario("mixed", 80, np.random.default_rng(3))["dataset"]
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=5, ndim=ndim, model_kind=kind))
    # A probe with missing cells and, in every third categorical cell, a
    # label the model never saw.
    cols = []
    for c in ds.take(np.arange(24)).columns:
        if c.kind == "categorical":
            codes = c.values.copy()
            codes[::3] = len(c.labels)
            c = Column(c.kind, codes, c.missing, c.labels + ["unseen"])
        cols.append(c)
    probe = remap_dataset(forest, Dataset(cols, list(ds.names)))
    assert any(c.missing.any() for c in probe.columns)
    for weighted, every_node in ((False, False), (True, False), (True, True)):
        rows, nodes, w = descend(forest.flat, probe, range(4), weighted, every_node)
        assert (np.diff(nodes) >= 0).all()
        # The same triples as each row descending alone.
        got = list(zip(rows.tolist(), nodes.tolist(), [None] * len(rows) if w is None
                       else w.tolist()))
        alone = []
        for i in range(probe.n_rows):
            _, v, x = descend(forest.flat, probe.take([i]), range(4), weighted, every_node)
            alone += zip([i] * len(v), v.tolist(), [None] * len(v) if x is None else x.tolist())
        assert len(set(got)) == len(got)
        assert set(got) == set(alone)


def trees_summed_with_weights(monkeypatch, forest, ds):
    """Indices of the trees `separation_matrix` sums by the weighted path."""
    seen = []
    real = distance._add_weighted
    monkeypatch.setattr(distance, "_add_weighted",
                        lambda flat, t, *args: seen.append(t) or real(flat, t, *args))
    separation_matrix(forest, ds)
    return seen


def test_unweighted_descent_ends_where_a_row_is_missing(monkeypatch):
    # Row 2 reaches the right split, whose column it lacks, together with
    # row 1: the tree needs both-branch weights.
    ds = numeric_dataset([[0.0, 3.0, 4.0], [1.0, 0.0, 0.0]],
                         missing=[[False] * 3, [False, False, True]])
    tree = two_split_tree(right_var=1, right_threshold=0.5)
    assert descended(tree, ds, False, every_node=False) == [
        (1, [0], None), (2, [2], None), (3, [1], None),
    ]
    # A weighted descent sends row 2 down both branches instead.
    assert descended(tree, ds, True)[3:] == [(3, [1, 2], [1.0, 0.5]), (4, [2], [0.5])]
    assert trees_summed_with_weights(monkeypatch, one_tree(tree, 2), ds) == [0]


def test_row_alone_at_a_split_stays_on_the_kernel(monkeypatch):
    # Row 1 reaches the right split alone and lacks its column: no other
    # row shares a node below with it, so the integer kernel sums the tree.
    ds = numeric_dataset([[0.0, 3.0, 0.2], [1.0, 0.0, 1.0]],
                         missing=[[False] * 3, [False, True, False]])
    tree = two_split_tree(right_var=1, right_threshold=0.5)
    forest = one_tree(tree, 2)
    assert descended(tree, ds, False, every_node=False) == [(1, [0, 2], None), (2, [1], None)]
    assert trees_summed_with_weights(monkeypatch, forest, ds) == []
    # Rows 0 and 2 share the left terminal at depth 1 (1 + 3), and each
    # parts from row 1 at the root (1).
    depth = np.array([1.0, 4.0, 1.0])
    assert np.array_equal(separation_matrix(forest, ds).values, 2.0 ** (-(depth - 1.0) / 2.0))


def leaf_depths(forest, t):
    """Depths of the terminals of tree t, in pre-order."""
    a, b = forest.flat.roots[t : t + 2]
    return forest.flat.depth[a:b][forest.flat.kind[a:b] == TERMINAL]


def recursive_leaf_depths(node, depth=0):
    if isinstance(node, Terminal):
        return [depth]
    return (recursive_leaf_depths(node.left, depth + 1)
            + recursive_leaf_depths(node.right, depth + 1))


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 3)], ids=["single", "extended"])
def test_leaf_depths_match_recursive_reference(kind, ndim):
    ds = generate_scenario("mixed", 150, np.random.default_rng(8))["dataset"]
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=9, model_kind=kind, ndim=ndim))
    for t, tree in enumerate(forest.trees):
        depths = leaf_depths(forest, t)
        assert depths.tolist() == recursive_leaf_depths(tree)
        assert 2 * len(depths) - 1 == sum(1 for _ in nodes(tree))


def split_columns(tree):
    """The column of every split of `tree`, each term of a hyperplane."""
    cols, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Terminal):
            continue
        cols += node.num_vars + node.cat_vars if isinstance(node, HyperplaneSplit) else [node.var]
        stack += [node.left, node.right]
    return np.array(cols)


def column_0_shares(tree, sd):
    """Per hyperplane of `tree` over column 0 and another numeric column,
    column 0's share of the scale-free coefficients |c_j| * sd[j]."""
    shares, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Terminal):
            continue
        stack += [node.left, node.right]
        if isinstance(node, HyperplaneSplit) and 0 in node.num_vars and len(node.num_vars) > 1:
            a = np.abs(node.num_coefs) * sd[node.num_vars]
            shares.append(a[node.num_vars.index(0)] / a.sum())
    return shares


def fit_statistics(fit, kind, ndim):
    """Per tree its node count, mean and greatest leaf depth and share of
    splits on column 0, per forest its mean distance and mean score, and
    per hyperplane column 0's share of the scale-free coefficients, of
    forests that `fit` grows on 20 seeds of each of three tables: t4
    complete, t4 with missing cells, and mixed."""
    out = {}
    for table, key in (("t4", "dataset"), ("t4", "na"), ("mixed", "dataset")):
        stat = {"nodes": [], "mean depth": [], "max depth": [], "column 0": [],
                "distance": [], "score": []}
        if kind == "extended":
            stat["column 0 weight"] = []
        for seed in range(20):
            ds = generate_scenario(table, 60, np.random.default_rng(seed))[key]
            sd = np.array([np.std(c.values[~c.missing]) for c in ds.columns])
            forest = fit(ds, ForestParams(n_trees=4, seed=seed, model_kind=kind, ndim=ndim))
            for t, tree in enumerate(forest.trees):
                depths = leaf_depths(forest, t)
                stat["nodes"].append(2 * len(depths) - 1)
                stat["mean depth"].append(depths.mean())
                stat["max depth"].append(depths.max())
                stat["column 0"].append(np.mean(split_columns(tree) == 0))
                if kind == "extended":
                    stat["column 0 weight"] += column_0_shares(tree, sd)
            stat["distance"].append(separation_matrix(forest, ds).values.mean())
            stat["score"].append(anomaly_scores(forest, ds).mean())
        out[f"{table}-{key}"] = stat
    return out


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
def test_fit_matches_recursive_grower_in_distribution(kind, ndim):
    # Level-wise fitting draws in another order than the recursive grower
    # it replaced, so fixed-seed forests differ; the distributions must
    # not.  Two-sided Mann-Whitney U per statistic: 80 trees, 20 forests
    # or all hyperplanes a side, refused below p = 0.001.
    level = fit_statistics(fit_forest, kind, ndim)
    recursive = fit_statistics(recursive_fit, kind, ndim)
    p = {
        (case, name): stats.mannwhitneyu(level[case][name], recursive[case][name]).pvalue
        for case in level
        for name in level[case]
    }
    print(kind, {k: round(float(v), 3) for k, v in p.items()})
    assert min(p.values()) >= 1e-3, p


@pytest.mark.parametrize("counts", [[1], [2], [3, 4], [1, 6, 2, 5], [7, 0, 8]])
def test_segment_medians_match_np_median(counts):
    rng = np.random.default_rng(len(counts))
    seg = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    # Small integers, so that segments hold tied values.
    vals = rng.integers(-3, 4, len(seg)) * 0.7
    got = _segment_medians(seg, vals, len(counts))
    for s, c in enumerate(counts):
        if c:
            assert got[s] == np.median(vals[seg == s])
        else:
            assert np.isnan(got[s])


# Columns for the eligible-column walk: each makes a column of `n` cells
# (values, missing mask) from a generator.
WALK_COLUMNS = {
    "numeric with missing cells": lambda r, n: (r.integers(-2, 3, n) * 0.5, r.random(n) < 0.3),
    "constant": lambda r, n: (np.full(n, 1.5), np.zeros(n, bool)),
    "constant with missing cells": lambda r, n: (np.full(n, -2.0), r.random(n) < 0.5),
    "all missing": lambda r, n: (np.zeros(n), np.ones(n, bool)),
    "one present label": lambda r, n: (np.full(n, 2.0), r.random(n) < 0.4),
    "labels with missing cells": lambda r, n: (r.integers(0, 3, n).astype(float),
                                               r.random(n) < 0.2),
}


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       columns=st.lists(st.sampled_from(sorted(WALK_COLUMNS)), min_size=1, max_size=5),
       sizes=st.lists(st.integers(2, 5), min_size=1, max_size=8),
       tied=st.booleans())
def test_least_key_column_matches_a_full_range_argmin(seed, columns, sizes, tied):
    # The walk ranges only the columns it reaches; it must pick the same
    # column and range as reducing every column and taking the least key
    # among those with >= 2 distinct known values.
    rng = np.random.default_rng(seed)
    n = 12
    X, miss = (np.stack(c, axis=1) for c in zip(*(WALK_COLUMNS[c](rng, n) for c in columns)))
    rows = rng.integers(0, n, sum(sizes))
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    keys = rng.random((len(sizes), len(columns)))
    if tied:  # ties go to the lower column
        keys = np.round(keys, 1)
    unknown = np.where(miss, np.nan, X)
    var, lo, hi, cells = forest_mod._least_key_column(unknown, rows, seg, starts, keys)

    want_lo = np.minimum.reduceat(np.where(miss, np.inf, X)[rows], starts, axis=0)
    want_hi = np.maximum.reduceat(np.where(miss, -np.inf, X)[rows], starts, axis=0)
    ranked = np.where(want_lo < want_hi, keys, 2.0)
    want = np.argmin(ranked, axis=1)
    ok = ranked.min(axis=1) < 2.0
    assert np.array_equal(lo < hi, ok)
    s = np.flatnonzero(ok)
    assert np.array_equal(var[s], want[s])
    assert np.array_equal(lo[s], want_lo[s, want[s]])
    assert np.array_equal(hi[s], want_hi[s, want[s]])
    assert np.array_equal(cells, unknown[rows, var[seg]], equal_nan=True)


def test_tree_deeper_than_the_recursion_limit(tmp_path):
    # A uniform threshold on a geometric column mostly splits off the top
    # row, so the tree is about as deep as the column is long.
    x = 2.0 ** np.linspace(-1070, 1020, 3000)
    ds = numeric_dataset([x])
    for kind in ("single", "extended"):
        forest = fit_forest(ds, ForestParams(n_trees=1, seed=0, model_kind=kind))
        assert forest.flat.depth.max() > sys.getrecursionlimit()
        assert_same_flat(compile_trees(forest.trees), forest.flat)
        scores = anomaly_scores(forest, ds)
        assert np.all((scores > 0) & (scores <= 1))
        path = tmp_path / f"{kind}.npz"
        save_model(forest, path)
        assert np.array_equal(anomaly_scores(load_model(path), ds), scores)


def with_unseen_codes(ds, every=5):
    """`ds` with every `every`-th categorical cell set to UNSEEN_CODE (-1),
    as `remap_dataset` writes a label the model never saw."""
    cols = [
        Column(c.kind, np.where(np.arange(ds.n_rows) % every == 0, -1, c.values), c.missing,
               c.labels) if c.kind == "categorical" else c
        for c in ds.columns
    ]
    return Dataset(cols, list(ds.names), ds.weights)


def batching_table(name):
    """(dataset, extra ForestParams) of one table the batching test fits."""
    t4 = generate_scenario("t4", 120, np.random.default_rng(1))
    mixed = generate_scenario("mixed", 150, np.random.default_rng(2))["dataset"]
    return {
        "complete": (t4["dataset"], {}),
        "missing cells": (t4["na"], {}),
        "unseen codes": (with_unseen_codes(mixed), {}),
        "mixed max_depth": (mixed, {"max_depth": 3}),
        "mixed subsample": (mixed, {"subsample": 40}),
        "deeper than the recursion limit": (
            numeric_dataset([2.0 ** np.linspace(-1070, 1020, 3000)]), {}),
    }[name]


def model_digest(forest, path):
    """The sha256 of `forest` as `save_model` writes it."""
    save_model(forest, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
@pytest.mark.parametrize("table", ["complete", "missing cells", "unseen codes", "mixed max_depth",
                                   "mixed subsample", "deeper than the recursion limit"])
def test_batched_trees_equal_trees_grown_alone(monkeypatch, tmp_path, table, kind, ndim):
    # Each tree draws from its own stream in the same order however many
    # trees grow together, so batching leaves every tree as it is.
    ds, extra = batching_table(table)
    params = ForestParams(n_trees=3, seed=4, model_kind=kind, ndim=ndim, **extra)
    assert params.n_trees * ds.n_rows * ds.n_cols <= forest_mod.GROW_CELLS  # one batch
    digests = [model_digest(fit_forest(ds, params), tmp_path / "model.json")]
    n_sub = ds.n_rows if params.subsample is None else params.subsample
    # One tree at a time, then two at a time and the last alone.
    for budget in (1, 2 * n_sub * ds.n_cols):
        monkeypatch.setattr(forest_mod, "GROW_CELLS", budget)
        digests.append(model_digest(fit_forest(ds, params), tmp_path / "model.json"))
    assert digests[1] == digests[0]
    assert digests[2] == digests[0]


# The sha256 of each batching table's model file, fitted with n_trees=3,
# seed=4: fixed-seed forests must not drift while the random stream is
# unchanged.
FOREST_DIGESTS = {
    ("complete", "single"):
        "44d7fb34af0e49253486653f0e43e16578de35fc496031f41f46ee24a8fd0f34",
    ("complete", "extended"):
        "23dd3a31469e9299f42e550ade03ff4acb7d5975033935ea4db8888315b237fa",
    ("missing cells", "single"):
        "72b268d5fef01dcb0bbdc49d244923a254eb81c882b0b13bb1ea2de067d94c53",
    ("missing cells", "extended"):
        "07e5d78695a56d6e46efd15de095de6233b2e68627b6a7437c2e4aa6532dc34b",
    ("unseen codes", "single"):
        "29b5ba95d43b6e6db97ca92be95b6ecc84adb92c1e1d0187a827e43f7f7f93ed",
    ("unseen codes", "extended"):
        "3c7c5550da28b768c72791569c410c58f975eee2fb43c965e4cf36432fd71061",
    ("mixed max_depth", "single"):
        "2ce4164f457edde0a85fe5668e034e7b75e1b62182c18f14eab7d1e9b43905a5",
    ("mixed max_depth", "extended"):
        "1a4953925668b717b67e19b1eaf1a9d3071af14ad52c51a4e8b22803c14042b2",
    ("mixed subsample", "single"):
        "d93a49a3c95ec46f3ef44334168ea511394d98f513fe9d61e4f25c217755f57d",
    ("mixed subsample", "extended"):
        "0be927372b803285c3b3d53190eff69cb6fb625fdd8b6da83d2c03635413d0e5",
    ("deeper than the recursion limit", "single"):
        "166373d14c7a56a3b6b2ec60b1ceeeef6398fedfe30fd763d96fea7c45cfa573",
    ("deeper than the recursion limit", "extended"):
        "70f56f9fe57a2c02de1f678c2fcd47275cd8728a669e4cf80c922414b1a4941c",
}


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
@pytest.mark.parametrize("table", ["complete", "missing cells", "unseen codes", "mixed max_depth",
                                   "mixed subsample", "deeper than the recursion limit"])
def test_fixed_seed_forests_keep_their_digest(tmp_path, table, kind, ndim):
    ds, extra = batching_table(table)
    forest = fit_forest(ds, ForestParams(n_trees=3, seed=4, model_kind=kind, ndim=ndim, **extra))
    assert model_digest(forest, tmp_path / "model.npz") == FOREST_DIGESTS[table, kind]


def test_library_never_builds_the_node_view(monkeypatch, tmp_path):
    # Fitting, the model file, distances, scores and the CLI all read the
    # arrays; `Forest.trees` is only for code that walks nodes.
    def refuse(*args):
        raise AssertionError("the node view was built")

    monkeypatch.setattr(forest_mod, "_tree", refuse)
    weighted = []
    real = distance._add_weighted
    monkeypatch.setattr(distance, "_add_weighted", lambda *a: weighted.append(1) or real(*a))
    t4 = generate_scenario("t4", 60, np.random.default_rng(3))
    complete, missing = t4["dataset"], t4["na"]
    path = tmp_path / "model.npz"
    for kind, ndim in (("single", 1), ("extended", 2)):
        save_model(fit_forest(missing, ForestParams(n_trees=4, seed=1, model_kind=kind,
                                                    ndim=ndim)), path)
        forest = load_model(path)
        separation_matrix(forest, complete)
        separation_matrix(forest, missing)
        anomaly_scores(forest, missing)
        pair_distance(forest, missing, 0, 1)
    assert weighted  # the single model's trees on missing cells
    csv = tmp_path / "data.csv"
    write_csv(missing, csv)
    out = str(tmp_path / "out.csv")
    assert cli.main(["fit", "--input", str(csv), "--trees", "3", "--output", str(path)]) == 0
    for command in ("dist", "score"):
        assert cli.main([command, "--input", str(csv), "--model-file", str(path),
                         "--output", out]) == 0


@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
@pytest.mark.parametrize("table", ["complete", "missing cells", "unseen codes"])
def test_loaded_model_equals_the_saved_forest(tmp_path, table, kind, ndim):
    ds, _ = batching_table(table)
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=6, model_kind=kind, ndim=ndim))
    path = tmp_path / "model.npz"
    save_model(forest, path)
    saved = path.read_bytes()
    loaded = load_model(path)
    # The loaded arrays, and the node view compiled again.
    assert_same_flat(loaded.flat, forest.flat)
    assert_same_flat(compile_trees(loaded.trees), forest.flat)
    assert np.array_equal(anomaly_scores(loaded, ds), anomaly_scores(forest, ds))
    assert np.array_equal(separation_matrix(loaded, ds).values,
                          separation_matrix(forest, ds).values)
    # The bytes are reproducible: the forest saved again, and the loaded
    # model saved, give the same file.
    save_model(forest, path)
    assert path.read_bytes() == saved
    save_model(loaded, path)
    assert path.read_bytes() == saved


def test_load_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 100000)
    with pytest.raises(ModelFormatError, match=str(path)):
        load_model(path)


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """The bytes of small saved single and extended models over a mixed
    table with missing cells, and a path to write mutants to."""
    ds = generate_scenario("mixed", 10, np.random.default_rng(4))["dataset"]
    out = {"path": tmp_path_factory.mktemp("fuzz") / "model.json"}
    for kind, ndim in (("single", 1), ("extended", 2)):
        save_model(fit_forest(ds, ForestParams(n_trees=2, seed=1, model_kind=kind,
                                               ndim=ndim)), out["path"])
        out[kind] = out["path"].read_bytes()
    return out


@settings(max_examples=300)
@given(
    kind=st.sampled_from(["single", "extended"]),
    # An offset into the header entry (its zip and .npy headers, then the
    # params and schema), which comes first, or a fraction of the file.
    at=st.integers(0, 511) | st.floats(0, 1, exclude_max=True),
    byte=st.none() | st.sampled_from(b'0-9."[]{}:,etfnx ()<\'') | st.integers(0, 255),
)
def test_mutated_model_loads_or_raises_model_format_error(small_models, kind, at, byte):
    # byte None truncates the file at `at`; otherwise one byte there changes.
    data = small_models[kind]
    pos = at if isinstance(at, int) else int(at * len(data))
    mutant = data[:pos] if byte is None else data[:pos] + bytes([byte]) + data[pos + 1:]
    small_models["path"].write_bytes(mutant)
    try:
        load_model(small_models["path"])
    except ModelFormatError:
        pass


def forms_trees(kind, roots):
    """Whether each [roots[t], roots[t + 1]) of `kind` is one pre-order
    tree: its running count of splits less terminals stays >= 0 before
    its last node and reaches -1 there."""
    for a, b in zip(roots, roots[1:]):
        run = np.cumsum(np.where(kind[a:b] == TERMINAL, -1, 1))
        if run[-1] != -1 or (run[:-1] < 0).any():
            return False
    return True


def pre_order_tree(kinds):
    """The node kinds of one pre-order tree: `kinds` in turn while a child
    is left to place, then terminals for the children still open."""
    out, open_children = [], 1
    for k in kinds:
        if not open_children:
            break
        out.append(k)
        open_children += 1 if k != TERMINAL else -1
    return out + [TERMINAL] * open_children


SINGLE_KINDS = st.sampled_from([TERMINAL, NUMERIC, CATEGORICAL])


@settings(max_examples=300)
@given(
    trees=st.lists(st.lists(SINGLE_KINDS, max_size=12), min_size=1, max_size=4),
    # Nodes set to another kind, each at a fraction of the node count.
    edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), SINGLE_KINDS), max_size=8),
    # Tree starts at fractions of the node count, in place of the trees'.
    cuts=st.none() | st.lists(st.floats(0, 1, exclude_max=True), max_size=5),
)
def test_random_node_kinds_load_or_raise_model_format_error(model_files, small_models, trees,
                                                           edits, cuts):
    # Every other entry is consistent with the kinds, so a file loads iff
    # its nodes form trees, and then with each tree's stack-walk shape.
    kinds = [pre_order_tree(tree) for tree in trees]
    kind = np.array([k for tree in kinds for k in tree], dtype=np.int8)
    n = len(kind)
    roots = np.cumsum([0] + [len(tree) for tree in kinds])
    for at, k in edits:
        kind[int(at * n)] = k
    if cuts is not None:
        roots = np.unique([0, n] + [1 + int(c * (n - 1)) for c in cuts])
    arrays, header = copy.deepcopy(model_files["single"])
    header["params"]["n_trees"] = len(roots) - 1
    arrays.update(
        roots=roots.astype(np.int64), kind=kind,
        var=np.where(kind == CATEGORICAL, 1, 0).astype(np.int32),
        threshold=np.zeros(n), left_fraction=np.full(n, 0.5),
        size=np.where(kind == TERMINAL, 1.0, 0.0),
        sides=np.zeros((np.count_nonzero(kind == CATEGORICAL), 2, 4), dtype=bool))
    path = small_models["path"]
    write_model(path, arrays, header)
    if not forms_trees(kind, roots):
        with pytest.raises(ModelFormatError,
                           match=f"{re.escape(str(path))}: the nodes do not form trees"):
            load_model(path)
        return
    flat = load_model(path).flat
    for a, b in zip(roots[:-1].tolist(), roots[1:].tolist()):
        end, depth = stack_walk(kind[a:b])
        assert np.array_equal(flat.end[a:b], end + a)
        assert np.array_equal(flat.depth[a:b], depth)


@pytest.mark.parametrize("enabled", [True, False])
def test_fit_and_load_leave_the_collector_as_they_found_it(tmp_path, normal_ds, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        forest = fit_forest(normal_ds, ForestParams(n_trees=3, seed=1))
        assert gc.isenabled() is enabled
        save_model(forest, tmp_path / "model.npz")
        load_model(tmp_path / "model.npz")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
