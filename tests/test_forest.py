import json

import numpy as np
import pytest

from isodist.data import Column, Dataset
from isodist.distance import separation_matrix
from isodist.forest import (
    CategoricalSplit,
    FitError,
    ForestParams,
    HyperplaneSplit,
    ModelFormatError,
    NumericSplit,
    Terminal,
    _draw_threshold,
    fit_forest,
    load_model,
    remap_dataset,
    route,
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


def walk(node):
    yield node
    if getattr(node, "left", None) is not None:
        yield from walk(node.left)
        yield from walk(node.right)


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
        for node in walk(tree):
            if isinstance(node, Terminal):
                assert node.size == pytest.approx(1.0)


def test_numeric_threshold_strictly_inside_range(normal_ds):
    forest = fit_forest(normal_ds, ForestParams(n_trees=5, seed=3))
    lo = min(c.values.min() for c in normal_ds.columns)
    hi = max(c.values.max() for c in normal_ds.columns)
    for tree in forest.trees:
        for node in walk(tree):
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
        for node in walk(tree):
            if isinstance(node, CategoricalSplit):
                seen_cat += 1
                n_left = node.left_set.sum()
                n_present = node.present.sum()
                assert 0 < n_left < n_present
                assert not (node.left_set & ~node.present).any()
    assert seen_cat > 0


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

    def check(node, idx, w):
        if isinstance(node, Terminal) or len(idx) == 0:
            return
        il, wl, ir, wr = route(node, ds, idx, w)
        # conservation up to the 1e-8 weight floor drops
        assert wl.sum() + wr.sum() == pytest.approx(w.sum(), abs=1e-6)
        check(node.left, il, wl)
        check(node.right, ir, wr)

    for tree in forest.trees:
        check(tree, np.arange(100), np.ones(100))


def test_terminal_rowsets_partition_subsample(normal_ds):
    # Fully observed data: each row lands in exactly one terminal.
    forest = fit_forest(normal_ds, ForestParams(n_trees=3, seed=8))
    for tree in forest.trees:
        seen = []

        def collect(node, idx, w):
            if isinstance(node, Terminal):
                seen.extend(idx.tolist())
                return
            il, wl, ir, wr = route(node, normal_ds, idx, w)
            collect(node.left, il, wl)
            collect(node.right, ir, wr)

        collect(tree, np.arange(200), np.ones(200))
        assert sorted(seen) == list(range(200))


def test_overflowing_range_still_splits():
    # hi - lo overflows to inf; the threshold is drawn in halved space.
    ds = numeric_dataset([[-1e308, -1.0, 0.0, 1.0, 1e308]])
    forest = fit_forest(ds, ForestParams(n_trees=10, seed=0))
    assert all(isinstance(tree, NumericSplit) for tree in forest.trees)
    assert not np.all(separation_matrix(forest, ds).values == 0.5)
    # A finite range keeps the plain formula, so fitted models do not change.
    z = _draw_threshold(np.random.default_rng(3), -2.0, 5.0)
    assert z == -2.0 + np.random.default_rng(3).random() * 7.0


def test_affine_equivariant_structure(normal_ds):
    transformed = numeric_dataset(
        [100.0 * c.values + 7.0 for c in normal_ds.columns]
    )
    params = ForestParams(n_trees=10, seed=21)
    f1 = fit_forest(normal_ds, params)
    f2 = fit_forest(transformed, params)
    for t1, t2 in zip(f1.trees, f2.trees):
        for n1, n2 in zip(walk(t1), walk(t2)):
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
        for node in walk(tree):
            if isinstance(node, HyperplaneSplit) and node.num_vars and node.cat_vars:
                mixed += 1
    assert mixed > 0


def test_extended_constant_rows_terminate():
    ds = numeric_dataset([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    with pytest.raises(FitError):
        fit_forest(ds, ForestParams(n_trees=2, model_kind="extended", ndim=2))


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
    path = tmp_path / "model.json"
    save_model(forest, path)
    path.write_text(path.read_text()[:-30])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_wrong_version_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ModelFormatError):
        load_model(path)


def json_nodes(obj):
    yield obj
    if obj["type"] != "terminal":
        yield from json_nodes(obj["left"])
        yield from json_nodes(obj["right"])


def first_node(doc, kind, pred=lambda node: True):
    return next(
        node
        for tree in doc["trees"]
        for node in json_nodes(tree)
        if node["type"] == kind and pred(node)
    )


@pytest.fixture(scope="module")
def model_docs(tmp_path_factory):
    """Saved single and extended models over a numeric and a 4-label
    categorical column, as parsed JSON documents."""
    rng = np.random.default_rng(23)
    n = 80
    ds = Dataset(
        [
            Column("numeric", rng.standard_normal(n), rng.random(n) < 0.1),
            Column("categorical", rng.integers(0, 4, size=n), np.zeros(n, bool),
                   list("abcd")),
        ]
    )
    docs = {}
    for kind, ndim in (("single", 1), ("extended", 2)):
        path = tmp_path_factory.mktemp(kind) / "model.json"
        params = ForestParams(n_trees=4, seed=3, model_kind=kind, ndim=ndim)
        save_model(fit_forest(ds, params), path)
        docs[kind] = json.loads(path.read_text())
    return docs


MUTATIONS = {
    "var outside schema": ("single", lambda d: first_node(d, "num").update(var=7)),
    "numeric split on categorical column": (
        "single", lambda d: first_node(d, "num").update(var=1)),
    "label count differs from schema": (
        "single", lambda d: first_node(d, "cat").update(n_labels=5)),
    "node type not in model kind": (
        "single", lambda d: d["params"].update(model_kind="extended")),
    "hyperplane lists differ in length": (
        "extended", lambda d: first_node(d, "hyp")["num_imputes"].append(0.5)),
    "hyperplane label count differs from schema": (
        "extended",
        lambda d: first_node(d, "hyp", lambda n: n["cat_vars"])["cat_sizes"]
        .__setitem__(0, 5)),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_load_rejects_model_inconsistent_with_schema(tmp_path, model_docs, mutation):
    kind, mutate = MUTATIONS[mutation]
    doc = json.loads(json.dumps(model_docs[kind]))
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
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
