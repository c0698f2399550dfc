import sys
import threading

import numpy as np
import pytest
from child import run_python
from model_file import read_model, write_model
from node_trees import compile_trees

from isodist import distance
from isodist.bench import generate_scenario
from isodist.data import Column, Dataset
from isodist.depth import standardize_isolation
from isodist.distance import (
    anomaly_scores,
    pair_distance,
    separation_matrix,
    tree_depth_sums,
)
from isodist.forest import (
    CategoricalSplit,
    FitError,
    Forest,
    ForestParams,
    NumericSplit,
    Terminal,
    fit_forest,
    save_model,
)


def numeric_dataset(arrays, missing=None):
    cols = []
    for i, a in enumerate(arrays):
        a = np.asarray(a, dtype=float)
        m = np.zeros(len(a), dtype=bool) if missing is None else np.asarray(missing[i])
        cols.append(Column("numeric", a, m))
    return Dataset(cols)


def hand_forest(trees, n_sub=2, schema=None):
    """Forest wrapping hand-built trees over one column (numeric by default)."""
    params = ForestParams(n_trees=len(trees), seed=0)
    schema = schema or [{"name": "x", "kind": "numeric", "labels": None}]
    return Forest(params=params, schema=schema, flat=compile_trees(trees), n_sub=n_sub)


def weighted_case(kind):
    """A one-split tree with b_l = 0.25 over three rows: row 0 goes left,
    row 1 right, and row 2 down both branches (missing cell, or a label the
    model never saw).  Left terminal holds 1 point, right terminal 2."""
    terminals = dict(left=Terminal(1.0), right=Terminal(2.0))
    if kind == "numeric":
        tree = NumericSplit(var=0, threshold=0.5, left_fraction=0.25, **terminals)
        ds = numeric_dataset([[0.0, 1.0, 0.0]], missing=[[False, False, True]])
        return hand_forest([tree]), ds
    tree = CategoricalSplit(
        var=0, left_set=np.array([True, False]), present=np.array([True, True]),
        left_fraction=0.25, **terminals,
    )
    schema = [{"name": "x", "kind": "categorical", "labels": ["a", "b"]}]
    col = Column("categorical", [0, 1, 2], np.zeros(3, dtype=bool), ["a", "b", "zebra"])
    return hand_forest([tree], schema=schema), Dataset([col], ["x"])


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(100)
    return numeric_dataset([rng.standard_normal(120), rng.standard_normal(120)])


@pytest.fixture(scope="module")
def cloud_forest(cloud):
    return fit_forest(cloud, ForestParams(n_trees=50, seed=9))


def test_pair_separated_at_root_every_tree():
    # Root threshold 0.5 splits the two rows apart: avg depth 1 -> distance 1.
    tree = NumericSplit(
        var=0, threshold=0.5, left_fraction=0.5,
        left=Terminal(1.0), right=Terminal(1.0),
    )
    ds = numeric_dataset([[0.0, 1.0]])
    m = separation_matrix(hand_forest([tree] * 4), ds)
    assert m[0, 1] == 1.0


def test_pair_into_terminal_below_root():
    # Root sends both rows left into a terminal: depth 1 + terminal bonus 3.
    tree = NumericSplit(
        var=0, threshold=5.0, left_fraction=0.5,
        left=Terminal(2.0), right=Terminal(1.0),
    )
    ds = numeric_dataset([[0.0, 1.0]])
    m = separation_matrix(hand_forest([tree]), ds)
    assert m[0, 1] == pytest.approx(2.0 ** (-1.5), abs=1e-15)


def test_separation_depth_counts_shared_nodes():
    # Three-level chain: rows 0/1 split only at the second level -> depth 2.
    deep = NumericSplit(
        var=0, threshold=0.5, left_fraction=0.5,
        left=Terminal(1.0), right=Terminal(1.0),
    )
    tree = NumericSplit(
        var=0, threshold=5.0, left_fraction=0.5,
        left=deep, right=Terminal(1.0),
    )
    ds = numeric_dataset([[0.0, 1.0]])
    D = tree_depth_sums(hand_forest([tree]), 0, ds)
    assert D[0, 1] == 2.0
    # A row counts only the nodes it shares with another row.
    assert np.array_equal(np.diag(D), [2.0, 2.0])


def test_tree_depth_sums_rejects_a_tree_index_out_of_range():
    tree = NumericSplit(var=0, threshold=0.5, left_fraction=0.5,
                        left=Terminal(1.0), right=Terminal(1.0))
    forest, ds = hand_forest([tree] * 2), numeric_dataset([[0.0, 1.0]])
    for t in (-1, 2):
        with pytest.raises(ValueError, match=rf"tree index {t} is outside range\(2\)"):
            tree_depth_sums(forest, t, ds)


@pytest.mark.parametrize("kind", ["numeric", "categorical"])
def test_both_branch_rows_carry_exact_weights(kind):
    forest, ds = weighted_case(kind)
    # Root: every pair once.  Left terminal: rows 0 and 2 (w 1, 0.25) add
    # 3*w_i*w_j; right terminal: rows 1 and 2 (w 1, 0.75) likewise.
    expected = np.array([
        [4.0, 1.0, 1.75],
        [1.0, 4.0, 3.25],
        [1.75, 3.25, 1.0 + 3 * 0.0625 + 3 * 0.5625],
    ])
    assert np.array_equal(tree_depth_sums(forest, 0, ds), expected)
    # Isolation depth: 1 + E[isolation among 1] = 1 on the left, 1 + 1 = 2
    # on the right, and 0.25*1 + 0.75*2 for the both-branch row.
    depths = np.array([1.0, 2.0, 1.75])
    assert np.array_equal(
        anomaly_scores(forest, ds), standardize_isolation(depths, forest.n_sub)
    )


def test_output_range_and_symmetry(cloud, cloud_forest):
    m = separation_matrix(cloud_forest, cloud)
    assert np.all(m.values > 0.0)
    assert np.all(m.values <= 1.0)
    sq = m.to_square()
    assert np.array_equal(sq, sq.T)
    assert np.all(np.diag(sq) == 0.0)


def test_integer_depth_sums_without_missing(cloud, cloud_forest):
    for t in range(5):
        D = tree_depth_sums(cloud_forest, t, cloud)
        iu = np.triu_indices(cloud.n_rows, k=1)
        assert np.allclose(D[iu], np.round(D[iu]), atol=1e-9)
        assert np.all(D[iu] >= 1.0)


def test_ultrametric_triples_exact(cloud, cloud_forest):
    rng = np.random.default_rng(3)
    tri = rng.choice(cloud.n_rows, size=(200, 3))
    tri = tri[
        (tri[:, 0] != tri[:, 1]) & (tri[:, 1] != tri[:, 2]) & (tri[:, 0] != tri[:, 2])
    ]
    for t in range(10):
        D = tree_depth_sums(cloud_forest, t, cloud)
        s = np.sort(
            np.stack([D[tri[:, 0], tri[:, 1]], D[tri[:, 1], tri[:, 2]],
                      D[tri[:, 0], tri[:, 2]]]),
            axis=0,
        )
        assert np.array_equal(s[0], s[1])


def test_per_tree_transformed_distance_triangle(cloud, cloud_forest):
    # The per-tree standardized distance is an ultrametric, hence a metric:
    # the two LARGEST transformed distances of a triple are equal.
    rng = np.random.default_rng(4)
    tri = rng.choice(cloud.n_rows, size=(200, 3))
    tri = tri[
        (tri[:, 0] != tri[:, 1]) & (tri[:, 1] != tri[:, 2]) & (tri[:, 0] != tri[:, 2])
    ]
    for t in range(10):
        D = tree_depth_sums(cloud_forest, t, cloud)
        d = 2.0 ** (-(D - 1.0) / 2.0)
        ab = d[tri[:, 0], tri[:, 1]]
        bc = d[tri[:, 1], tri[:, 2]]
        ac = d[tri[:, 0], tri[:, 2]]
        assert np.all(ac <= ab + bc)
        assert np.all(ab <= ac + bc)
        assert np.all(bc <= ab + ac)


def test_pair_distance_identical_rows_zero(cloud_forest):
    ds = numeric_dataset([[1.5, 1.5], [0.25, 0.25]])
    assert pair_distance(cloud_forest, ds, 0, 1) == 0.0


def test_pair_distance_matches_matrix_entry(cloud, cloud_forest):
    m = separation_matrix(cloud_forest, cloud)
    rng = np.random.default_rng(8)
    for _ in range(20):
        i, j = rng.choice(cloud.n_rows, size=2, replace=False)
        assert pair_distance(cloud_forest, cloud, int(i), int(j)) == m[int(i), int(j)]


def test_third_point_independence(cloud, cloud_forest):
    # Removing other rows leaves a pair's matrix entry bit-identical.
    m_full = separation_matrix(cloud_forest, cloud)
    sub = cloud.take([3, 77, 11])
    m_sub = separation_matrix(cloud_forest, sub)
    assert m_sub[0, 1] == m_full[3, 77]
    assert m_sub[0, 2] == m_full[3, 11]
    assert m_sub[1, 2] == m_full[77, 11]


@pytest.mark.parametrize("table", ["cloud", "t4-na"])
@pytest.mark.parametrize("kind, ndim", [("single", 1), ("extended", 2)], ids=["single", "extended"])
def test_scale_equivariance_bit_identical(cloud, kind, ndim, table):
    # t4-na: five correlated columns with 15% of cells missing.
    ds = cloud if table == "cloud" else generate_scenario("t4", 120, np.random.default_rng(4))["na"]
    transformed = numeric_dataset(
        [100.0 * c.values + 7.0 for c in ds.columns], [c.missing for c in ds.columns]
    )
    params = ForestParams(n_trees=30, seed=77, model_kind=kind, ndim=ndim)
    m1 = separation_matrix(fit_forest(ds, params), ds)
    m2 = separation_matrix(fit_forest(transformed, params), transformed)
    assert np.array_equal(m1.values, m2.values)


def test_duplicate_rows_expand_with_zero_distance(cloud_forest):
    ds = numeric_dataset([[1.0, 2.0, 1.0], [3.0, 4.0, 3.0]])
    m = separation_matrix(cloud_forest, ds)
    assert m[0, 2] == 0.0
    assert m[0, 1] > 0.0
    assert m[0, 1] == m[2, 1]


def test_all_rows_identical_gives_zero_matrix(cloud_forest):
    ds = numeric_dataset([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    m = separation_matrix(cloud_forest, ds)
    assert np.all(m.values == 0.0)


def test_matrix_needs_two_rows(cloud_forest):
    ds = numeric_dataset([[1.0], [2.0]])
    with pytest.raises(FitError):
        separation_matrix(cloud_forest, ds)


def test_memory_guard_refuses_before_allocating(monkeypatch, cloud, cloud_forest):
    def accumulate(*args):
        raise AssertionError("accumulators allocated")

    monkeypatch.setattr(distance, "_available_bytes", lambda: 1000)
    monkeypatch.setattr(distance, "_tree_sums", accumulate)
    # 20 bytes x 120^2 cells + 20 bytes x 120^2 cells of one block of the
    # sparse product (all 120 rows) + 8 bytes x 7140 condensed cells,
    # whatever `threads` says.
    with pytest.raises(FitError, match="needs about 633120 bytes, but 1000 bytes"):
        separation_matrix(cloud_forest, cloud, threads=2)


def test_missing_rows_traverse_both_branches(cloud_forest):
    # A prediction row missing every column still gets a finite distance.
    vals = np.array([0.0, 1.0])
    miss = np.array([False, True])
    ds = numeric_dataset([vals, vals], missing=[miss, miss])
    d = separation_matrix(cloud_forest, ds)[0, 1]
    assert 0.0 < d <= 1.0


def test_threaded_distance_matches_serial(cloud, cloud_forest):
    a = separation_matrix(cloud_forest, cloud, threads=1)
    b = separation_matrix(cloud_forest, cloud, threads=4)
    assert np.array_equal(a.values, b.values)


def test_separation_matrix_starts_no_thread(monkeypatch, cloud, cloud_forest):
    def start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    separation_matrix(cloud_forest, cloud, threads=4)


def test_anomaly_scores_range_and_expectation(cloud, cloud_forest):
    scores = anomaly_scores(cloud_forest, cloud)
    assert scores.shape == (cloud.n_rows,)
    assert np.all((scores > 0.0) & (scores <= 1.0))
    # typical points sit near or below the 0.5 expectation
    assert np.median(scores) < 0.6


def test_outlier_scores_highest(cloud):
    vals0 = np.append(cloud.columns[0].values, 10.0)
    vals1 = np.append(cloud.columns[1].values, 10.0)
    ds = numeric_dataset([vals0, vals1])
    forest = fit_forest(ds, ForestParams(n_trees=100, seed=5))
    scores = anomaly_scores(forest, ds)
    assert scores.argmax() == len(vals0) - 1


def test_extended_scores_and_distances():
    rng = np.random.default_rng(12)
    ds = numeric_dataset([rng.standard_normal(100), rng.standard_normal(100)])
    forest = fit_forest(
        ds, ForestParams(n_trees=40, seed=2, model_kind="extended", ndim=2)
    )
    m = separation_matrix(forest, ds)
    assert np.all((m.values > 0) & (m.values <= 1))
    scores = anomaly_scores(forest, ds)
    assert np.all((scores > 0) & (scores <= 1))


def test_scores_in_row_blocks_equal_one_block(monkeypatch):
    rng = np.random.default_rng(8)
    ds = generate_scenario("mixed", 300, rng)["dataset"]
    forest = fit_forest(ds, ForestParams(n_trees=6, seed=4))
    whole = anomaly_scores(forest, ds)
    monkeypatch.setattr(distance, "ROUTE_TRIPLES", 6 * 7)  # blocks of 7 rows
    assert np.array_equal(anomaly_scores(forest, ds), whole)


needs_proc = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc/self/status")


@needs_proc
def test_scoring_memory_does_not_grow_with_the_table():
    # Scoring 20,000 rows through 50 trees at once held about 100 MB of
    # (row, node, weight) triples; in row blocks it needs under 10 MB.
    proc = run_python("""
        import numpy as np
        from isodist import ForestParams, anomaly_scores, fit_forest
        from isodist.data import Column, Dataset

        rng = np.random.default_rng(0)
        n = 20_000
        ds = Dataset([Column("numeric", rng.standard_normal(n), np.zeros(n, bool))
                      for _ in range(2)])
        forest = fit_forest(ds.take(np.arange(2000)),
                            ForestParams(n_trees=50, subsample=256, seed=1))
        anomaly_scores(forest, ds.take(np.arange(100)))  # compiles the forest
        limit_memory(48)
        scores = anomaly_scores(forest, ds)
        assert scores.shape == (n,)
    """)
    assert proc.returncode == 0, proc.stderr


@needs_proc
def test_huge_subsample_size_loads_and_scores_quickly(tmp_path):
    # A header without a subsample parameter does not bound `n_sub`; the
    # expected isolation depth among 10^9 rows must not be summed term by
    # term.
    ds = numeric_dataset([np.arange(10.0)])
    path = tmp_path / "model.npz"
    save_model(fit_forest(ds, ForestParams(n_trees=3, seed=0)), path)
    arrays, header = read_model(path)
    assert header["params"]["subsample"] is None
    header["n_sub"] = 10**9
    write_model(path, arrays, header)
    proc = run_python(f"""
        import time
        import numpy as np
        from isodist import anomaly_scores, load_model
        from isodist.data import Column, Dataset

        limit_memory(64)
        t = time.perf_counter()
        scores = anomaly_scores(load_model({str(path)!r}),
                                Dataset([Column("numeric", np.arange(10.0), np.zeros(10, bool))]))
        assert np.all((scores > 0) & (scores <= 1))
        print(time.perf_counter() - t)
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.5
