import numpy as np
import pytest

from isodist.data import (
    Column,
    DataError,
    Dataset,
    column_stats,
    deduplicate,
    load_csv,
    load_schema_sidecar,
    write_csv,
)


def make_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_numeric_and_categorical(tmp_path):
    path = make_csv(tmp_path, "a,b\n1.5,x\n,y\n")
    ds = load_csv(path)
    assert ds.n_rows == 2
    assert ds.columns[0].kind == "numeric"
    assert ds.columns[1].kind == "categorical"
    assert ds.columns[0].missing[1]
    assert not ds.columns[1].missing.any()
    assert ds.columns[1].labels == ["x", "y"]


def test_zero_one_column_with_categorical_hint(tmp_path):
    path = make_csv(tmp_path, "flag\n0\n1\n0\n")
    ds = load_csv(path, schema={"flag": "categorical"})
    col = ds.columns[0]
    assert col.kind == "categorical"
    assert len(col.labels) == 2


def test_autodetect_requires_all_cells_numeric(tmp_path):
    path = make_csv(tmp_path, "a\n1\n2\nx\n")
    ds = load_csv(path)
    assert ds.columns[0].kind == "categorical"


def test_missing_tokens(tmp_path):
    path = make_csv(tmp_path, "a\n1\nNA\n?\n")
    ds = load_csv(path, missing_tokens=("", "NA", "?"))
    assert ds.columns[0].kind == "numeric"
    assert ds.columns[0].missing.tolist() == [False, True, True]


def test_mixed_hypothyroid_style(tmp_path):
    path = make_csv(
        tmp_path,
        "age,on_thyroxine,referral\n72,f,SVHC\n15,t,other\n,f,other\n",
    )
    ds = load_csv(path)
    kinds = [c.kind for c in ds.columns]
    assert kinds == ["numeric", "categorical", "categorical"]
    assert ds.columns[0].missing[2]


def test_malformed_row_reports_index(tmp_path):
    path = make_csv(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf"])
def test_infinite_numeric_cell_rejected(tmp_path, cell):
    path = make_csv(tmp_path, f"a,b\n1,x\n2,y\n{cell},z\n")
    with pytest.raises(DataError, match="column 'a': row 2"):
        load_csv(path)
    with pytest.raises(DataError):
        Column("numeric", np.array([1.0, float(cell)]), np.zeros(2, dtype=bool))


def test_empty_file_rejected(tmp_path):
    path = make_csv(tmp_path, "")
    with pytest.raises(DataError):
        load_csv(path)


def test_header_optional(tmp_path):
    path = make_csv(tmp_path, "1,2\n3,4\n")
    ds = load_csv(path, has_header=False)
    assert ds.n_rows == 2
    assert ds.names == ["col0", "col1"]


def test_round_trip(tmp_path):
    path = make_csv(tmp_path, "a,b,c\n1.5,x,\n-0.25,y,7\n,x,0.125\n")
    ds = load_csv(path)
    out = tmp_path / "out.csv"
    write_csv(ds, out)
    ds2 = load_csv(out)
    for c1, c2 in zip(ds.columns, ds2.columns):
        assert c1.kind == c2.kind
        assert np.array_equal(c1.missing, c2.missing)
        known = ~c1.missing
        assert np.array_equal(c1.values[known], c2.values[known])
        assert c1.labels == c2.labels


def test_schema_sidecar(tmp_path):
    sidecar = tmp_path / "schema.json"
    sidecar.write_text('{"a": "categorical"}')
    schema = load_schema_sidecar(sidecar)
    path = make_csv(tmp_path, "a\n1\n2\n")
    ds = load_csv(path, schema=schema)
    assert ds.columns[0].kind == "categorical"
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": "integer"}')
    with pytest.raises(DataError):
        load_schema_sidecar(bad)


def test_column_stats_basic():
    col = Column("numeric", np.array([1.0, 2.0, 3.0]), np.zeros(3, dtype=bool))
    st = column_stats(col, [0, 1, 2])
    assert (st.min, st.max, st.median) == (1.0, 3.0, 2.0)
    assert st.n_present == 3


def test_column_stats_even_count_median():
    col = Column("numeric", np.arange(1.0, 5.0), np.zeros(4, dtype=bool))
    assert column_stats(col, [0, 1, 2, 3]).median == 2.5


def test_column_stats_with_missing():
    col = Column("numeric", np.array([5.0, 0.0]), np.array([False, True]))
    st = column_stats(col, [0, 1])
    assert st.n_present == 1
    assert st.min == st.max == st.median == 5.0


def test_column_stats_all_missing():
    col = Column("numeric", np.zeros(2), np.ones(2, dtype=bool))
    assert column_stats(col, [0, 1]).n_present == 0


def test_column_stats_permutation_invariant():
    rng = np.random.default_rng(0)
    col = Column("numeric", rng.standard_normal(20), rng.random(20) < 0.3)
    a = column_stats(col, np.arange(20))
    b = column_stats(col, rng.permutation(20))
    assert (a.min, a.max, a.median, a.n_present) == (b.min, b.max, b.median, b.n_present)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.std == pytest.approx(b.std, rel=1e-12)


def _two_col_dataset(values, missing):
    cols = [
        Column("numeric", np.array(v, dtype=float), np.array(m))
        for v, m in zip(values, missing)
    ]
    return Dataset(cols)


def test_deduplicate_distinct_rows_identity():
    ds = _two_col_dataset(
        [[1.0, 2.0, 3.0]], [[False, False, False]]
    )
    out, gmap = deduplicate(ds)
    assert out.n_rows == 3
    assert gmap.tolist() == [0, 1, 2]
    assert np.array_equal(out.weights, ds.weights)


def test_deduplicate_merges_exact_duplicates():
    ds = _two_col_dataset([[1.0, 1.0, 2.0]], [[False, False, False]])
    out, gmap = deduplicate(ds)
    assert out.n_rows == 2
    assert gmap.tolist() == [0, 0, 1]
    assert out.weights.tolist() == [2.0, 1.0]


def test_deduplicate_respects_missingness_pattern():
    ds = _two_col_dataset([[1.0, 1.0]], [[False, True]])
    out, _ = deduplicate(ds)
    assert out.n_rows == 2


def test_deduplicate_preserves_total_weight():
    rng = np.random.default_rng(4)
    vals = rng.integers(0, 3, size=50).astype(float)
    ds = _two_col_dataset([vals], [np.zeros(50, dtype=bool)])
    ds.weights = rng.random(50) + 0.5
    out, _ = deduplicate(ds)
    assert out.weights.sum() == pytest.approx(ds.weights.sum(), abs=1e-12)


def test_weights_must_be_positive():
    with pytest.raises(DataError):
        Dataset(
            [Column("numeric", np.array([1.0, 2.0]), np.zeros(2, dtype=bool))],
            weights=np.array([1.0, 0.0]),
        )
