import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodist.bench import generate_scenario
from isodist.data import (
    Column,
    DataError,
    Dataset,
    deduplicate,
    load_csv,
    load_schema_sidecar,
    row_keys,
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


@pytest.mark.parametrize("schema", [{"b": "numeric"}, {2: "categorical"}, {"0": "numeric"}])
def test_schema_key_must_name_a_column(tmp_path, schema):
    path = make_csv(tmp_path, "a,c\n1,2\n3,4\n")
    key = next(iter(schema))
    with pytest.raises(DataError, match=f"schema key {key!r} names no column"):
        load_csv(path, schema=schema)


def test_schema_keys_name_columns_by_name_or_index(tmp_path):
    def kinds(ds):
        return [c.kind for c in ds.columns]

    path = make_csv(tmp_path, "a,c\n1,2\n3,4\n")
    assert kinds(load_csv(path, schema={"a": "categorical"})) == ["categorical", "numeric"]
    assert kinds(load_csv(path, schema={1: "categorical"})) == ["numeric", "categorical"]
    path = make_csv(tmp_path, "1,2\n3,4\n", name="bare.csv")
    assert kinds(load_csv(path, schema={"col1": "categorical"}, has_header=False)) == [
        "numeric", "categorical"]


def test_forced_numeric_column_names_the_cell_it_cannot_parse(tmp_path):
    path = make_csv(tmp_path, "a,b\n1,x\nNA,y\nten,z\n4,w\n")
    with pytest.raises(DataError, match="row 2, column 'a': cannot parse 'ten' as numeric"):
        load_csv(path, schema={"a": "numeric"})
    with pytest.raises(DataError, match="row 0, column 'b': cannot parse 'x' as numeric"):
        load_csv(path, schema={1: "numeric"})


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


def test_deduplicate_keeps_first_occurrence_order():
    ds = _two_col_dataset([[2.0, 1.0, 2.0, 1.0]], [[False] * 4])
    out, gmap = deduplicate(ds)
    assert gmap.tolist() == [0, 1, 0, 1]
    assert out.columns[0].values.tolist() == [2.0, 1.0]
    assert out.weights.tolist() == [2.0, 2.0]


def test_deduplicate_keeps_negative_zero_apart():
    ds = _two_col_dataset([[0.0, -0.0, 0.0]], [[False] * 3])
    out, gmap = deduplicate(ds)
    assert gmap.tolist() == [0, 1, 0]
    assert np.signbit(out.columns[0].values).tolist() == [False, True]


def test_deduplicate_merges_missing_categorical_cells_whatever_their_code():
    codes = np.array([0, 1, 0, 1])
    miss = np.array([True, True, False, False])
    ds = Dataset([Column("categorical", codes, miss, ["p", "q"])])
    out, gmap = deduplicate(ds)
    assert gmap.tolist() == [0, 0, 1, 2]
    assert out.weights.tolist() == [2.0, 1.0, 1.0]
    keys = row_keys(ds)
    assert keys.dtype == np.int64 and keys.shape == (4, 2)
    assert np.array_equal(keys[0], keys[1])


def data_table(case):
    """The tables whose data-layer outputs are pinned below."""
    if case == "t4 repeated":
        # 1,000 rows: 950 drawn, 50 of them again, shuffled together.
        rng = np.random.default_rng(3)
        ds = generate_scenario("t4", 950, rng)["dataset"]
        return ds.take(rng.permutation(np.concatenate([np.arange(950), rng.choice(950, 50)])))
    name, n = case.split()
    return generate_scenario(name, int(n), np.random.default_rng(5))["dataset"]


# For each table, the sha256 of the bytes `write_csv` writes, and of what
# `deduplicate(load_csv(...))` makes of them (each column's kind, labels,
# values and missing mask, then the group map and the weights).  Pinned
# when the data layer looped over cells, so that reading, writing and
# collapsing tables keep giving the same bytes.
DATA_DIGESTS = {
    "t4 repeated": (
        "cc594accdad6afbe80b89fd1aa032f495e8796a5cedd82e694127298bb9c8099",
        "e146146ab9f9f9680b57ed1c6144bbc7b48c4efc0526981d115126cf149e6038",
    ),
    "mixed 600": (
        "13b74361fa473ba7424f1e25f2401bc5ae8c99b95e10a1167cfce092abf98593",
        "b1f703a185fc42113e49c0913ceaaea99adf43e4fbede5c57b793a13711a2651",
    ),
    "mixed 20000": (
        "e9b68798d805906c1d95a537a63224b4bac86990b08429cafa6a760109679776",
        "52962f4622e62f30b1bfa47f7d522295d7001f43a8a4f379078cb8e29fa2df2b",
    ),
}


@pytest.mark.parametrize("case", list(DATA_DIGESTS))
def test_data_layer_keeps_its_digests(tmp_path, case):
    path = tmp_path / "table.csv"
    write_csv(data_table(case), path)
    text = hashlib.sha256(path.read_bytes()).hexdigest()
    out, gmap = deduplicate(load_csv(path))
    h = hashlib.sha256()
    for c in out.columns:
        h.update(f"{c.kind}{c.labels}".encode())
        h.update(c.values.tobytes())
        h.update(c.missing.tobytes())
    h.update(gmap.tobytes())
    h.update(out.weights.tobytes())
    assert (text, h.hexdigest()) == DATA_DIGESTS[case]
    if case == "t4 repeated":
        assert out.n_rows < 1000 and out.weights.max() >= 2


def test_weights_must_be_positive():
    with pytest.raises(DataError):
        Dataset(
            [Column("numeric", np.array([1.0, 2.0]), np.zeros(2, dtype=bool))],
            weights=np.array([1.0, 0.0]),
        )


@pytest.mark.parametrize("weight", [np.inf, np.nan])
def test_weights_must_be_finite(weight):
    with pytest.raises(DataError, match="weights must be finite"):
        Dataset(
            [Column("numeric", np.array([1.0, 2.0]), np.zeros(2, dtype=bool))],
            weights=np.array([1.0, weight]),
        )


def test_names_must_name_every_column():
    cols = [Column("numeric", np.array([1.0, 2.0]), np.zeros(2, dtype=bool))] * 3
    with pytest.raises(DataError, match="1 names for 3 columns"):
        Dataset(cols, ["a"])
    assert Dataset(cols).names == ["col0", "col1", "col2"]


@pytest.mark.parametrize(
    "data, what",
    [(b"a,b\n1,x\n2,\xff\xfe\n", "not UTF-8"), (b'a\n"' + b"x" * 140_000 + b'"\n', "field larger")],
)
def test_unreadable_csv_is_data_error(tmp_path, data, what):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=what) as info:
        load_csv(path)
    assert str(path) in str(info.value)


def test_write_csv_refuses_unseen_labels(tmp_path):
    # Code -1 marks a label a model never saw; it has no text, and labels[-1]
    # would write the column's last label in its place.
    path = tmp_path / "out.csv"
    ds = Dataset([Column("categorical", [-1, 0], [False, False], ["a", "b"])], ["c"])
    with pytest.raises(DataError, match="column 'c'"):
        write_csv(ds, path)
    assert not path.exists()
    # A missing cell's code is never read.
    write_csv(Dataset([Column("categorical", [-1, 0], [True, False], ["a", "b"])], ["c"]), path)
    assert path.read_text().splitlines() == ["c", '""', "a"]


@pytest.fixture(scope="module")
def mixed_csv(tmp_path_factory):
    """The bytes of a 30-row mixed CSV with missing cells, and a path to
    write mutants to."""
    path = tmp_path_factory.mktemp("csvfuzz") / "data.csv"
    write_csv(generate_scenario("mixed", 30, np.random.default_rng(2))["dataset"], path)
    return path.read_bytes(), path


@settings(max_examples=300)
@given(
    at=st.floats(0, 1, exclude_max=True),
    change=st.sampled_from(["truncate", "replace", "insert"]),
    byte=st.sampled_from(b',"\n\r\x00') | st.integers(0, 255),
)
def test_mutated_csv_loads_or_raises_data_error(mixed_csv, at, change, byte):
    data, path = mixed_csv
    pos = int(at * len(data))
    if change == "truncate":
        mutant = data[:pos]
    else:
        mutant = data[:pos] + bytes([byte]) + data[pos + (change == "replace") :]
    path.write_bytes(mutant)
    try:
        load_csv(path)
    except DataError:
        pass
